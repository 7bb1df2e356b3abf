//! Compiled predicate programs: flat, slot-resolved bytecode.
//!
//! Interpreting [`crate::expr::CompiledExpr`] trees directly would be
//! slow: every node is a `Box` hop, every attribute access re-resolves its
//! name against the event's schema, and every intermediate `Value` is
//! cloned. A [`PredicateProgram`] flattens the tree once at plan time into
//! an arena-backed postfix instruction sequence:
//!
//! * **Compile-time attribute resolution.** When a pattern slot's candidate
//!   event types are known (the common case — everything but heterogeneous
//!   `ANY(...)` components), the attribute name is resolved to a fixed
//!   *position* at compile time and eval is a single bounds-checked index.
//!   `timestamp`/`ts` pseudo-attributes are recognized statically. The
//!   remaining dynamic case lowercases the name once at compile and
//!   resolves it against each event's own schema
//!   ([`AttrAccess::Dynamic`]).
//! * **Flat evaluation.** No `Box` per node, no recursion: a single loop
//!   over a boxed op slice with an inline (stack-allocated) operand stack.
//!   `AND`/`OR` short-circuit via jump opcodes (a falsy non-boolean
//!   short-circuits `AND`, the result is always a boolean).
//! * **Fused fast paths.** The dominant predicate shapes —
//!   `attr ⋈ literal` (pushed single-variable filters), `attr ⋈ attr`
//!   (equivalence tests, sequence construction filters), and
//!   `attr − attr ⋈ literal` (window predicates) — compile to single
//!   fused opcodes that compare *borrowed* `&Value` operands without
//!   touching the operand stack at all.
//!
//! Steady-state evaluation performs **zero heap allocations** (asserted by
//! `tests/zero_alloc.rs`). The source tree is retained for `Debug` output,
//! EXPLAIN and the analyzer; it is not evaluated. Programs are held to the
//! language's definition by the brute-force oracle's evaluator in the
//! workspace's differential harness (`tests/differential.rs`).

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, SaseError};
use crate::event::{Event, SchemaRegistry};
use crate::expr::{Binding, CompiledExpr};
use crate::functions::BuiltinFunction;
use crate::lang::ast::{BinOp, UnaryOp};
use crate::pattern::CompiledPattern;
use crate::value::Value;

/// How a compiled attribute reference reaches its value at eval time.
#[derive(Debug, Clone)]
pub enum AttrAccess {
    /// Fixed position, valid for every candidate schema of the slot.
    Pos(u32),
    /// The `timestamp` / `ts` pseudo-attribute.
    Timestamp,
    /// Per-event resolution for slots whose candidate schemas disagree on
    /// the position (heterogeneous `ANY(...)`) or lack the attribute: one
    /// hash probe of the event's schema, under the name lowercased once at
    /// compile time. Nothing is memoized, so a schema redefined under the
    /// same type id is read as it is now.
    Dynamic {
        /// Pre-lowercased attribute name.
        attr_lc: Arc<str>,
    },
}

impl AttrAccess {
    /// Resolve an attribute of a pattern slot at compile time.
    ///
    /// `type_ids` are the slot's candidate event types; when every
    /// candidate schema stores the attribute at the same position the
    /// access is fully resolved, otherwise it degrades to the dynamic
    /// lookup.
    pub fn resolve(
        attr: &str,
        type_ids: &[crate::event::EventTypeId],
        registry: &SchemaRegistry,
    ) -> AttrAccess {
        if attr.eq_ignore_ascii_case("timestamp") || attr.eq_ignore_ascii_case("ts") {
            return AttrAccess::Timestamp;
        }
        let mut common: Option<usize> = None;
        let mut uniform = !type_ids.is_empty();
        for id in type_ids {
            let pos = registry.schema(*id).and_then(|s| s.attr_position(attr));
            match (pos, common) {
                (Some(p), None) => common = Some(p),
                (Some(p), Some(c)) if p == c => {}
                _ => {
                    uniform = false;
                    break;
                }
            }
        }
        match (uniform, common) {
            (true, Some(p)) => AttrAccess::Pos(p as u32),
            _ => AttrAccess::Dynamic {
                attr_lc: Arc::from(attr.to_ascii_lowercase().as_str()),
            },
        }
    }

    /// The value of this attribute on `event`, borrowed where possible.
    /// `None` means the event's schema lacks the attribute.
    #[inline]
    pub fn value_of<'e>(&self, event: &'e Event) -> Option<Fetched<'e>> {
        match self {
            AttrAccess::Pos(p) => event.attr_at(*p as usize).map(Fetched::Ref),
            AttrAccess::Timestamp => Some(Fetched::Ts(event.timestamp() as i64)),
            AttrAccess::Dynamic { attr_lc } => {
                let pos = event.schema().attr_position_lc(attr_lc)?;
                event.attr_at(pos).map(Fetched::Ref)
            }
        }
    }

    /// This attribute of `event` as a partition key, or `None` when the
    /// event's schema lacks it (it can never satisfy an equivalence test).
    #[inline]
    pub fn key_of(&self, event: &Event) -> Option<crate::value::ValueKey> {
        use crate::value::ValueKey;
        Some(match self.value_of(event)? {
            Fetched::Ref(v) => ValueKey::from_value(v),
            Fetched::Ts(t) => ValueKey::Int(t),
        })
    }
}

/// A fetched attribute value: borrowed from the event, or the timestamp
/// pseudo-attribute materialized as an integer.
#[derive(Debug, Clone, Copy)]
pub enum Fetched<'e> {
    /// Borrowed attribute payload.
    Ref(&'e Value),
    /// Timestamp pseudo-attribute.
    Ts(i64),
}

impl Fetched<'_> {
    /// An owned `Value` (refcount bump at most — never a heap allocation).
    #[inline]
    fn to_value(self) -> Value {
        match self {
            Fetched::Ref(v) => v.clone(),
            Fetched::Ts(t) => Value::Int(t),
        }
    }
}

/// Borrow a `&Value` out of a [`Fetched`], spilling a timestamp into the
/// caller-provided scratch slot.
macro_rules! as_value_ref {
    ($fetched:expr, $scratch:ident) => {
        match $fetched {
            Fetched::Ref(v) => v,
            Fetched::Ts(t) => {
                $scratch = Value::Int(t);
                &$scratch
            }
        }
    };
}

/// One attribute reference of a program (the per-program "arena" entry the
/// attribute opcodes index into).
#[derive(Debug, Clone)]
struct AttrRef {
    slot: u32,
    access: AttrAccess,
    /// Names as written, for error messages identical to the tree
    /// evaluator's.
    attr: Arc<str>,
    var: Arc<str>,
}

impl AttrRef {
    #[inline]
    fn fetch<'e, B: Binding + ?Sized>(&self, binding: &'e B) -> Result<Fetched<'e>> {
        let event = binding
            .event_at(self.slot as usize)
            .ok_or_else(|| SaseError::eval(format!("variable `{}` is not bound", self.var)))?;
        self.access.value_of(event).ok_or_else(|| {
            SaseError::eval(format!(
                "event type `{}` has no attribute `{}` (variable `{}`)",
                event.type_name(),
                self.attr,
                self.var
            ))
        })
    }
}

/// Comparison operator of the fused opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_binop(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// `literal ⋈ attr` rewritten as `attr ⋈' literal`.
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Tree-evaluator comparison semantics: numeric coercion, incomparable
    /// kinds make orderings false (and `=`/`!=` fall back to structural
    /// inequality).
    #[inline]
    fn test(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l.sase_eq(r),
            CmpOp::Ne => !l.sase_eq(r),
            CmpOp::Lt => l.sase_cmp(r) == Some(std::cmp::Ordering::Less),
            CmpOp::Le => matches!(
                l.sase_cmp(r),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            CmpOp::Gt => l.sase_cmp(r) == Some(std::cmp::Ordering::Greater),
            CmpOp::Ge => matches!(
                l.sase_cmp(r),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ),
        }
    }
}

/// One flat instruction. Postfix with explicit short-circuit jumps.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push literal `literals[i]`.
    PushLit(u16),
    /// Push the value of attribute reference `attrs[i]`.
    PushAttr(u16),
    /// Fused `attr ⋈ literal`: push the boolean result directly.
    AttrCmpLit { attr: u16, cmp: CmpOp, lit: u16 },
    /// Fused `attr ⋈ attr` (equivalence tests): both operands borrowed.
    AttrCmpAttr { a: u16, b: u16, cmp: CmpOp },
    /// Fused `attr - attr ⋈ literal` — the dominant window-predicate shape
    /// (`y.ts - x.ts < W`). Both operands borrowed; the difference is
    /// computed with exactly [`Value::sub`]'s coercion and error
    /// semantics.
    AttrSubAttrCmpLit {
        a: u16,
        b: u16,
        cmp: CmpOp,
        lit: u16,
    },
    /// Pop one, apply a unary operator, push.
    Unary(UnaryOp),
    /// Pop two, apply a non-logical binary operator, push.
    Binary(BinOp),
    /// `AND` short-circuit: pop; if falsy, push `false` and jump.
    JumpIfFalsy(u16),
    /// `OR` short-circuit: pop; if truthy, push `true` and jump.
    JumpIfTruthy(u16),
    /// Pop; push `Bool(is_true)` — normalizes an `AND`/`OR` right branch.
    Truthy,
    /// Pop `argc` arguments (in order), call `funcs[i]`, push the result.
    Call { func: u16, argc: u8 },
}

/// Largest operand stack kept inline (covers every realistic predicate;
/// deeper programs fall back to a heap stack, outside the zero-allocation
/// guarantee). Shallow programs — the overwhelming majority — use a
/// 4-slot tier so the per-eval stack initialization stays negligible.
const INLINE_STACK: usize = 16;
const SMALL_STACK: usize = 4;

/// A compiled, slot- and position-resolved predicate/expression program.
///
/// Built from a [`CompiledExpr`] by [`PredicateProgram::from_expr`];
/// evaluated against any [`Binding`] with [`PredicateProgram::eval`] /
/// [`PredicateProgram::eval_bool`]. Evaluation is allocation-free for
/// programs whose operand stack fits `INLINE_STACK` (`Value` clones are
/// refcount bumps, never heap allocations).
#[derive(Clone)]
pub struct PredicateProgram {
    ops: Box<[Op]>,
    literals: Box<[Value]>,
    attrs: Box<[AttrRef]>,
    funcs: Box<[Arc<dyn BuiltinFunction>]>,
    max_stack: u32,
    /// The source tree, retained for `Debug`, EXPLAIN and the analyzer.
    source: CompiledExpr,
}

impl PredicateProgram {
    /// Flatten a compiled expression tree into a program, resolving
    /// attribute references against the pattern's slot types.
    pub fn from_expr(
        expr: CompiledExpr,
        pattern: &CompiledPattern,
        registry: &SchemaRegistry,
    ) -> Result<PredicateProgram> {
        let mut c = Compiler {
            ops: Vec::new(),
            literals: Vec::new(),
            attrs: Vec::new(),
            funcs: Vec::new(),
            depth: 0,
            max_depth: 0,
            pattern,
            registry,
        };
        c.emit(&expr)?;
        debug_assert_eq!(c.depth, 1, "a program leaves exactly one result");
        Ok(PredicateProgram {
            ops: c.ops.into_boxed_slice(),
            literals: c.literals.into_boxed_slice(),
            attrs: c.attrs.into_boxed_slice(),
            funcs: c.funcs.into_boxed_slice(),
            max_stack: c.max_depth,
            source: expr,
        })
    }

    /// The retained source tree.
    pub fn tree(&self) -> &CompiledExpr {
        &self.source
    }

    /// The set of slots this program reads (delegates to the tree).
    pub fn referenced_slots(&self, out: &mut Vec<usize>) {
        self.source.referenced_slots(out);
    }

    /// Evaluate against a binding, producing a value.
    pub fn eval<B: Binding + ?Sized>(&self, binding: &B) -> Result<Value> {
        // Fast path: the two fused shapes dominate real query plans; a
        // single-op program needs no operand stack at all.
        if let [op] = &*self.ops {
            match *op {
                Op::AttrCmpLit { attr, cmp, lit } => {
                    let f = self.attrs[attr as usize].fetch(binding)?;
                    let spill;
                    let l = as_value_ref!(f, spill);
                    return Ok(Value::Bool(cmp.test(l, &self.literals[lit as usize])));
                }
                Op::AttrCmpAttr { a, b, cmp } => {
                    let fa = self.attrs[a as usize].fetch(binding)?;
                    let fb = self.attrs[b as usize].fetch(binding)?;
                    let spill_a;
                    let spill_b;
                    let l = as_value_ref!(fa, spill_a);
                    let r = as_value_ref!(fb, spill_b);
                    return Ok(Value::Bool(cmp.test(l, r)));
                }
                Op::AttrSubAttrCmpLit { a, b, cmp, lit } => {
                    let fa = self.attrs[a as usize].fetch(binding)?;
                    let fb = self.attrs[b as usize].fetch(binding)?;
                    let spill_a;
                    let spill_b;
                    let l = as_value_ref!(fa, spill_a);
                    let r = as_value_ref!(fb, spill_b);
                    let diff = l.sub(r)?;
                    return Ok(Value::Bool(cmp.test(&diff, &self.literals[lit as usize])));
                }
                Op::PushLit(i) => return Ok(self.literals[i as usize].clone()),
                Op::PushAttr(i) => return Ok(self.attrs[i as usize].fetch(binding)?.to_value()),
                _ => {}
            }
        }
        if self.max_stack as usize <= SMALL_STACK {
            let mut stack = InlineStack::<SMALL_STACK>::new();
            self.run(binding, &mut stack)
        } else if self.max_stack as usize <= INLINE_STACK {
            let mut stack = InlineStack::<INLINE_STACK>::new();
            self.run(binding, &mut stack)
        } else {
            let mut stack = HeapStack(Vec::with_capacity(self.max_stack as usize));
            self.run(binding, &mut stack)
        }
    }

    /// Evaluate as a predicate: non-boolean results are an error.
    pub fn eval_bool<B: Binding + ?Sized>(&self, binding: &B) -> Result<bool> {
        match self.eval(binding)? {
            Value::Bool(b) => Ok(b),
            other => Err(SaseError::eval(format!(
                "predicate evaluated to {} ({}), expected a boolean",
                other,
                other.value_type()
            ))),
        }
    }

    /// Evaluate as a `WHERE` conjunct under the evaluation rule of
    /// [`crate::processor`]: a conjunct that fails to evaluate is false,
    /// and adds one to `errors`.
    #[inline]
    pub(crate) fn holds<B: Binding + ?Sized>(&self, binding: &B, errors: &mut u64) -> bool {
        self.eval_bool(binding).unwrap_or_else(|_| {
            *errors += 1;
            false
        })
    }

    fn run<B: Binding + ?Sized, S: OperandStack>(
        &self,
        binding: &B,
        stack: &mut S,
    ) -> Result<Value> {
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match self.ops[pc] {
                Op::PushLit(i) => stack.push(self.literals[i as usize].clone()),
                Op::PushAttr(i) => stack.push(self.attrs[i as usize].fetch(binding)?.to_value()),
                Op::AttrCmpLit { attr, cmp, lit } => {
                    let f = self.attrs[attr as usize].fetch(binding)?;
                    let spill;
                    let l = as_value_ref!(f, spill);
                    stack.push(Value::Bool(cmp.test(l, &self.literals[lit as usize])));
                }
                Op::AttrCmpAttr { a, b, cmp } => {
                    let fa = self.attrs[a as usize].fetch(binding)?;
                    let fb = self.attrs[b as usize].fetch(binding)?;
                    let spill_a;
                    let spill_b;
                    let l = as_value_ref!(fa, spill_a);
                    let r = as_value_ref!(fb, spill_b);
                    stack.push(Value::Bool(cmp.test(l, r)));
                }
                Op::AttrSubAttrCmpLit { a, b, cmp, lit } => {
                    let fa = self.attrs[a as usize].fetch(binding)?;
                    let fb = self.attrs[b as usize].fetch(binding)?;
                    let spill_a;
                    let spill_b;
                    let l = as_value_ref!(fa, spill_a);
                    let r = as_value_ref!(fb, spill_b);
                    let diff = l.sub(r)?;
                    stack.push(Value::Bool(cmp.test(&diff, &self.literals[lit as usize])));
                }
                Op::Unary(op) => {
                    let v = stack.pop();
                    let r = match op {
                        UnaryOp::Not => match v {
                            Value::Bool(b) => Value::Bool(!b),
                            other => {
                                return Err(SaseError::eval(format!(
                                    "NOT expects a boolean, got {}",
                                    other.value_type()
                                )))
                            }
                        },
                        UnaryOp::Neg => match v {
                            Value::Int(i) => Value::Int(i.wrapping_neg()),
                            Value::Float(x) => Value::Float(-x),
                            other => {
                                return Err(SaseError::eval(format!(
                                    "unary `-` expects a number, got {}",
                                    other.value_type()
                                )))
                            }
                        },
                    };
                    stack.push(r);
                }
                Op::Binary(op) => {
                    let r = stack.pop();
                    let l = stack.pop();
                    let v = match op {
                        BinOp::Eq => Value::Bool(l.sase_eq(&r)),
                        BinOp::Ne => Value::Bool(!l.sase_eq(&r)),
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                            let cmp = CmpOp::from_binop(op).expect("ordering op");
                            Value::Bool(cmp.test(&l, &r))
                        }
                        BinOp::Add => l.add(&r)?,
                        BinOp::Sub => l.sub(&r)?,
                        BinOp::Mul => l.mul(&r)?,
                        BinOp::Div => l.div(&r)?,
                        BinOp::Rem => l.rem(&r)?,
                        BinOp::And | BinOp::Or => {
                            unreachable!("logical connectives compile to jumps")
                        }
                    };
                    stack.push(v);
                }
                Op::JumpIfFalsy(target) => {
                    let v = stack.pop();
                    if !v.is_true() {
                        stack.push(Value::Bool(false));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::JumpIfTruthy(target) => {
                    let v = stack.pop();
                    if v.is_true() {
                        stack.push(Value::Bool(true));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Truthy => {
                    let v = stack.pop();
                    stack.push(Value::Bool(v.is_true()));
                }
                Op::Call { func, argc } => {
                    let n = argc as usize;
                    let result = self.funcs[func as usize].call(stack.top_slice(n))?;
                    stack.drop_top(n);
                    stack.push(result);
                }
            }
            pc += 1;
        }
        Ok(stack.pop())
    }
}

impl fmt::Debug for PredicateProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Programs print as their source tree so EXPLAIN stays readable.
        fmt::Debug::fmt(&self.source, f)
    }
}

/// Shared surface of the inline and heap operand stacks.
trait OperandStack {
    fn push(&mut self, v: Value);
    fn pop(&mut self) -> Value;
    /// The top `n` values in push order (function-call arguments).
    fn top_slice(&self, n: usize) -> &[Value];
    /// Drop the top `n` values.
    fn drop_top(&mut self, n: usize);
}

/// Fixed-capacity operand stack living entirely on the call stack.
struct InlineStack<const N: usize> {
    buf: [Value; N],
    len: usize,
}

impl<const N: usize> InlineStack<N> {
    fn new() -> Self {
        InlineStack {
            buf: std::array::from_fn(|_| Value::Bool(false)),
            len: 0,
        }
    }
}

impl<const N: usize> OperandStack for InlineStack<N> {
    #[inline]
    fn push(&mut self, v: Value) {
        self.buf[self.len] = v;
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.len -= 1;
        std::mem::replace(&mut self.buf[self.len], Value::Bool(false))
    }

    #[inline]
    fn top_slice(&self, n: usize) -> &[Value] {
        &self.buf[self.len - n..self.len]
    }

    #[inline]
    fn drop_top(&mut self, n: usize) {
        for i in self.len - n..self.len {
            self.buf[i] = Value::Bool(false);
        }
        self.len -= n;
    }
}

/// Heap fallback for programs deeper than [`INLINE_STACK`].
struct HeapStack(Vec<Value>);

impl OperandStack for HeapStack {
    fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    fn pop(&mut self) -> Value {
        self.0.pop().expect("program stack discipline")
    }

    fn top_slice(&self, n: usize) -> &[Value] {
        &self.0[self.0.len() - n..]
    }

    fn drop_top(&mut self, n: usize) {
        let keep = self.0.len() - n;
        self.0.truncate(keep);
    }
}

/// The `(slot, attr, var)` fields of a [`CompiledExpr::Attr`] node.
type AttrParts<'e> = (usize, &'e Arc<str>, &'e Arc<str>);

/// Destructure the fusable window-difference shape `attr - attr`.
fn attr_sub_attr(e: &CompiledExpr) -> Option<(AttrParts<'_>, AttrParts<'_>)> {
    let CompiledExpr::Binary {
        op: BinOp::Sub,
        left,
        right,
    } = e
    else {
        return None;
    };
    match (&**left, &**right) {
        (
            CompiledExpr::Attr {
                slot: sa,
                attr: aa,
                var: va,
            },
            CompiledExpr::Attr {
                slot: sb,
                attr: ab,
                var: vb,
            },
        ) => Some(((*sa, aa, va), (*sb, ab, vb))),
        _ => None,
    }
}

struct Compiler<'a> {
    ops: Vec<Op>,
    literals: Vec<Value>,
    attrs: Vec<AttrRef>,
    funcs: Vec<Arc<dyn BuiltinFunction>>,
    depth: u32,
    max_depth: u32,
    pattern: &'a CompiledPattern,
    registry: &'a SchemaRegistry,
}

impl Compiler<'_> {
    fn bump(&mut self, n: u32) {
        self.depth += n;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn lit(&mut self, v: &Value) -> Result<u16> {
        idx16(self.literals.len(), "literals")?;
        self.literals.push(v.clone());
        Ok((self.literals.len() - 1) as u16)
    }

    fn attr(&mut self, slot: usize, attr: &Arc<str>, var: &Arc<str>) -> Result<u16> {
        idx16(self.attrs.len(), "attribute references")?;
        let type_ids: &[crate::event::EventTypeId] = self
            .pattern
            .elements
            .get(slot)
            .map(|e| e.type_ids.as_slice())
            .unwrap_or(&[]);
        self.attrs.push(AttrRef {
            slot: slot as u32,
            access: AttrAccess::resolve(attr, type_ids, self.registry),
            attr: attr.clone(),
            var: var.clone(),
        });
        Ok((self.attrs.len() - 1) as u16)
    }

    fn emit(&mut self, expr: &CompiledExpr) -> Result<()> {
        match expr {
            CompiledExpr::Literal(v) => {
                let i = self.lit(v)?;
                self.push_op(Op::PushLit(i))?;
                self.bump(1);
            }
            CompiledExpr::Attr { slot, attr, var } => {
                let i = self.attr(*slot, attr, var)?;
                self.push_op(Op::PushAttr(i))?;
                self.bump(1);
            }
            CompiledExpr::Unary { op, expr } => {
                self.emit(expr)?;
                self.push_op(Op::Unary(*op))?;
            }
            CompiledExpr::Binary { op, left, right } => match op {
                BinOp::And | BinOp::Or => {
                    self.emit(left)?;
                    let jump_at = self.ops.len();
                    self.push_op(Op::Truthy)?; // placeholder, patched below
                    self.depth -= 1; // the jump pops the left result
                    self.emit(right)?;
                    self.push_op(Op::Truthy)?;
                    // Jump past the whole right branch, Truthy included:
                    // the short-circuit path pushes an already-normalized
                    // boolean.
                    idx16(self.ops.len(), "program")?;
                    let target = self.ops.len() as u16;
                    self.ops[jump_at] = if *op == BinOp::And {
                        Op::JumpIfFalsy(target)
                    } else {
                        Op::JumpIfTruthy(target)
                    };
                }
                _ => {
                    // Fuse the dominant comparison shapes.
                    if let Some(cmp) = CmpOp::from_binop(*op) {
                        match (&**left, &**right) {
                            (CompiledExpr::Attr { slot, attr, var }, CompiledExpr::Literal(v)) => {
                                let a = self.attr(*slot, attr, var)?;
                                let l = self.lit(v)?;
                                self.push_op(Op::AttrCmpLit {
                                    attr: a,
                                    cmp,
                                    lit: l,
                                })?;
                                self.bump(1);
                                return Ok(());
                            }
                            (CompiledExpr::Literal(v), CompiledExpr::Attr { slot, attr, var }) => {
                                let a = self.attr(*slot, attr, var)?;
                                let l = self.lit(v)?;
                                self.push_op(Op::AttrCmpLit {
                                    attr: a,
                                    cmp: cmp.flipped(),
                                    lit: l,
                                })?;
                                self.bump(1);
                                return Ok(());
                            }
                            (
                                CompiledExpr::Attr {
                                    slot: sa,
                                    attr: aa,
                                    var: va,
                                },
                                CompiledExpr::Attr {
                                    slot: sb,
                                    attr: ab,
                                    var: vb,
                                },
                            ) => {
                                let a = self.attr(*sa, aa, va)?;
                                let b = self.attr(*sb, ab, vb)?;
                                self.push_op(Op::AttrCmpAttr { a, b, cmp })?;
                                self.bump(1);
                                return Ok(());
                            }
                            // The window-predicate shape `a.ts - b.ts ⋈ W`
                            // (either operand order; the flipped form
                            // rewrites `W ⋈ diff` as `diff ⋈' W`).
                            (diff, CompiledExpr::Literal(v)) if attr_sub_attr(diff).is_some() => {
                                self.fuse_window(diff, v, cmp)?;
                                return Ok(());
                            }
                            (CompiledExpr::Literal(v), diff) if attr_sub_attr(diff).is_some() => {
                                self.fuse_window(diff, v, cmp.flipped())?;
                                return Ok(());
                            }
                            _ => {}
                        }
                    }
                    self.emit(left)?;
                    self.emit(right)?;
                    self.push_op(Op::Binary(*op))?;
                    self.depth -= 1; // two popped, one pushed
                }
            },
            CompiledExpr::Call { func, args } => {
                for a in args {
                    self.emit(a)?;
                }
                if args.len() > u8::MAX as usize {
                    return Err(SaseError::plan(
                        "function call with more than 255 arguments",
                    ));
                }
                idx16(self.funcs.len(), "functions")?;
                self.funcs.push(func.clone());
                self.push_op(Op::Call {
                    func: (self.funcs.len() - 1) as u16,
                    argc: args.len() as u8,
                })?;
                // The call pops its arguments and pushes one result.
                self.depth -= args.len() as u32;
                self.bump(1);
            }
        }
        Ok(())
    }

    /// Emit the fused `attr - attr ⋈ literal` opcode for a shape accepted
    /// by [`attr_sub_attr`] (both operand orders route here; the caller
    /// flips `cmp` for the literal-on-the-left form).
    fn fuse_window(&mut self, diff: &CompiledExpr, v: &Value, cmp: CmpOp) -> Result<()> {
        let ((sa, aa, va), (sb, ab, vb)) = attr_sub_attr(diff).expect("caller guards the shape");
        let a = self.attr(sa, aa, va)?;
        let b = self.attr(sb, ab, vb)?;
        let lit = self.lit(v)?;
        self.push_op(Op::AttrSubAttrCmpLit { a, b, cmp, lit })?;
        self.bump(1);
        Ok(())
    }

    fn push_op(&mut self, op: Op) -> Result<()> {
        idx16(self.ops.len(), "program")?;
        self.ops.push(op);
        Ok(())
    }
}

fn idx16(len: usize, what: &str) -> Result<()> {
    if len >= u16::MAX as usize {
        return Err(SaseError::plan(format!(
            "predicate too large: {what} table exceeds {} entries",
            u16::MAX
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::expr::SlotProbe;
    use crate::functions::FunctionRegistry;
    use crate::lang::{parse_expr, parse_query};

    fn pattern(reg: &SchemaRegistry) -> CompiledPattern {
        let q =
            parse_query("EVENT SEQ(SHELF_READING x, COUNTER_READING y, EXIT_READING z) WITHIN 10")
                .unwrap();
        CompiledPattern::compile(&q.pattern, reg).unwrap()
    }

    fn program(reg: &SchemaRegistry, src: &str) -> PredicateProgram {
        let p = pattern(reg);
        let slots = p.slot_table();
        let ast = parse_expr(src).unwrap();
        let tree =
            CompiledExpr::compile(&ast, &slots[..], &FunctionRegistry::with_stdlib()).unwrap();
        PredicateProgram::from_expr(tree, &p, reg).unwrap()
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(area)],
        )
        .unwrap()
    }

    #[test]
    fn fused_equivalence_and_literal_shapes() {
        let reg = retail_registry();
        let eq = program(&reg, "x.TagId = y.TagId");
        let a = ev(&reg, "SHELF_READING", 1, 7, 1);
        let b = ev(&reg, "COUNTER_READING", 2, 7, 2);
        let c = ev(&reg, "EXIT_READING", 3, 8, 2);
        assert!(eq
            .eval_bool(&[a.clone(), b.clone(), c.clone()][..])
            .unwrap());
        let ne = program(&reg, "y.TagId = z.TagId");
        assert!(!ne
            .eval_bool(&[a.clone(), b.clone(), c.clone()][..])
            .unwrap());
        let lit = program(&reg, "x.AreaId >= 1");
        assert!(lit
            .eval_bool(&[a.clone(), b.clone(), c.clone()][..])
            .unwrap());
        let flipped = program(&reg, "3 > x.AreaId");
        assert!(flipped.eval_bool(&[a, b, c][..]).unwrap());
    }

    #[test]
    fn short_circuit_skips_unbound_operands() {
        let reg = retail_registry();
        let p = program(&reg, "x.TagId = 999 AND y.TagId = 1");
        let e = ev(&reg, "SHELF_READING", 1, 7, 1);
        let probe = SlotProbe { slot: 0, event: &e };
        // y unbound: AND must short-circuit on the false left side.
        assert!(!p.eval_bool(&probe).unwrap());
        let o = program(&reg, "x.TagId = 7 OR y.TagId = 1");
        assert!(o.eval_bool(&probe).unwrap());
    }

    #[test]
    fn timestamp_resolution_is_static() {
        let reg = retail_registry();
        let p = program(&reg, "z.Timestamp - x.ts < 10");
        let a = ev(&reg, "SHELF_READING", 5, 1, 1);
        let b = ev(&reg, "COUNTER_READING", 6, 1, 1);
        let c = ev(&reg, "EXIT_READING", 9, 1, 2);
        assert!(p.eval_bool(&[a.clone(), b.clone(), c][..]).unwrap());
        let far = ev(&reg, "EXIT_READING", 50, 1, 2);
        assert!(!p.eval_bool(&[a, b, far][..]).unwrap());
    }

    #[test]
    fn calls_and_arithmetic() {
        let reg = retail_registry();
        let p = program(&reg, "_abs(x.AreaId - z.AreaId) = 3");
        let a = ev(&reg, "SHELF_READING", 1, 1, 1);
        let b = ev(&reg, "COUNTER_READING", 2, 1, 1);
        let c = ev(&reg, "EXIT_READING", 3, 1, 4);
        assert!(p.eval_bool(&[a, b, c][..]).unwrap());
    }

    #[test]
    fn error_messages_are_pinned() {
        let reg = retail_registry();
        let e = ev(&reg, "SHELF_READING", 1, 1, 1);
        let probe = SlotProbe { slot: 0, event: &e };
        for (src, want) in [
            ("y.TagId = 1", "evaluation error: variable `y` is not bound"),
            (
                "x.Nope = 1",
                "evaluation error: event type `SHELF_READING` has no attribute `Nope` \
                 (variable `x`)",
            ),
            (
                "NOT x.TagId",
                "evaluation error: NOT expects a boolean, got int",
            ),
            (
                "-x.ProductName = 1",
                "evaluation error: unary `-` expects a number, got string",
            ),
            (
                "x.TagId + 1",
                "evaluation error: predicate evaluated to 2 (int), expected a boolean",
            ),
            ("x.TagId / 0 = 1", "evaluation error: division by zero"),
            (
                "_abs(x.ProductName) = 1",
                "built-in function _abs failed: expects a number, got string",
            ),
        ] {
            let err = program(&reg, src).eval_bool(&probe).unwrap_err();
            assert_eq!(err.to_string(), want, "{src}");
        }
    }

    #[test]
    fn dynamic_resolution_for_heterogeneous_any() {
        use crate::value::ValueType;
        // Two types storing attribute `a` at different positions force the
        // memoized dynamic path.
        let reg = SchemaRegistry::new();
        reg.register("T_A", &[("a", ValueType::Int), ("b", ValueType::Int)])
            .unwrap();
        reg.register("T_B", &[("b", ValueType::Int), ("a", ValueType::Int)])
            .unwrap();
        let q = parse_query("EVENT ANY(T_A, T_B) v WITHIN 10").unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        let slots = p.slot_table();
        let ast = parse_expr("v.a = 7").unwrap();
        let tree = CompiledExpr::compile(&ast, &slots[..], &FunctionRegistry::new()).unwrap();
        let prog = PredicateProgram::from_expr(tree, &p, &reg).unwrap();
        let ea = reg
            .build_event("T_A", 1, vec![Value::Int(7), Value::Int(0)])
            .unwrap();
        let eb = reg
            .build_event("T_B", 2, vec![Value::Int(0), Value::Int(7)])
            .unwrap();
        // Alternate types to exercise the memo's replacement path.
        for _ in 0..3 {
            assert!(prog
                .eval_bool(&SlotProbe {
                    slot: 0,
                    event: &ea
                })
                .unwrap());
            assert!(prog
                .eval_bool(&SlotProbe {
                    slot: 0,
                    event: &eb
                })
                .unwrap());
        }
    }

    #[test]
    fn debug_prints_like_the_tree() {
        let reg = retail_registry();
        let p = program(&reg, "x.TagId = y.TagId");
        assert_eq!(format!("{p:?}"), format!("{:?}", p.tree()));
    }
}
