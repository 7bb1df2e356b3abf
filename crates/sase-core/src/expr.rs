//! Compiled expressions.
//!
//! The parser produces [`crate::lang::Expr`] trees with textual variable
//! references; the planner compiles them into [`CompiledExpr`] trees whose
//! attribute references are resolved to *slots* — positions of pattern
//! components — and whose function calls are resolved against the
//! [`FunctionRegistry`]. A tree is not evaluated itself: it is flattened
//! into a [`crate::program::PredicateProgram`], which evaluates against any
//! [`Binding`] (a partial or complete assignment of events to slots).

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, SaseError};
use crate::event::Event;
use crate::functions::{BuiltinFunction, FunctionRegistry};
use crate::lang::ast::{BinOp, Expr, UnaryOp};
use crate::value::Value;

/// A view of events bound to pattern slots during evaluation.
///
/// Slot numbering covers *all* pattern components, negated ones included,
/// in pattern order; unbound slots return `None`.
pub trait Binding {
    /// The event bound to `slot`, if any.
    fn event_at(&self, slot: usize) -> Option<&Event>;
}

/// A binding over a slice of optional events, one per slot.
impl Binding for [Option<Event>] {
    fn event_at(&self, slot: usize) -> Option<&Event> {
        self.get(slot).and_then(|e| e.as_ref())
    }
}

/// A binding over fully-bound events (a complete match).
impl Binding for [Event] {
    fn event_at(&self, slot: usize) -> Option<&Event> {
        self.get(slot)
    }
}

/// A single-slot probe: evaluates single-variable predicates against a
/// candidate event before it is admitted to a stack.
pub struct SlotProbe<'a> {
    /// The slot the candidate would occupy.
    pub slot: usize,
    /// The candidate event.
    pub event: &'a Event,
}

impl Binding for SlotProbe<'_> {
    fn event_at(&self, slot: usize) -> Option<&Event> {
        (slot == self.slot).then_some(self.event)
    }
}

/// A compiled, slot-resolved expression.
#[derive(Clone)]
pub enum CompiledExpr {
    /// Literal value.
    Literal(Value),
    /// Attribute of the event in a slot.
    Attr {
        /// Pattern-component slot.
        slot: usize,
        /// Attribute name (resolved per-event; schemas can differ in `ANY`).
        attr: Arc<str>,
        /// Variable name, kept for diagnostics and display.
        var: Arc<str>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<CompiledExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// Resolved built-in function call.
    Call {
        /// The function implementation.
        func: Arc<dyn BuiltinFunction>,
        /// Argument expressions.
        args: Vec<CompiledExpr>,
    },
}

/// Maps variable names to slots during compilation.
pub trait SlotResolver {
    /// Slot for a variable name, or `None` if the variable is unknown.
    fn slot_of(&self, var: &str) -> Option<usize>;
}

impl SlotResolver for [(String, usize)] {
    fn slot_of(&self, var: &str) -> Option<usize> {
        self.iter().find(|(v, _)| v == var).map(|(_, s)| *s)
    }
}

impl CompiledExpr {
    /// Compile an AST expression.
    ///
    /// Fails on unknown variables and unknown functions, and on the
    /// equivalence shorthand `[attr]`, which the planner must expand before
    /// compilation (it is not a point-wise predicate).
    pub fn compile<R: SlotResolver + ?Sized>(
        expr: &Expr,
        slots: &R,
        functions: &FunctionRegistry,
    ) -> Result<CompiledExpr> {
        match expr {
            Expr::Literal(v) => Ok(CompiledExpr::Literal(v.clone())),
            Expr::Attr(a) => {
                let slot = slots.slot_of(&a.var).ok_or_else(|| {
                    SaseError::semantic(format!(
                        "unknown pattern variable `{}` in expression",
                        a.var
                    ))
                })?;
                Ok(CompiledExpr::Attr {
                    slot,
                    attr: Arc::from(a.attr.as_str()),
                    var: Arc::from(a.var.as_str()),
                })
            }
            Expr::Equivalence(attr) => Err(SaseError::semantic(format!(
                "equivalence predicate [{attr}] must be expanded by the planner \
                 before compilation"
            ))),
            Expr::Unary { op, expr } => Ok(CompiledExpr::Unary {
                op: *op,
                expr: Box::new(Self::compile(expr, slots, functions)?),
            }),
            Expr::Binary { op, left, right } => Ok(CompiledExpr::Binary {
                op: *op,
                left: Box::new(Self::compile(left, slots, functions)?),
                right: Box::new(Self::compile(right, slots, functions)?),
            }),
            Expr::Call { name, args } => {
                let func = functions.resolve(name)?;
                if let Some(expected) = func.arity() {
                    if args.len() != expected {
                        return Err(SaseError::semantic(format!(
                            "function `{name}` expects {expected} arguments, got {}",
                            args.len()
                        )));
                    }
                }
                let args = args
                    .iter()
                    .map(|a| Self::compile(a, slots, functions))
                    .collect::<Result<Vec<_>>>()?;
                Ok(CompiledExpr::Call { func, args })
            }
        }
    }

    /// The set of slots this expression reads.
    pub fn referenced_slots(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Literal(_) => {}
            CompiledExpr::Attr { slot, .. } => {
                if !out.contains(slot) {
                    out.push(*slot);
                }
            }
            CompiledExpr::Unary { expr, .. } => expr.referenced_slots(out),
            CompiledExpr::Binary { left, right, .. } => {
                left.referenced_slots(out);
                right.referenced_slots(out);
            }
            CompiledExpr::Call { args, .. } => {
                for a in args {
                    a.referenced_slots(out);
                }
            }
        }
    }

    /// Highest slot referenced, or `None` for constant expressions.
    pub fn max_slot(&self) -> Option<usize> {
        let mut slots = Vec::new();
        self.referenced_slots(&mut slots);
        slots.into_iter().max()
    }
}

impl fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompiledExpr::Literal(v) => write!(f, "{v}"),
            CompiledExpr::Attr { var, attr, slot } => write!(f, "{var}.{attr}#{slot}"),
            CompiledExpr::Unary { op, expr } => write!(f, "({op:?} {expr:?})"),
            CompiledExpr::Binary { op, left, right } => {
                write!(f, "({left:?} {} {right:?})", op.as_str())
            }
            CompiledExpr::Call { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{retail_registry, SchemaRegistry};
    use crate::lang::{parse_expr, parse_query};
    use crate::pattern::CompiledPattern;
    use crate::program::PredicateProgram;

    fn shelf(reg: &SchemaRegistry, ts: u64, tag: i64, area: i64) -> Event {
        reg.build_event(
            "SHELF_READING",
            ts,
            vec![Value::Int(tag), Value::str("milk"), Value::Int(area)],
        )
        .unwrap()
    }

    fn compile(src: &str, slots: &[(String, usize)]) -> CompiledExpr {
        let ast = parse_expr(src).unwrap();
        CompiledExpr::compile(&ast, slots, &FunctionRegistry::with_stdlib()).unwrap()
    }

    /// A compiled tree as the engine evaluates it: flattened into a
    /// program over `SEQ(SHELF_READING x, SHELF_READING y)`.
    fn program(src: &str) -> PredicateProgram {
        let reg = retail_registry();
        let q = parse_query("EVENT SEQ(SHELF_READING x, SHELF_READING y) WITHIN 10").unwrap();
        let pattern = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        PredicateProgram::from_expr(compile(src, &xy_slots()), &pattern, &reg).unwrap()
    }

    fn xy_slots() -> Vec<(String, usize)> {
        vec![("x".to_string(), 0), ("y".to_string(), 1)]
    }

    #[test]
    fn parameterized_predicate_q1_style() {
        let reg = retail_registry();
        let e = program("x.TagId = y.TagId");
        let a = shelf(&reg, 1, 7, 1);
        let b = shelf(&reg, 2, 7, 2);
        let c = shelf(&reg, 3, 8, 2);
        assert!(e.eval_bool(&[a.clone(), b][..]).unwrap());
        assert!(!e.eval_bool(&[a, c][..]).unwrap());
    }

    #[test]
    fn partial_binding_probe() {
        let reg = retail_registry();
        let e = program("x.AreaId > 1 AND x.TagId < 100");
        let ev = shelf(&reg, 1, 7, 2);
        let probe = SlotProbe {
            slot: 0,
            event: &ev,
        };
        assert!(e.eval_bool(&probe).unwrap());
        let probe_wrong_slot = SlotProbe {
            slot: 1,
            event: &ev,
        };
        assert!(e.eval_bool(&probe_wrong_slot).is_err());
    }

    #[test]
    fn timestamp_pseudo_attribute() {
        let reg = retail_registry();
        let e = program("y.Timestamp - x.Timestamp < 10");
        let a = shelf(&reg, 5, 1, 1);
        let b = shelf(&reg, 9, 1, 2);
        assert!(e.eval_bool(&[a.clone(), b][..]).unwrap());
        let c = shelf(&reg, 50, 1, 2);
        assert!(!e.eval_bool(&[a, c][..]).unwrap());
    }

    #[test]
    fn short_circuit_avoids_unbound_error() {
        let reg = retail_registry();
        // y is unbound; AND must short-circuit on the false left side.
        let e = program("x.TagId = 999 AND y.TagId = 1");
        let ev = shelf(&reg, 1, 7, 1);
        let probe = SlotProbe {
            slot: 0,
            event: &ev,
        };
        assert!(!e.eval_bool(&probe).unwrap());
        // OR short-circuits on the true left side.
        let o = program("x.TagId = 7 OR y.TagId = 1");
        assert!(o.eval_bool(&probe).unwrap());
    }

    #[test]
    fn arithmetic_and_functions() {
        let reg = retail_registry();
        let e = program("_abs(x.AreaId - y.AreaId) = 3");
        let a = shelf(&reg, 1, 1, 1);
        let b = shelf(&reg, 2, 1, 4);
        assert!(e.eval_bool(&[a, b][..]).unwrap());
    }

    #[test]
    fn incomparable_ordering_is_false_not_error() {
        let reg = retail_registry();
        let e = program("x.ProductName > 3");
        let ev = shelf(&reg, 1, 1, 1);
        let probe = SlotProbe {
            slot: 0,
            event: &ev,
        };
        assert!(!e.eval_bool(&probe).unwrap());
    }

    #[test]
    fn ne_on_incomparable_is_true() {
        let reg = retail_registry();
        let e = program("x.ProductName != 3");
        let ev = shelf(&reg, 1, 1, 1);
        assert!(e
            .eval_bool(&SlotProbe {
                slot: 0,
                event: &ev
            })
            .unwrap());
    }

    #[test]
    fn unknown_variable_rejected_at_compile_time() {
        let ast = parse_expr("q.TagId = 1").unwrap();
        let err = CompiledExpr::compile(&ast, &xy_slots()[..], &FunctionRegistry::new());
        assert!(err.is_err());
    }

    #[test]
    fn unknown_function_rejected_at_compile_time() {
        let ast = parse_expr("_nope(x.TagId)").unwrap();
        let err = CompiledExpr::compile(&ast, &xy_slots()[..], &FunctionRegistry::new());
        assert!(err.is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let ast = parse_expr("_abs(x.TagId, y.TagId)").unwrap();
        let err = CompiledExpr::compile(&ast, &xy_slots()[..], &FunctionRegistry::with_stdlib());
        assert!(err.is_err());
    }

    #[test]
    fn equivalence_must_be_expanded_first() {
        let ast = parse_expr("[TagId]").unwrap();
        let err = CompiledExpr::compile(&ast, &xy_slots()[..], &FunctionRegistry::new());
        assert!(err.is_err());
    }

    #[test]
    fn referenced_slots_and_max() {
        let e = compile("x.TagId = y.TagId AND x.AreaId > 0", &xy_slots());
        let mut slots = Vec::new();
        e.referenced_slots(&mut slots);
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1]);
        assert_eq!(e.max_slot(), Some(1));
        let c = compile("1 + 2", &xy_slots());
        assert_eq!(c.max_slot(), None);
    }

    #[test]
    fn non_boolean_predicate_is_an_error() {
        let reg = retail_registry();
        let e = program("x.TagId + 1");
        let ev = shelf(&reg, 1, 1, 1);
        assert!(e
            .eval_bool(&SlotProbe {
                slot: 0,
                event: &ev
            })
            .is_err());
    }
}
