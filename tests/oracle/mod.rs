//! A brute-force reference for what a SASE query matches, written from the
//! language's definition (§2.1.1) and not from the engine. It shares the
//! parser, the event and value types and the stdlib function bodies with
//! the engine, and nothing else: no planner, no predicate compiler, no
//! runtime.
//!
//! A match of `EVENT SEQ(c1, …, cn) WHERE w WITHIN t` over a stream is a
//! tuple of stream events, one per positive component, such that:
//!
//! * the events are in `SEQ` order with strictly increasing timestamps;
//! * each event's type is in its component's type set (`ANY` included);
//! * the last timestamp minus the first is at most `t` (any span when the
//!   query has no `WITHIN`);
//! * every conjunct of `w` that names only positive components is true, and
//!   `[attr]` holds: the events agree pairwise on `attr`;
//! * for each negated component, no stream event lies strictly between the
//!   positive components on either side of it that has one of its types,
//!   makes every conjunct naming it true, and agrees on every `[attr]`
//!   whose attribute it has;
//! * every `RETURN` expression evaluates.
//!
//! A conjunct that fails to evaluate is false, wherever it stands: an
//! error never makes a match, nor a counterexample. A `RETURN` expression
//! that calls a host function outside the stdlib is not evaluated: the
//! host's function decides nothing about what matches.
//!
//! The enumeration visits every tuple in `SEQ` order. Its two shortcuts
//! change how many tuples it visits, never which ones it keeps: the scan
//! for a later component stops at the first event past the window (the
//! stream is in timestamp order), and a conjunct is checked as soon as
//! every variable it names is bound.

#![allow(dead_code)]

pub mod harness;

use std::cmp::Ordering;

use sase::core::functions::FunctionRegistry;
use sase::core::lang::ast::{BinOp, Expr, Query, ReturnItem, UnaryOp};
use sase::core::time::TimeScale;
use sase::core::value::Value;
use sase::core::Event;

/// Every match of `query` over `stream`, each as its positive events in
/// pattern order. `stream` must be in timestamp order.
///
/// Panics on a query outside the definition above: a conjunct naming two
/// negated components, a `[attr]` nested inside another expression, a call
/// to a host function outside the stdlib in `WHERE`, a predicate that
/// evaluates to a value other than a boolean, or an aggregate in `RETURN`.
pub fn matches(query: &Query, stream: &[Event]) -> Vec<Vec<Event>> {
    assert!(
        stream
            .windows(2)
            .all(|w| w[0].timestamp() <= w[1].timestamp()),
        "the oracle reads a stream in timestamp order"
    );
    let stdlib = FunctionRegistry::with_stdlib();
    let modelled = |e: &Expr| {
        let mut calls = Vec::new();
        e.called_functions(&mut calls);
        calls.iter().all(|f| stdlib.resolve(f).is_ok())
    };
    if let Some(w) = &query.where_clause {
        assert!(
            modelled(w),
            "`{w}` calls a host function outside the stdlib"
        );
    }
    let returns = (query.return_clause.iter().flat_map(|r| &r.items))
        .filter_map(|item| match item {
            ReturnItem::Scalar { expr, .. } => modelled(expr).then_some(expr),
            ReturnItem::Aggregate { .. } => panic!("the oracle models no aggregate"),
        })
        .collect();
    let mut oracle = Oracle {
        stream,
        window: query.within.map(|w| w.to_logical(TimeScale::default())),
        positives: Vec::new(),
        negations: Vec::new(),
        equivalences: Vec::new(),
        returns,
    };
    for (slot, elem) in query.pattern.elements.iter().enumerate() {
        let fits = stream
            .iter()
            .map(|e| {
                elem.event_types
                    .iter()
                    .any(|t| t.to_lowercase() == e.type_name().to_lowercase())
            })
            .collect();
        if elem.negated {
            // The positives before this slot end at index `before - 1`;
            // the next positive after it has index `before`.
            let before = query.pattern.elements[..slot]
                .iter()
                .filter(|e| !e.negated)
                .count();
            oracle.negations.push(Negation {
                var: &elem.variable,
                fits,
                after: before
                    .checked_sub(1)
                    .expect("a negated component has a positive one before it"),
                before,
                conjuncts: Vec::new(),
            });
        } else {
            oracle.positives.push(Positive {
                var: &elem.variable,
                fits,
                conjuncts: Vec::new(),
            });
        }
    }
    assert!(
        oracle
            .negations
            .iter()
            .all(|n| n.before < oracle.positives.len()),
        "a negated component has a positive one after it"
    );
    for conjunct in query.where_clause.iter().flat_map(|w| w.conjuncts()) {
        oracle.classify(conjunct);
    }

    let mut out = Vec::new();
    oracle.extend(&mut Vec::new(), 0, &mut out);
    out
}

/// A positive component: which stream events have one of its types, and
/// the conjuncts whose last-bound variable it is.
struct Positive<'q> {
    var: &'q str,
    fits: Vec<bool>,
    conjuncts: Vec<&'q Expr>,
}

/// A negated component: which stream events have one of its types, the
/// positive components on either side (as positive indices), and the
/// conjuncts that name it.
struct Negation<'q> {
    var: &'q str,
    fits: Vec<bool>,
    after: usize,
    before: usize,
    conjuncts: Vec<&'q Expr>,
}

struct Oracle<'q, 's> {
    stream: &'s [Event],
    window: Option<u64>,
    positives: Vec<Positive<'q>>,
    negations: Vec<Negation<'q>>,
    /// The attributes of every `[attr]` conjunct.
    equivalences: Vec<&'q str>,
    /// The `RETURN` expressions the oracle evaluates.
    returns: Vec<&'q Expr>,
}

impl<'q, 's> Oracle<'q, 's> {
    fn classify(&mut self, conjunct: &'q Expr) {
        if let Expr::Equivalence(attr) = conjunct {
            self.equivalences.push(attr);
            return;
        }
        let mut vars = Vec::new();
        conjunct.referenced_vars(&mut vars);
        let negated: Vec<usize> = (0..self.negations.len())
            .filter(|&n| vars.iter().any(|v| v == self.negations[n].var))
            .collect();
        match negated[..] {
            [] => {
                // Checked once every variable it names is bound; a constant
                // conjunct with the first component.
                let last = vars
                    .iter()
                    .map(|v| {
                        self.positives
                            .iter()
                            .position(|p| p.var == v)
                            .unwrap_or_else(|| panic!("unknown variable `{v}` in `{conjunct}`"))
                    })
                    .max()
                    .unwrap_or(0);
                self.positives[last].conjuncts.push(conjunct);
            }
            [n] => self.negations[n].conjuncts.push(conjunct),
            _ => panic!("`{conjunct}` names two negated components"),
        }
    }

    /// Bind positive component `tuple.len()` to every fitting event from
    /// stream index `from` on, and recurse.
    fn extend(&self, tuple: &mut Vec<&'s Event>, from: usize, out: &mut Vec<Vec<Event>>) {
        let k = tuple.len();
        if k == self.positives.len() {
            let binding = self.binding(tuple, None);
            if (self.negations.iter()).all(|n| !self.has_counterexample(n, tuple))
                && self.returns.iter().all(|e| eval(e, &binding).is_ok())
            {
                out.push(tuple.iter().map(|e| (*e).clone()).collect());
            }
            return;
        }
        for (i, event) in self.stream.iter().enumerate().skip(from) {
            if let Some(&first) = tuple.first() {
                if self
                    .window
                    .is_some_and(|w| event.timestamp() - first.timestamp() > w)
                {
                    break;
                }
                if event.timestamp() <= tuple[k - 1].timestamp() {
                    continue;
                }
            }
            if !self.positives[k].fits[i] {
                continue;
            }
            tuple.push(event);
            if self.prefix_holds(tuple) {
                self.extend(tuple, i + 1, out);
            }
            tuple.pop();
        }
    }

    /// The conjuncts that the newest event of `tuple` completes, and every
    /// `[attr]` between it and the events before it.
    fn prefix_holds(&self, tuple: &[&Event]) -> bool {
        let k = tuple.len() - 1;
        let binding = self.binding(tuple, None);
        self.positives[k]
            .conjuncts
            .iter()
            .all(|c| holds(c, &binding))
            && self.equivalences.iter().all(|attr| {
                tuple[..k]
                    .iter()
                    .all(|e| agree(e.attr(attr), tuple[k].attr(attr)))
            })
    }

    /// Is there an event strictly between the flanking positives of `neg`
    /// that `neg` would bind?
    fn has_counterexample(&self, neg: &Negation<'q>, tuple: &[&Event]) -> bool {
        let (lo, hi) = (tuple[neg.after].timestamp(), tuple[neg.before].timestamp());
        self.stream.iter().enumerate().any(|(i, e)| {
            neg.fits[i]
                && lo < e.timestamp()
                && e.timestamp() < hi
                && neg
                    .conjuncts
                    .iter()
                    .all(|c| holds(c, &self.binding(tuple, Some((neg.var, e)))))
                && self.equivalences.iter().all(|attr| match e.attr(attr) {
                    None => true,
                    own => tuple.iter().all(|p| agree(p.attr(attr), own.clone())),
                })
        })
    }

    fn binding<'b>(
        &self,
        tuple: &[&'b Event],
        negated: Option<(&'q str, &'b Event)>,
    ) -> Vec<(&'q str, &'b Event)> {
        self.positives
            .iter()
            .map(|p| p.var)
            .zip(tuple.iter().copied())
            .chain(negated)
            .collect()
    }
}

/// Two events agree on an attribute when both have it and the values are
/// equal.
fn agree(a: Option<Value>, b: Option<Value>) -> bool {
    matches!((a, b), (Some(a), Some(b)) if a.sase_eq(&b))
}

/// A conjunct's truth under a binding of variables to events: false when
/// it fails to evaluate.
fn holds(conjunct: &Expr, binding: &[(&str, &Event)]) -> bool {
    match eval(conjunct, binding) {
        Ok(Value::Bool(b)) => b,
        Ok(other) => panic!("`{conjunct}` evaluated to {other}, not a boolean"),
        Err(_) => false,
    }
}

/// The value of an expression under a binding: attributes are read off the
/// bound events, operators are `Value`'s, `AND`/`OR` short-circuit and treat
/// anything but `true` as false, an ordering between values of kinds that
/// do not compare is false, and a call runs the stdlib function of that
/// name (their bodies are pinned by `sase-core`'s `functions` unit tests).
pub fn eval(expr: &Expr, binding: &[(&str, &Event)]) -> Result<Value, String> {
    Ok(match expr {
        Expr::Literal(v) => v.clone(),
        Expr::Attr(a) => {
            let (_, event) = binding
                .iter()
                .find(|(var, _)| *var == a.var)
                .ok_or_else(|| format!("`{}` is not bound", a.var))?;
            event
                .attr(&a.attr)
                .ok_or_else(|| format!("`{}` has no attribute `{}`", event.type_name(), a.attr))?
        }
        Expr::Equivalence(attr) => return Err(format!("[{attr}] is only defined as a conjunct")),
        Expr::Unary { op, expr } => match (op, eval(expr, binding)?) {
            (UnaryOp::Not, Value::Bool(b)) => Value::Bool(!b),
            (UnaryOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
            (UnaryOp::Neg, Value::Float(x)) => Value::Float(-x),
            (op, v) => return Err(format!("{op:?} of {v}")),
        },
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => Value::Bool(eval(left, binding)?.is_true() && eval(right, binding)?.is_true()),
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => Value::Bool(eval(left, binding)?.is_true() || eval(right, binding)?.is_true()),
        Expr::Binary { op, left, right } => {
            let (l, r) = (eval(left, binding)?, eval(right, binding)?);
            let order =
                |want: &[Ordering]| Value::Bool(l.sase_cmp(&r).is_some_and(|o| want.contains(&o)));
            let arith = |v: sase::core::Result<Value>| v.map_err(|e| e.to_string());
            match op {
                BinOp::Eq => Value::Bool(l.sase_eq(&r)),
                BinOp::Ne => Value::Bool(!l.sase_eq(&r)),
                BinOp::Lt => order(&[Ordering::Less]),
                BinOp::Le => order(&[Ordering::Less, Ordering::Equal]),
                BinOp::Gt => order(&[Ordering::Greater]),
                BinOp::Ge => order(&[Ordering::Greater, Ordering::Equal]),
                BinOp::Add => arith(l.add(&r))?,
                BinOp::Sub => arith(l.sub(&r))?,
                BinOp::Mul => arith(l.mul(&r))?,
                BinOp::Div => arith(l.div(&r))?,
                BinOp::Rem => arith(l.rem(&r))?,
                BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
            }
        }
        Expr::Call { name, args } => {
            let func = FunctionRegistry::with_stdlib()
                .resolve(name)
                .map_err(|_| format!("host function `{name}` is not modelled"))?;
            let args = args
                .iter()
                .map(|a| eval(a, binding))
                .collect::<Result<Vec<_>, _>>()?;
            func.call(&args).map_err(|e| e.to_string())?
        }
    })
}
