//! The transformation operator: RETURN evaluation.
//!
//! "The RETURN clause transforms the stream of composite events for final
//! output. It can select a subset of attributes and compute aggregate
//! values like the SELECT clause of SQL. ... It can further invoke database
//! operations for retrieval and update." (§2.1.1)
//!
//! Database operations surface here as resolved built-in function calls
//! inside the compiled scalar expressions — the engine invokes them exactly
//! once per emitted composite event, which is what makes Q2-style
//! `_updateLocation(...)` rules safe to register.
//!
//! Only a match that survived negation reaches this operator, its events
//! already moved into the one shared slice its emission keeps. The RETURN
//! values are evaluated into the caller's reused buffer and moved into a
//! second shared slice, so an emission is exactly two allocations.

use std::sync::Arc;

use crate::error::{Result, SaseError};
use crate::event::Event;
use crate::lang::ast::AggFunc;
use crate::output::ComplexEvent;
use crate::plan::{CompiledAggArg, CompiledReturnItem, QueryPlan};
use crate::value::Value;

use super::binding::MatchBinding;

/// Evaluate the RETURN clause of `plan` over a positive match — one event
/// per positive component, in pattern order — producing the output
/// composite event, which keeps `events` as its body. `values` is a
/// scratch buffer the caller reuses across calls; it is left empty.
pub fn transform(
    plan: &QueryPlan,
    query_name: &Arc<str>,
    events: Arc<[Event]>,
    values: &mut Vec<(Arc<str>, Value)>,
) -> Result<ComplexEvent> {
    let binding = MatchBinding::new(&plan.pattern, &events);
    values.clear();
    for item in &plan.return_plan.items {
        let value = match item {
            CompiledReturnItem::Scalar { expr, .. } => expr.eval(&binding)?,
            CompiledReturnItem::Aggregate { func, arg, .. } => {
                aggregate(plan, &events, *func, arg)?
            }
        };
        values.push((item.name().clone(), value));
    }
    Ok(ComplexEvent {
        query: query_name.clone(),
        variables: plan.pattern.positive_variables.clone(),
        detected_at: events.last().map_or(0, Event::timestamp),
        events,
        values: values.drain(..).collect(),
        into: plan.return_plan.into.clone(),
    })
}

fn aggregate(plan: &QueryPlan, m: &[Event], func: AggFunc, arg: &CompiledAggArg) -> Result<Value> {
    // Collect the values the aggregate ranges over.
    let values: Vec<Value> = match arg {
        CompiledAggArg::Star => {
            return match func {
                AggFunc::Count => Ok(Value::Int(m.len() as i64)),
                _ => Err(SaseError::eval("only count accepts `*`")),
            }
        }
        CompiledAggArg::AttrAll(attr) => m.iter().filter_map(|e| e.attr(attr)).collect(),
        CompiledAggArg::Slot { slot, attr } => {
            let elem = &plan.pattern.elements[*slot];
            let e = &m[elem.positive_index];
            e.attr(attr).into_iter().collect()
        }
    };
    if values.is_empty() {
        return Err(SaseError::eval(format!(
            "aggregate {} has no input values (attribute missing on every event)",
            func.as_str()
        )));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            let mut acc = values[0].clone();
            for v in &values[1..] {
                acc = acc.add(v)?;
            }
            Ok(acc)
        }
        AggFunc::Avg => {
            let mut sum = 0.0;
            for v in &values {
                sum += v.as_float().ok_or_else(|| {
                    SaseError::eval(format!(
                        "avg over non-numeric value {v} ({})",
                        v.value_type()
                    ))
                })?;
            }
            Ok(Value::Float(sum / values.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best = values[0].clone();
            for v in &values[1..] {
                let o = v.sase_cmp(&best).ok_or_else(|| {
                    SaseError::eval(format!(
                        "cannot compare {} with {} in {}",
                        v.value_type(),
                        best.value_type(),
                        func.as_str()
                    ))
                })?;
                let take = if func == AggFunc::Min {
                    o == std::cmp::Ordering::Less
                } else {
                    o == std::cmp::Ordering::Greater
                };
                if take {
                    best = v.clone();
                }
            }
            Ok(best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{retail_registry, SchemaRegistry};
    use crate::functions::FunctionRegistry;
    use crate::lang::parse_query;
    use crate::plan::Planner;

    fn plan_for(src: &str) -> (QueryPlan, SchemaRegistry) {
        let reg = retail_registry();
        let planner = Planner::new(reg.clone(), FunctionRegistry::with_stdlib());
        let q = parse_query(src).unwrap();
        (planner.plan(&q).unwrap(), reg)
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> crate::event::Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("soap"), Value::Int(area)],
        )
        .unwrap()
    }

    #[test]
    fn scalar_projection_and_functions() {
        let (plan, reg) = plan_for(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 100 \
             RETURN x.TagId, z.AreaId AS exit_area, _concat(x.ProductName, '!')",
        );
        let m = vec![
            ev(&reg, "SHELF_READING", 1, 7, 2),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        let ce = transform(&plan, &Arc::from("q"), m.into(), &mut Vec::new()).unwrap();
        assert_eq!(ce.value("x.TagId"), Some(&Value::Int(7)));
        assert_eq!(ce.value("exit_area"), Some(&Value::Int(4)));
        assert_eq!(
            ce.value("_concat(x.ProductName, '!')"),
            Some(&Value::str("soap!"))
        );
        assert_eq!(ce.detected_at, 5);
        assert_eq!(ce.variables.len(), 2);
    }

    #[test]
    fn aggregates_over_match() {
        let (plan, reg) = plan_for(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 100 \
             RETURN count(*) AS n, sum(AreaId) AS areas, avg(AreaId) AS avg_area, \
             min(timestamp) AS t0, max(timestamp) AS t1, sum(x.TagId) AS xtag",
        );
        let m = vec![
            ev(&reg, "SHELF_READING", 1, 7, 2),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        let ce = transform(&plan, &Arc::from("q"), m.into(), &mut Vec::new()).unwrap();
        assert_eq!(ce.value("n"), Some(&Value::Int(2)));
        assert_eq!(ce.value("areas"), Some(&Value::Int(6)));
        assert_eq!(ce.value("avg_area"), Some(&Value::Float(3.0)));
        assert_eq!(ce.value("t0"), Some(&Value::Int(1)));
        assert_eq!(ce.value("t1"), Some(&Value::Int(5)));
        assert_eq!(ce.value("xtag"), Some(&Value::Int(7)));
    }

    #[test]
    fn empty_return_clause_produces_bare_composite() {
        let (plan, reg) = plan_for("EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 100");
        let m = vec![
            ev(&reg, "SHELF_READING", 1, 7, 2),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        let ce = transform(&plan, &Arc::from("q"), m.into(), &mut Vec::new()).unwrap();
        assert!(ce.values.is_empty());
        assert_eq!(ce.events.len(), 2);
    }

    #[test]
    fn missing_aggregate_attr_errors() {
        let (plan, reg) =
            plan_for("EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 100 RETURN sum(Missing)");
        let m = vec![
            ev(&reg, "SHELF_READING", 1, 7, 2),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        assert!(transform(&plan, &Arc::from("q"), m.into(), &mut Vec::new()).is_err());
    }

    #[test]
    fn into_stream_propagates() {
        let (plan, reg) = plan_for("EVENT SHELF_READING x RETURN x.TagId AS tag INTO shelf_out");
        let m = vec![ev(&reg, "SHELF_READING", 1, 7, 2)];
        let ce = transform(&plan, &Arc::from("q"), m.into(), &mut Vec::new()).unwrap();
        assert_eq!(ce.into.as_deref(), Some("shelf_out"));
    }
}
