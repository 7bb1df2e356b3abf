//! The query planner: AST → [`QueryPlan`].

use std::sync::Arc;

use crate::analyze::{analyze_with, Diagnostic, Severity};
use crate::error::{Result, SaseError};
use crate::event::SchemaRegistry;
use crate::expr::CompiledExpr;
use crate::functions::FunctionRegistry;
use crate::lang::ast::{AggArg, Query, ReturnItem};
use crate::lang::parse_query;
use crate::pattern::CompiledPattern;
use crate::time::TimeScale;

use super::analysis::{analyze_where, negation_partition_attrs};
use super::{CompiledAggArg, CompiledReturnItem, NegationPlan, QueryPlan, ReturnPlan};

/// Compiles parsed queries into executable plans.
///
/// A planner borrows the schema registry and function registry the engine
/// owns; it is cheap to construct per compilation.
#[derive(Debug, Clone)]
pub struct Planner {
    registry: SchemaRegistry,
    functions: FunctionRegistry,
    time_scale: TimeScale,
}

impl Planner {
    /// Create a planner over the given registries.
    pub fn new(registry: SchemaRegistry, functions: FunctionRegistry) -> Self {
        Planner {
            registry,
            functions,
            time_scale: TimeScale::default(),
        }
    }

    /// Use a non-default logical time scale for WITHIN conversion.
    pub fn with_time_scale(mut self, scale: TimeScale) -> Self {
        self.time_scale = scale;
        self
    }

    /// Plan a query.
    pub fn plan(&self, query: &Query) -> Result<QueryPlan> {
        let pattern = Arc::new(CompiledPattern::compile(&query.pattern, &self.registry)?);

        let analysis = analyze_where(
            query.where_clause.as_ref(),
            &pattern,
            &self.registry,
            &self.functions,
        )?;

        let window = query.within.map(|w| w.to_logical(self.time_scale));
        if let Some(0) = window {
            return Err(SaseError::plan(
                "WITHIN window of zero logical units can never match a multi-event \
                 sequence; check the time scale",
            ));
        }

        // Assemble negation plans in pattern order.
        let mut negations: Vec<NegationPlan> = pattern
            .negations
            .iter()
            .enumerate()
            .map(|(ni, scope)| {
                let elem = &pattern.elements[scope.slot];
                NegationPlan {
                    scope: *scope,
                    type_ids: elem.type_ids.clone(),
                    filters: analysis.element_filters[scope.slot].clone(),
                    checks: analysis.negation_checks[ni].clone(),
                    partition_attrs: None,
                }
            })
            .collect();
        negation_partition_attrs(&pattern, analysis.partition.as_ref(), &mut negations);

        let return_plan = self.compile_return(query, &pattern)?;

        let routing_keys = analysis
            .partition
            .iter()
            .flat_map(|spec| super::routing_keys(spec, &pattern, &self.registry))
            .filter_map(|verdict| verdict.ok())
            .collect();

        Ok(QueryPlan {
            query: query.clone(),
            pattern,
            window,
            partition: analysis.partition,
            routing_keys,
            element_filters: analysis.element_filters,
            construction_filters: analysis.construction_filters,
            negations,
            return_plan,
        })
    }

    fn compile_return(&self, query: &Query, pattern: &CompiledPattern) -> Result<ReturnPlan> {
        let Some(rc) = &query.return_clause else {
            return Ok(ReturnPlan::default());
        };
        let slots = pattern.slot_table();
        let mut items = Vec::with_capacity(rc.items.len());
        for (i, item) in rc.items.iter().enumerate() {
            let default_name = |text: String| -> Arc<str> { Arc::from(text.as_str()) };
            match item {
                ReturnItem::Scalar { expr, alias } => {
                    // RETURN may reference only positive components: a
                    // negated component has no bound event in a match.
                    let mut vars = Vec::new();
                    expr.referenced_vars(&mut vars);
                    for v in &vars {
                        if let Some(e) = pattern.elem_for_var(v) {
                            if e.negated {
                                return Err(SaseError::semantic(format!(
                                    "RETURN references `{v}`, which is bound by a negated \
                                     component and has no event in a match"
                                )));
                            }
                        }
                    }
                    let compiled = CompiledExpr::compile(expr, &slots[..], &self.functions)?;
                    let program = crate::program::PredicateProgram::from_expr(
                        compiled,
                        pattern,
                        &self.registry,
                    )?;
                    let name = alias
                        .as_deref()
                        .map(Arc::from)
                        .unwrap_or_else(|| default_name(expr.to_string()));
                    items.push(CompiledReturnItem::Scalar {
                        name,
                        expr: program,
                    });
                }
                ReturnItem::Aggregate { func, arg, alias } => {
                    let compiled_arg = match arg {
                        AggArg::Star => CompiledAggArg::Star,
                        AggArg::Attr(a) => CompiledAggArg::AttrAll(Arc::from(a.as_str())),
                        AggArg::VarAttr(r) => {
                            let elem = pattern.elem_for_var(&r.var).ok_or_else(|| {
                                SaseError::semantic(format!(
                                    "unknown pattern variable `{}` in aggregate",
                                    r.var
                                ))
                            })?;
                            if elem.negated {
                                return Err(SaseError::semantic(format!(
                                    "aggregate references negated component `{}`",
                                    r.var
                                )));
                            }
                            CompiledAggArg::Slot {
                                slot: elem.slot,
                                attr: Arc::from(r.attr.as_str()),
                            }
                        }
                    };
                    let name = alias
                        .as_deref()
                        .map(Arc::from)
                        .unwrap_or_else(|| default_name(format!("{}#{i}", func.as_str())));
                    items.push(CompiledReturnItem::Aggregate {
                        name,
                        func: *func,
                        arg: compiled_arg,
                    });
                }
            }
        }
        // An INTO stream makes the output re-ingestable as first-class
        // events ("It can also name the output stream and the type of
        // events in the output", §2.1.1). Downstream queries address the
        // columns as attributes, so every column name must be a plain
        // identifier — aliases make that so.
        if rc.into.is_some() {
            for item in &items {
                let name = item.name();
                let valid = !name.is_empty()
                    && !name.starts_with(|c: char| c.is_ascii_digit())
                    && name.chars().all(|c| c == '_' || c.is_alphanumeric());
                if !valid {
                    return Err(SaseError::semantic(format!(
                        "RETURN ... INTO requires identifier column names; \
                         `{name}` is not one — add `AS <name>`"
                    )));
                }
            }
        }
        Ok(ReturnPlan {
            items,
            into: rc.into.as_deref().map(Arc::from),
        })
    }
}

/// The one registration front end: parse `src`, pass each analyzer
/// diagnostic to `on_diagnostic` if given (metrics count them by severity),
/// then plan. Failures are [`SaseError::Registration`]s; a planner failure
/// carries the analyzer's lint code (the sole analysis without a callback).
pub fn compile_query(
    name: &str,
    src: &str,
    registry: &SchemaRegistry,
    functions: &FunctionRegistry,
    scale: TimeScale,
    on_diagnostic: Option<impl FnMut(&Diagnostic)>,
) -> Result<QueryPlan> {
    let query = parse_query(src).map_err(|e| SaseError::registration(name, None, e.to_string()))?;
    let analyze = || analyze_with(&query, registry, functions, scale);
    let diags: Option<Vec<_>> = on_diagnostic.map(|f| analyze().into_iter().inspect(f).collect());
    let planner = Planner::new(registry.clone(), functions.clone()).with_time_scale(scale);
    planner.plan(&query).map_err(|e| {
        let code = diags
            .unwrap_or_else(analyze)
            .into_iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| d.code.to_string());
        SaseError::registration(name, code, e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;

    fn planner() -> Planner {
        Planner::new(retail_registry(), FunctionRegistry::with_stdlib())
    }

    const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z)\n\
                      WHERE x.TagId = y.TagId AND x.TagId = z.TagId\n\
                      WITHIN 12 hours\n\
                      RETURN x.TagId, x.ProductName, z.AreaId";

    #[test]
    fn compile_query_counts_diagnostics_and_codes_planner_failures() {
        let (reg, funcs) = (retail_registry(), FunctionRegistry::with_stdlib());
        let compile = |src: &str, on: Option<&mut dyn FnMut(&Diagnostic)>| {
            compile_query("q", src, &reg, &funcs, TimeScale::default(), on)
        };
        let bad = "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.Nope = z.TagId WITHIN 9";
        let mut seen = Vec::new();
        let counted = compile(bad, Some(&mut |d| seen.push(d.code))).unwrap_err();
        let lazy = compile(bad, None).unwrap_err();
        // The lint code is the same whether or not the analyzer ran up front.
        let code = counted
            .diagnostic_code()
            .expect("planner failure carries a code");
        assert_eq!(counted.to_string(), lazy.to_string());
        assert!(seen.contains(&code), "{code} in {seen:?}");
        assert!(compile(Q1, None).is_ok());
        assert!(compile("EVENT SEQ(", None)
            .unwrap_err()
            .diagnostic_code()
            .is_none());
    }

    #[test]
    fn q1_plans_with_partition_and_negation() {
        let q = parse_query(Q1).unwrap();
        let plan = planner().plan(&q).unwrap();
        assert_eq!(plan.window, Some(43_200));
        assert!(plan.partition.is_some());
        assert_eq!(plan.negations.len(), 1);
        // Negation store can be indexed: the partition covers slot 1.
        assert!(plan.negations[0].partition_attrs.is_some());
        assert_eq!(plan.return_plan.items.len(), 3);
        let explain = plan.explain();
        assert!(explain.contains("PAIS"));
        assert!(explain.contains("pushed into sequence scan"));
    }

    #[test]
    fn time_scale_changes_window() {
        let q = parse_query(Q1).unwrap();
        let plan = planner()
            .with_time_scale(TimeScale::new(10))
            .plan(&q)
            .unwrap();
        assert_eq!(plan.window, Some(432_000));
    }

    #[test]
    fn return_on_negated_component_rejected() {
        let q = parse_query(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WITHIN 5 RETURN y.TagId",
        )
        .unwrap();
        let err = planner().plan(&q).unwrap_err();
        assert!(err.to_string().contains("negated"));
    }

    #[test]
    fn aggregate_compilation() {
        let q = parse_query(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 10 \
             RETURN count(*), sum(TagId), avg(x.AreaId) AS a",
        )
        .unwrap();
        let plan = planner().plan(&q).unwrap();
        assert_eq!(plan.return_plan.items.len(), 3);
        assert_eq!(plan.return_plan.items[2].name().as_ref(), "a");
    }

    #[test]
    fn default_column_names_use_expression_text() {
        let q = parse_query("EVENT SHELF_READING x RETURN x.TagId, x.AreaId + 1").unwrap();
        let plan = planner().plan(&q).unwrap();
        assert_eq!(plan.return_plan.items[0].name().as_ref(), "x.TagId");
        assert_eq!(plan.return_plan.items[1].name().as_ref(), "x.AreaId + 1");
    }

    #[test]
    fn zero_window_rejected() {
        let q = parse_query("EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 0").unwrap();
        assert!(planner().plan(&q).is_err());
    }

    #[test]
    fn unknown_return_function_rejected() {
        let q = parse_query("EVENT SHELF_READING x RETURN _nope(x.TagId)").unwrap();
        assert!(planner().plan(&q).is_err());
    }
}
