//! Plan-time static analysis of SASE queries.
//!
//! The engine accepts any query the planner can compile, but a compilable
//! query is not necessarily a *useful* one: a predicate comparing a string
//! attribute to an integer silently never matches, `x.p > 5 AND x.p < 3`
//! is dead on arrival, and a query that misses the data-parallel coverage
//! rules quietly pins to one worker under
//! `ShardingMode::ByPartitionKey`. [`analyze`] runs over the parsed AST
//! and the compiled [`QueryPlan`] and reports such defects as typed
//! [`Diagnostic`]s before the query is registered.
//!
//! Four analysis families are implemented:
//!
//! 1. **Schema / type checking** (`SA001`–`SA003`): every `var.attr`
//!    reference is resolved against the candidate event-type schemas, and
//!    operand types are checked under the engine's coercion rules.
//! 2. **Unsatisfiability** (`SA004`–`SA009`): constant folding plus
//!    interval/equality propagation over the compiled predicate trees.
//!    A contradiction among the positive-side conjuncts means the query
//!    can never emit a match.
//! 3. **Routing / scaling lints** (`SA020`–`SA025`): explain *why* a
//!    query pins to the designated worker under
//!    `ShardingMode::ByPartitionKey` instead of distributing.
//! 4. **Cross-query lints** (`SA030`–`SA032`, via [`cross_query`]):
//!    duplicate plans, unconsumed `INTO` streams, and `FROM` streams
//!    without a registered producer.
//!
//! Soundness contract: a query flagged with an error-severity diagnostic
//! from family 2 provably emits no matches; conversely, [`analyze`] never
//! flags a satisfiable predicate as unsatisfiable (the propagation is
//! deliberately conservative — it reasons only with the engine's own
//! comparison semantics). Registration failures the planner would report
//! surface as `SA000`, so a query with no error-severity diagnostics
//! registers successfully.

use std::fmt;
use std::sync::Arc;

use crate::error::Span;
use crate::event::{Schema, SchemaRegistry};
use crate::expr::CompiledExpr;
use crate::functions::FunctionRegistry;
use crate::lang::ast::{AggArg, AttrRef, BinOp, Expr, PatternElem, Query, ReturnItem, UnaryOp};
use crate::lang::parse_query;
use crate::plan::{routing_keys, Planner, QueryPlan, RoutingRejection};
use crate::time::TimeScale;
use crate::value::{Value, ValueType};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, not actionable by itself.
    Info,
    /// The query registers and runs, but almost certainly not as intended
    /// (partial attribute coverage, dead OR branch, pinned routing).
    Warning,
    /// The query is broken: it cannot register, can never match, or a
    /// predicate can never hold.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Stable lint code (`SA0xx`); suitable for suppression lists and
    /// machine consumption.
    pub code: &'static str,
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte range of the offending source text, when known.
    pub span: Option<Span>,
    /// A suggested fix, when the analyzer has one.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    fn new(severity: Severity, code: &'static str, message: String) -> Self {
        Diagnostic {
            severity,
            code,
            message,
            span: None,
            suggestion: None,
        }
    }

    fn with_span(mut self, span: Span) -> Self {
        if !span.is_unknown() {
            self.span = Some(span);
        }
        self
    }

    fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = &self.span {
            write!(f, " [{span}]")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// Analyze a query against a schema registry using the standard library
/// function set and the default time scale.
///
/// Returns diagnostics sorted most-severe-first. An empty result means the
/// analyzer found nothing to report and the query will register.
pub fn analyze(query: &Query, registry: &SchemaRegistry) -> Vec<Diagnostic> {
    analyze_with(
        query,
        registry,
        &FunctionRegistry::with_stdlib(),
        TimeScale::default(),
    )
}

/// [`analyze`] with an explicit function registry and time scale — use
/// this when the deployment registers custom host functions or a
/// non-default time conversion.
pub fn analyze_with(
    query: &Query,
    registry: &SchemaRegistry,
    functions: &FunctionRegistry,
    scale: TimeScale,
) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        query,
        registry,
        diags: Vec::new(),
    };
    a.check_attributes();
    a.check_types();

    let vacuous_window = query
        .within
        .as_ref()
        .is_some_and(|w| w.to_logical(scale) == 0);
    if vacuous_window {
        a.diags.push(Diagnostic::new(
            Severity::Error,
            "SA007",
            format!(
                "WITHIN {} spans zero logical time units at the configured \
                 time scale; no two events can ever fall inside the window",
                query.within.as_ref().expect("checked above")
            ),
        ));
    }

    let planner = Planner::new(registry.clone(), functions.clone()).with_time_scale(scale);
    match planner.plan(query) {
        Ok(plan) => {
            a.check_satisfiability(&plan);
            a.check_routing(&plan, functions);
        }
        Err(e) => {
            // A vacuous window is already reported with more context above;
            // everything else the planner rejects surfaces as SA000 so that
            // "no error diagnostics" implies "registration succeeds".
            if !vacuous_window {
                a.diags.push(Diagnostic::new(
                    Severity::Error,
                    "SA000",
                    format!("registration would fail: {e}"),
                ));
            }
        }
    }

    let mut diags = a.diags;
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// Analyze raw query text: parse failures become an `SA000` diagnostic
/// instead of an error, so callers get a uniform diagnostics stream.
pub fn analyze_src(
    src: &str,
    registry: &SchemaRegistry,
    functions: &FunctionRegistry,
    scale: TimeScale,
) -> Vec<Diagnostic> {
    match parse_query(src) {
        Ok(query) => analyze_with(&query, registry, functions, scale),
        Err(e) => vec![Diagnostic::new(
            Severity::Error,
            "SA000",
            format!("registration would fail: {e}"),
        )],
    }
}

/// Cross-query lints: relate a candidate query to the queries already
/// registered on a deployment (`existing` pairs a registered name with its
/// parsed query).
///
/// * `SA030` — the candidate is semantically identical (same normalized
///   plan text) to a registered query.
/// * `SA031` — the candidate's `INTO` stream has no registered consumer.
/// * `SA032` — the candidate's `FROM` stream has no registered producer.
pub fn cross_query(candidate: &Query, existing: &[(String, Query)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let canonical = candidate.to_string();
    for (name, q) in existing {
        if q.to_string() == canonical {
            diags.push(Diagnostic::new(
                Severity::Warning,
                "SA030",
                format!(
                    "query is semantically identical to already-registered query \
                     `{name}` (same normalized plan); it will duplicate every match"
                ),
            ));
            break;
        }
    }
    if let Some(into) = candidate
        .return_clause
        .as_ref()
        .and_then(|r| r.into.as_ref())
    {
        let consumed = existing.iter().any(|(_, q)| {
            q.from
                .as_ref()
                .is_some_and(|f| f.eq_ignore_ascii_case(into))
        });
        if !consumed {
            diags.push(Diagnostic::new(
                Severity::Warning,
                "SA031",
                format!(
                    "derived stream `{into}` (INTO) has no registered consumer; \
                     its events are produced but never read by another query"
                ),
            ));
        }
    }
    if let Some(from) = &candidate.from {
        let produced = existing.iter().any(|(_, q)| {
            q.return_clause
                .as_ref()
                .and_then(|r| r.into.as_ref())
                .is_some_and(|i| i.eq_ignore_ascii_case(from))
        });
        if !produced {
            diags.push(Diagnostic::new(
                Severity::Info,
                "SA032",
                format!(
                    "stream `{from}` (FROM) has no registered producer; events \
                     must be ingested on that stream directly"
                ),
            ));
        }
    }
    diags
}

/// Full pre-registration check of raw query text against a deployment:
/// [`analyze_src`] plus [`cross_query`] against the registered set.
pub fn check_src(
    src: &str,
    registry: &SchemaRegistry,
    functions: &FunctionRegistry,
    scale: TimeScale,
    existing: &[(String, Query)],
) -> Vec<Diagnostic> {
    let mut diags = analyze_src(src, registry, functions, scale);
    if let Ok(query) = parse_query(src) {
        diags.extend(cross_query(&query, existing));
    }
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

// ---------------------------------------------------------------------------
// The analyzer proper
// ---------------------------------------------------------------------------

struct Analyzer<'a> {
    query: &'a Query,
    registry: &'a SchemaRegistry,
    diags: Vec<Diagnostic>,
}

impl<'a> Analyzer<'a> {
    fn elem_for_var(&self, var: &str) -> Option<&'a PatternElem> {
        self.query
            .pattern
            .elements
            .iter()
            .find(|e| e.variable.eq_ignore_ascii_case(var))
    }

    fn candidate_schemas(&self, elem: &PatternElem) -> Vec<Arc<Schema>> {
        elem.event_types
            .iter()
            .filter_map(|t| self.registry.schema_by_name(t))
            .collect()
    }

    /// Static type of `var.attr`: `Some` only when every candidate type
    /// declares the attribute with one agreed type.
    fn attr_static_type(&self, elem: &PatternElem, attr: &str) -> Option<ValueType> {
        if is_timestamp_attr(attr) {
            return Some(ValueType::Int);
        }
        let schemas = self.candidate_schemas(elem);
        if schemas.is_empty() {
            return None;
        }
        let mut ty = None;
        for s in &schemas {
            match (ty, s.attr_type(attr)) {
                (_, None) => return None,
                (None, Some(t)) => ty = Some(t),
                (Some(prev), Some(t)) if prev != t => return None,
                _ => {}
            }
        }
        ty
    }

    // -- family 1a: attribute existence (SA001 / SA002) ---------------------

    fn check_attributes(&mut self) {
        let mut refs: Vec<&AttrRef> = Vec::new();
        if let Some(w) = &self.query.where_clause {
            collect_attr_refs(w, &mut refs);
        }
        if let Some(r) = &self.query.return_clause {
            for item in &r.items {
                match item {
                    ReturnItem::Scalar { expr, .. } => collect_attr_refs(expr, &mut refs),
                    ReturnItem::Aggregate {
                        arg: AggArg::VarAttr(a),
                        ..
                    } => refs.push(a),
                    ReturnItem::Aggregate { .. } => {}
                }
            }
        }
        let mut seen: Vec<(String, String)> = Vec::new();
        for r in refs {
            let key = (r.var.to_ascii_lowercase(), r.attr.to_ascii_lowercase());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            if is_timestamp_attr(&r.attr) {
                continue;
            }
            let Some(elem) = self.elem_for_var(&r.var) else {
                continue; // unknown variable: the planner rejects it (SA000)
            };
            let schemas = self.candidate_schemas(elem);
            if schemas.is_empty() {
                continue; // unknown event type: planner rejects it (SA000)
            }
            let (have, lack): (Vec<_>, Vec<_>) =
                schemas.iter().partition(|s| s.attr_type(&r.attr).is_some());
            if have.is_empty() {
                let mut d = Diagnostic::new(
                    Severity::Error,
                    "SA001",
                    format!(
                        "no candidate event type of variable `{}` has an attribute \
                         `{}` (candidates: {}); the predicate can never be evaluated",
                        r.var,
                        r.attr,
                        type_name_list(&schemas),
                    ),
                )
                .with_span(r.span);
                if let Some(best) = nearest_attr_name(&r.attr, &schemas) {
                    d = d.with_suggestion(format!("did you mean `{}.{}`?", r.var, best));
                }
                self.diags.push(d);
            } else if !lack.is_empty() {
                self.diags.push(
                    Diagnostic::new(
                        Severity::Warning,
                        "SA002",
                        format!(
                            "attribute `{}` exists on only {} of {} candidate types of \
                             ANY variable `{}`; events of {} will raise evaluation \
                             errors at run time",
                            r.attr,
                            have.len(),
                            schemas.len(),
                            r.var,
                            type_name_list(&lack),
                        ),
                    )
                    .with_span(r.span),
                );
            }
        }
    }

    // -- family 1b: operand type compatibility (SA003) ----------------------

    fn check_types(&mut self) {
        if let Some(w) = &self.query.where_clause {
            let root = self.infer(w, true);
            if let Some(t) = root {
                if t != ValueType::Bool {
                    self.diags.push(Diagnostic::new(
                        Severity::Error,
                        "SA003",
                        format!(
                            "the WHERE clause evaluates to {t}, not a boolean; \
                             every event would raise an evaluation error"
                        ),
                    ));
                }
            }
        }
        if let Some(r) = &self.query.return_clause {
            for item in &r.items {
                if let ReturnItem::Scalar { expr, .. } = item {
                    self.infer(expr, false);
                }
            }
        }
    }

    /// Infer the static type of an expression, emitting `SA003` for
    /// operand combinations the engine's coercion rules cannot reconcile.
    /// `None` means "unknown" — inference is conservative and only flags
    /// definite incompatibilities.
    ///
    /// `conj` tracks boolean polarity: true only while every enclosing
    /// connective is a top-level AND, where an always-false operand provably
    /// kills the whole predicate (error severity). Inside `OR`/`NOT` the
    /// same defect only deadens a branch, so it demotes to a warning.
    fn infer(&mut self, e: &Expr, conj: bool) -> Option<ValueType> {
        match e {
            Expr::Literal(v) => Some(v.value_type()),
            Expr::Equivalence(_) => Some(ValueType::Bool),
            Expr::Attr(a) => {
                let elem = self.elem_for_var(&a.var)?;
                self.attr_static_type(elem, &a.attr)
            }
            Expr::Unary { op, expr } => {
                let t = self.infer(expr, false);
                match op {
                    UnaryOp::Not => {
                        if let Some(t) = t {
                            if t != ValueType::Bool {
                                self.sa003(
                                    conj,
                                    expr_span(e),
                                    format!(
                                        "NOT applied to a {t} operand always raises an \
                                         evaluation error (NOT expects a boolean)"
                                    ),
                                );
                            }
                        }
                        Some(ValueType::Bool)
                    }
                    UnaryOp::Neg => match t {
                        Some(ValueType::Str) | Some(ValueType::Bool) => {
                            self.sa003(
                                conj,
                                expr_span(e),
                                format!(
                                    "unary `-` applied to a {} operand always raises \
                                     an evaluation error (expects a number)",
                                    t.expect("matched Some")
                                ),
                            );
                            None
                        }
                        other => other,
                    },
                }
            }
            Expr::Binary { op, left, right } => {
                // Only OR clears polarity: its operands can be dead without
                // killing the query. Operands of AND, comparisons, and
                // arithmetic surface their defects at this node's position.
                let operand_conj = conj && *op != BinOp::Or;
                let lt = self.infer(left, operand_conj);
                let rt = self.infer(right, operand_conj);
                match op {
                    BinOp::And | BinOp::Or => {
                        for (side, t) in [("left", lt), ("right", rt)] {
                            if let Some(t) = t {
                                if t != ValueType::Bool {
                                    self.sa003(
                                        conj && *op == BinOp::And,
                                        expr_span(e),
                                        format!(
                                            "the {side} operand of {} is a {t}; non-boolean \
                                             operands are never true, so the connective can \
                                             never make the predicate hold",
                                            op.as_str()
                                        ),
                                    );
                                }
                            }
                        }
                        Some(ValueType::Bool)
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if let (Some(lt), Some(rt)) = (lt, rt) {
                            if !lt.compares_with(rt) {
                                let (sev, verdict) = if *op == BinOp::Ne {
                                    (Severity::Warning, "always true")
                                } else if conj {
                                    (Severity::Error, "always false")
                                } else {
                                    // Inside OR/NOT the comparison only
                                    // deadens its branch, not the query.
                                    (Severity::Warning, "always false")
                                };
                                self.diags.push(
                                    Diagnostic::new(
                                        sev,
                                        "SA003",
                                        format!(
                                            "comparison `{left} {} {right}` mixes {lt} and \
                                             {rt}, which never compare under the engine's \
                                             coercion rules; the predicate is {verdict}",
                                            op.as_str()
                                        ),
                                    )
                                    .with_span(expr_span(e).unwrap_or_default()),
                                );
                            }
                        }
                        Some(ValueType::Bool)
                    }
                    BinOp::Add => match (lt, rt) {
                        (Some(ValueType::Str), Some(ValueType::Str)) => Some(ValueType::Str),
                        (Some(lt), Some(rt)) => self.arith_type(e, conj, "+", lt, rt),
                        _ => None,
                    },
                    BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        if let (Some(lt), Some(rt)) = (lt, rt) {
                            self.arith_type(e, conj, op.as_str(), lt, rt)
                        } else {
                            None
                        }
                    }
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.infer(a, false);
                }
                None
            }
        }
    }

    fn arith_type(
        &mut self,
        e: &Expr,
        conj: bool,
        op: &str,
        lt: ValueType,
        rt: ValueType,
    ) -> Option<ValueType> {
        let numeric = |t| matches!(t, ValueType::Int | ValueType::Float);
        if !numeric(lt) || !numeric(rt) {
            self.sa003(
                conj,
                expr_span(e),
                format!(
                    "arithmetic `{op}` on {lt} and {rt} operands always raises an \
                     evaluation error"
                ),
            );
            return None;
        }
        Some(if lt == ValueType::Int && rt == ValueType::Int {
            ValueType::Int
        } else {
            ValueType::Float
        })
    }

    fn sa003(&mut self, conj: bool, span: Option<Span>, message: String) {
        let severity = if conj {
            Severity::Error
        } else {
            Severity::Warning
        };
        self.diags
            .push(Diagnostic::new(severity, "SA003", message).with_span(span.unwrap_or_default()));
    }

    // -- family 2: unsatisfiability (SA004 – SA009) -------------------------

    fn check_satisfiability(&mut self, plan: &QueryPlan) {
        // Positive-side conjuncts: every element filter of a positive slot
        // and every construction filter must hold for a match to exist.
        let mut positive: Vec<&CompiledExpr> = Vec::new();
        for (slot, filters) in plan.element_filters.iter().enumerate() {
            if !plan.pattern.elements[slot].negated {
                for f in filters {
                    flatten_and(f.tree(), &mut positive);
                }
            }
        }
        for f in &plan.construction_filters {
            flatten_and(f.expr.tree(), &mut positive);
        }

        let mut domains = DomainMap::default();
        let mut dead_branches: Vec<String> = Vec::new();
        let mut contradiction = None;
        for atom in &positive {
            if let Some(c) = apply_atom(atom, &mut domains, &mut dead_branches) {
                contradiction = Some(c);
                break;
            }
        }
        if let Some(c) = contradiction {
            self.diags.push(
                Diagnostic::new(
                    Severity::Error,
                    c.code,
                    format!("{}; the query can never emit a match", c.message),
                )
                .with_span(self.span_for(&c).unwrap_or_default()),
            );
        }
        for b in dead_branches {
            self.diags.push(Diagnostic::new(
                Severity::Warning,
                "SA009",
                format!("OR branch `{b}` is always false; the disjunction reduces to the remaining branches"),
            ));
        }

        // Negation-side conjuncts: a contradiction here does not kill the
        // query — it makes the `!(...)` component vacuous (it never
        // suppresses a match), which is almost certainly unintended.
        for (ni, neg) in plan.negations.iter().enumerate() {
            let slot = neg.scope.slot;
            let mut atoms: Vec<&CompiledExpr> = Vec::new();
            for f in plan.element_filters.get(slot).into_iter().flatten() {
                flatten_and(f.tree(), &mut atoms);
            }
            for f in neg.filters.iter().chain(neg.checks.iter()) {
                flatten_and(f.tree(), &mut atoms);
            }
            let mut neg_domains = domains.clone();
            let mut scratch = Vec::new();
            for atom in &atoms {
                if let Some(c) = apply_atom(atom, &mut neg_domains, &mut scratch) {
                    let var = &plan.pattern.elements[slot].variable;
                    self.diags.push(Diagnostic::new(
                        Severity::Warning,
                        "SA008",
                        format!(
                            "the negation on `{var}` (component {ni}) can never match a \
                             counterexample ({}); the `!(...)` clause never suppresses \
                             anything",
                            c.message
                        ),
                    ));
                    break;
                }
            }
        }
    }

    /// Best-effort span for a contradiction: the first `var.attr` reference
    /// in the AST matching the constrained attribute.
    fn span_for(&self, c: &Contradiction) -> Option<Span> {
        let (var, attr) = c.anchor.as_ref()?;
        let mut refs = Vec::new();
        if let Some(w) = &self.query.where_clause {
            collect_attr_refs(w, &mut refs);
        }
        refs.iter()
            .find(|r| r.var.eq_ignore_ascii_case(var) && r.attr.eq_ignore_ascii_case(attr))
            .map(|r| r.span)
    }

    // -- family 3: routing / scaling lints (SA020 – SA025) ------------------

    fn check_routing(&mut self, plan: &QueryPlan, functions: &FunctionRegistry) {
        let stdlib = FunctionRegistry::with_stdlib();
        for f in self.query.called_functions() {
            // Only functions the deployment actually resolves matter; an
            // unknown function is a planner failure, not a routing concern.
            if stdlib.get(&f).is_none() && functions.get(&f).is_some() {
                self.diags.push(Diagnostic::new(
                    Severity::Warning,
                    "SA023",
                    format!(
                        "host function `{f}` is not part of the stdlib; under \
                         ShardingMode::ByPartitionKey the query pins to the designated \
                         worker (and co-locates with other callers of `{f}`)"
                    ),
                ));
            }
        }
        if let Some(from) = &self.query.from {
            self.diags.push(Diagnostic::new(
                Severity::Warning,
                "SA024",
                format!(
                    "the query consumes derived stream `{from}` (FROM); it must be \
                     co-located with its producer, so under ShardingMode::ByPartitionKey \
                     it pins to the designated worker"
                ),
            ));
        }
        if let Some(into) = &plan.return_plan.into {
            self.diags.push(Diagnostic::new(
                Severity::Warning,
                "SA024",
                format!(
                    "the query produces derived stream `{into}` (INTO); it must be \
                     co-located with its consumers, so under ShardingMode::ByPartitionKey \
                     it pins to the designated worker"
                ),
            ));
        }
        match &plan.partition {
            None => {
                self.diags.push(Diagnostic::new(
                    Severity::Warning,
                    "SA020",
                    "no partition key: no equivalence predicate (e.g. `[TagId]` or \
                     `x.a = y.a` covering every positive component) was found, so under \
                     ShardingMode::ByPartitionKey the query pins to the designated worker"
                        .to_string(),
                ));
            }
            Some(spec) if plan.routing_keys.is_empty() => {
                for rej in routing_keys(spec, &plan.pattern, self.registry)
                    .filter_map(|verdict| verdict.err())
                {
                    self.diags.push(self.routing_rejection_diag(&rej));
                }
            }
            Some(_) => {}
        }
    }

    fn routing_rejection_diag(&self, rej: &RoutingRejection) -> Diagnostic {
        match rej {
            RoutingRejection::UncoveredSlot { var, negated } => Diagnostic::new(
                Severity::Warning,
                "SA021",
                format!(
                    "partition key does not cover the {} component `{var}`; a \
                     counterexample routed to another shard could not veto its match, \
                     so under ShardingMode::ByPartitionKey the query pins",
                    if *negated { "negated" } else { "positive" },
                ),
            ),
            RoutingRejection::DynamicAttr { type_name, attr } => Diagnostic::new(
                Severity::Warning,
                "SA022",
                format!(
                    "partition-key attribute `{attr}` has no fixed position on event \
                     type `{type_name}` (dynamic resolution); routing cannot extract it \
                     infallibly, so under ShardingMode::ByPartitionKey the query pins"
                ),
            ),
            RoutingRejection::ConflictingAttrs {
                type_name,
                first,
                second,
            } => Diagnostic::new(
                Severity::Warning,
                "SA025",
                format!(
                    "event type `{type_name}` is asked for two different partition-key \
                     attributes (`{first}` and `{second}`); the router sees an event, \
                     not a slot, so under ShardingMode::ByPartitionKey the query pins"
                ),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Interval / equality propagation over compiled predicate trees
// ---------------------------------------------------------------------------

/// A contradiction found among conjuncts.
struct Contradiction {
    code: &'static str,
    message: String,
    /// `(var, attr)` the contradiction is about, for span recovery.
    anchor: Option<(String, String)>,
}

/// Accumulated constraints on one `(slot, attr)` pair. All reasoning uses
/// the engine's own comparison semantics (`sase_eq` / `sase_cmp`), so a
/// reported contradiction is a proof that no event value satisfies every
/// conjunct simultaneously.
#[derive(Debug, Clone, Default)]
struct Domain {
    /// The type of the first literal constrained against; every later
    /// literal must compare with it ([`ValueType::compares_with`]).
    class: Option<ValueType>,
    eq: Option<Value>,
    ne: Vec<Value>,
    lower: Option<(Value, bool)>,
    upper: Option<(Value, bool)>,
}

impl Domain {
    /// Record `x <op> lit`; `Some(code)` on contradiction.
    fn constrain(&mut self, op: BinOp, lit: &Value) -> Option<&'static str> {
        match op {
            BinOp::Ne => {
                if let Some(eq) = &self.eq {
                    if eq.sase_eq(lit) {
                        return Some("SA005");
                    }
                }
                self.ne.push(lit.clone());
                None
            }
            BinOp::Eq => {
                if self.pin_class(lit) {
                    return Some("SA005");
                }
                if let Some(eq) = &self.eq {
                    if !eq.sase_eq(lit) {
                        return Some("SA005");
                    }
                }
                if self.ne.iter().any(|n| n.sase_eq(lit)) {
                    return Some("SA005");
                }
                if self.violates_bounds(lit) {
                    return Some("SA004");
                }
                self.eq = Some(lit.clone());
                None
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if self.pin_class(lit) {
                    return Some("SA004");
                }
                match op {
                    BinOp::Lt => self.tighten_upper(lit, true),
                    BinOp::Le => self.tighten_upper(lit, false),
                    BinOp::Gt => self.tighten_lower(lit, true),
                    BinOp::Ge => self.tighten_lower(lit, false),
                    _ => unreachable!("matched comparison above"),
                }
                if let Some(eq) = self.eq.clone() {
                    if self.violates_bounds(&eq) {
                        return Some("SA004");
                    }
                }
                if self.interval_empty() {
                    return Some("SA004");
                }
                None
            }
            _ => None,
        }
    }

    /// Require the attribute to compare with `lit`'s type; true on
    /// conflict with an earlier requirement (the engine never coerces
    /// across the kinds [`ValueType::compares_with`] separates).
    fn pin_class(&mut self, lit: &Value) -> bool {
        let t = lit.value_type();
        match self.class {
            Some(prev) => !prev.compares_with(t),
            None => {
                self.class = Some(t);
                false
            }
        }
    }

    fn tighten_lower(&mut self, v: &Value, strict: bool) {
        match &self.lower {
            None => self.lower = Some((v.clone(), strict)),
            Some((cur, cs)) => match cur.sase_cmp(v) {
                Some(std::cmp::Ordering::Less) => self.lower = Some((v.clone(), strict)),
                Some(std::cmp::Ordering::Equal) => {
                    let s = *cs || strict;
                    self.lower = Some((cur.clone(), s));
                }
                _ => {}
            },
        }
    }

    fn tighten_upper(&mut self, v: &Value, strict: bool) {
        match &self.upper {
            None => self.upper = Some((v.clone(), strict)),
            Some((cur, cs)) => match cur.sase_cmp(v) {
                Some(std::cmp::Ordering::Greater) => self.upper = Some((v.clone(), strict)),
                Some(std::cmp::Ordering::Equal) => {
                    let s = *cs || strict;
                    self.upper = Some((cur.clone(), s));
                }
                _ => {}
            },
        }
    }

    fn violates_bounds(&self, v: &Value) -> bool {
        if let Some((lo, strict)) = &self.lower {
            match v.sase_cmp(lo) {
                None | Some(std::cmp::Ordering::Less) => return true,
                Some(std::cmp::Ordering::Equal) if *strict => return true,
                _ => {}
            }
        }
        if let Some((hi, strict)) = &self.upper {
            match v.sase_cmp(hi) {
                None | Some(std::cmp::Ordering::Greater) => return true,
                Some(std::cmp::Ordering::Equal) if *strict => return true,
                _ => {}
            }
        }
        false
    }

    fn interval_empty(&self) -> bool {
        if let (Some((lo, ls)), Some((hi, hs))) = (&self.lower, &self.upper) {
            match lo.sase_cmp(hi) {
                Some(std::cmp::Ordering::Greater) | None => return true,
                Some(std::cmp::Ordering::Equal) if *ls || *hs => return true,
                _ => {}
            }
        }
        false
    }

    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = &self.eq {
            parts.push(format!("= {v}"));
        }
        for n in &self.ne {
            parts.push(format!("!= {n}"));
        }
        if let Some((v, s)) = &self.lower {
            parts.push(format!("{} {v}", if *s { ">" } else { ">=" }));
        }
        if let Some((v, s)) = &self.upper {
            parts.push(format!("{} {v}", if *s { "<" } else { "<=" }));
        }
        parts.join(" and ")
    }
}

#[derive(Debug, Clone, Default)]
struct DomainMap(Vec<((usize, String), Domain)>);

impl DomainMap {
    fn entry(&mut self, slot: usize, attr_lc: &str) -> &mut Domain {
        if let Some(i) = self
            .0
            .iter()
            .position(|((s, a), _)| *s == slot && a == attr_lc)
        {
            return &mut self.0[i].1;
        }
        self.0
            .push(((slot, attr_lc.to_string()), Domain::default()));
        &mut self.0.last_mut().expect("just pushed").1
    }
}

/// Constant-fold a literal-only subtree with the engine's own value
/// semantics. `None` means "not a constant" (attribute or function
/// reference, or an operation that would error at run time).
fn fold(e: &CompiledExpr) -> Option<Value> {
    match e {
        CompiledExpr::Literal(v) => Some(v.clone()),
        CompiledExpr::Attr { .. } | CompiledExpr::Call { .. } => None,
        CompiledExpr::Unary { op, expr } => {
            let v = fold(expr)?;
            match op {
                UnaryOp::Not => v.as_bool().map(|b| Value::Bool(!b)),
                UnaryOp::Neg => match v {
                    Value::Int(i) => Some(Value::Int(i.wrapping_neg())),
                    Value::Float(x) => Some(Value::Float(-x)),
                    _ => None,
                },
            }
        }
        CompiledExpr::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = fold(left)?;
                if !l.is_true() {
                    return Some(Value::Bool(false));
                }
                fold(right).map(|r| Value::Bool(r.is_true()))
            }
            BinOp::Or => {
                let l = fold(left)?;
                if l.is_true() {
                    return Some(Value::Bool(true));
                }
                fold(right).map(|r| Value::Bool(r.is_true()))
            }
            BinOp::Eq => Some(Value::Bool(fold(left)?.sase_eq(&fold(right)?))),
            BinOp::Ne => Some(Value::Bool(!fold(left)?.sase_eq(&fold(right)?))),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let res = match fold(left)?.sase_cmp(&fold(right)?) {
                    None => false,
                    Some(o) => match op {
                        BinOp::Lt => o == std::cmp::Ordering::Less,
                        BinOp::Le => o != std::cmp::Ordering::Greater,
                        BinOp::Gt => o == std::cmp::Ordering::Greater,
                        BinOp::Ge => o != std::cmp::Ordering::Less,
                        _ => unreachable!("matched comparison above"),
                    },
                };
                Some(Value::Bool(res))
            }
            BinOp::Add => fold(left)?.add(&fold(right)?).ok(),
            BinOp::Sub => fold(left)?.sub(&fold(right)?).ok(),
            BinOp::Mul => fold(left)?.mul(&fold(right)?).ok(),
            BinOp::Div => fold(left)?.div(&fold(right)?).ok(),
            BinOp::Rem => fold(left)?.rem(&fold(right)?).ok(),
        },
    }
}

/// Split nested conjunctions into atoms.
fn flatten_and<'t>(e: &'t CompiledExpr, out: &mut Vec<&'t CompiledExpr>) {
    match e {
        CompiledExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

fn flatten_or<'t>(e: &'t CompiledExpr, out: &mut Vec<&'t CompiledExpr>) {
    match e {
        CompiledExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            flatten_or(left, out);
            flatten_or(right, out);
        }
        other => out.push(other),
    }
}

/// Process one conjunct atom against the accumulated domains. Returns the
/// first contradiction, if any; appends renderings of provably-dead OR
/// branches to `dead_branches`.
fn apply_atom(
    atom: &CompiledExpr,
    domains: &mut DomainMap,
    dead_branches: &mut Vec<String>,
) -> Option<Contradiction> {
    // Constant conjunct?
    if let Some(v) = fold(atom) {
        if !v.is_true() {
            return Some(Contradiction {
                code: "SA006",
                message: format!("conjunct `{}` is always false", describe_expr(atom)),
                anchor: None,
            });
        }
        return None;
    }
    match atom {
        CompiledExpr::Binary { op, left, right } if op.is_comparison() => {
            // `var.attr <op> constant` (either operand order).
            let sides = [(left, right, *op), (right, left, flip(*op))];
            for (a, b, op) in sides {
                if let CompiledExpr::Attr { slot, attr, var } = a.as_ref() {
                    if let Some(lit) = fold(b) {
                        let attr_lc = attr.to_ascii_lowercase();
                        let dom = domains.entry(*slot, &attr_lc);
                        if let Some(code) = dom.constrain(op, &lit) {
                            let desc = dom.describe();
                            return Some(Contradiction {
                                code,
                                message: format!(
                                    "`{var}.{attr} {} {lit}` contradicts the other \
                                     constraints on `{var}.{attr}` ({desc})",
                                    op.as_str()
                                ),
                                anchor: Some((var.to_string(), attr.to_string())),
                            });
                        }
                        return None;
                    }
                }
            }
            // Same attribute compared to itself: `x.a < x.a` is always
            // false under the engine's total order (NaN included).
            if let (
                CompiledExpr::Attr {
                    slot: s1,
                    attr: a1,
                    var,
                },
                CompiledExpr::Attr {
                    slot: s2, attr: a2, ..
                },
            ) = (left.as_ref(), right.as_ref())
            {
                if s1 == s2 && a1.eq_ignore_ascii_case(a2) && matches!(op, BinOp::Lt | BinOp::Gt) {
                    return Some(Contradiction {
                        code: "SA006",
                        message: format!(
                            "`{var}.{a1} {} {var}.{a1}` compares an attribute with \
                             itself and is always false",
                            op.as_str()
                        ),
                        anchor: Some((var.to_string(), a1.to_string())),
                    });
                }
            }
            None
        }
        CompiledExpr::Binary { op: BinOp::Or, .. } => {
            let mut branches = Vec::new();
            flatten_or(atom, &mut branches);
            let mut live = 0usize;
            let mut local_dead = Vec::new();
            for b in &branches {
                let mut probe = domains.clone();
                let mut atoms = Vec::new();
                flatten_and(b, &mut atoms);
                let mut scratch = Vec::new();
                let contradicted = atoms
                    .iter()
                    .find_map(|a| apply_atom(a, &mut probe, &mut scratch));
                if contradicted.is_some() {
                    local_dead.push(describe_expr(b));
                } else {
                    live += 1;
                }
            }
            if live == 0 {
                return Some(Contradiction {
                    code: "SA006",
                    message: format!(
                        "every branch of the OR `{}` is unsatisfiable",
                        describe_expr(atom)
                    ),
                    anchor: None,
                });
            }
            dead_branches.extend(local_dead);
            None
        }
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Render a compiled expression back to a readable (approximately
/// source-shaped) form for messages.
fn describe_expr(e: &CompiledExpr) -> String {
    match e {
        CompiledExpr::Literal(v) => v.to_string(),
        CompiledExpr::Attr { var, attr, .. } => format!("{var}.{attr}"),
        CompiledExpr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("NOT {}", describe_expr(expr)),
            UnaryOp::Neg => format!("-{}", describe_expr(expr)),
        },
        CompiledExpr::Binary { op, left, right } => format!(
            "{} {} {}",
            describe_expr(left),
            op.as_str(),
            describe_expr(right)
        ),
        CompiledExpr::Call { func, args } => {
            let args: Vec<String> = args.iter().map(describe_expr).collect();
            format!("{}({})", func.name(), args.join(", "))
        }
    }
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

fn is_timestamp_attr(attr: &str) -> bool {
    attr.eq_ignore_ascii_case("timestamp") || attr.eq_ignore_ascii_case("ts")
}

fn collect_attr_refs<'e>(e: &'e Expr, out: &mut Vec<&'e AttrRef>) {
    match e {
        Expr::Literal(_) | Expr::Equivalence(_) => {}
        Expr::Attr(a) => out.push(a),
        Expr::Unary { expr, .. } => collect_attr_refs(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_attr_refs(left, out);
            collect_attr_refs(right, out);
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_attr_refs(a, out);
            }
        }
    }
}

/// Joined span of every attribute reference inside an expression.
fn expr_span(e: &Expr) -> Option<Span> {
    let mut refs = Vec::new();
    collect_attr_refs(e, &mut refs);
    let joined = refs.iter().fold(Span::default(), |acc, r| acc.join(r.span));
    if joined.is_unknown() {
        None
    } else {
        Some(joined)
    }
}

fn type_name_list(schemas: &[impl std::borrow::Borrow<Arc<Schema>>]) -> String {
    schemas
        .iter()
        .map(|s| s.borrow().name.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The closest attribute name across the candidate schemas, for "did you
/// mean" suggestions. Case-insensitive Levenshtein distance, threshold 3.
fn nearest_attr_name(wanted: &str, schemas: &[Arc<Schema>]) -> Option<String> {
    let wanted_lc = wanted.to_ascii_lowercase();
    let mut best: Option<(usize, String)> = None;
    for s in schemas {
        for a in &s.attributes {
            let d = levenshtein(&wanted_lc, &a.name.to_ascii_lowercase());
            let better = match &best {
                None => true,
                Some((bd, _)) => d < *bd,
            };
            if better {
                best = Some((d, a.name.to_string()));
            }
        }
    }
    best.filter(|(d, _)| *d <= 3).map(|(_, name)| name)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;

    fn diags(src: &str) -> Vec<Diagnostic> {
        analyze_src(
            src,
            &retail_registry(),
            &FunctionRegistry::with_stdlib(),
            TimeScale::default(),
        )
    }

    fn codes(src: &str) -> Vec<&'static str> {
        diags(src).iter().map(|d| d.code).collect()
    }

    fn find<'d>(ds: &'d [Diagnostic], code: &str) -> &'d Diagnostic {
        ds.iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("expected {code} in {ds:?}"))
    }

    const Q1: &str = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                      WHERE x.TagId = z.TagId WITHIN 12 hours RETURN x.TagId";

    #[test]
    fn clean_query_is_silent() {
        assert_eq!(diags(Q1).len(), 0, "{:?}", diags(Q1));
    }

    #[test]
    fn sa001_unknown_attribute_with_suggestion() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagIdd = z.TagId WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA001");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("TagIdd"), "{}", d.message);
        assert!(d.span.is_some(), "span should locate the reference");
        assert_eq!(
            d.suggestion.as_deref(),
            Some("did you mean `x.TagId`?"),
            "{d:?}"
        );
    }

    #[test]
    fn sa001_no_suggestion_when_nothing_is_close() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.WarehouseTemperature = 3 WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA001");
        assert!(d.suggestion.is_none(), "{d:?}");
    }

    #[test]
    fn sa002_partial_any_coverage() {
        let reg = SchemaRegistry::new();
        reg.register("A", &[("TagId", ValueType::Int), ("Extra", ValueType::Int)])
            .unwrap();
        reg.register("B", &[("TagId", ValueType::Int)]).unwrap();
        let ds = analyze_src(
            "EVENT SEQ(ANY(A, B) a, A b) WHERE a.Extra = b.Extra \
             WITHIN 100 RETURN a.TagId",
            &reg,
            &FunctionRegistry::with_stdlib(),
            TimeScale::default(),
        );
        let d = find(&ds, "SA002");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains('B'), "{}", d.message);
    }

    #[test]
    fn sa003_incomparable_comparison_is_always_false() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.ProductName > 3 WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA003");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("always false"), "{}", d.message);
    }

    #[test]
    fn sa003_incomparable_ne_is_always_true_warning() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.ProductName != 3 WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA003");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("always true"), "{}", d.message);
    }

    #[test]
    fn sa003_incomparable_inside_or_is_only_a_warning() {
        // The dead comparison only deadens its branch; the other branch
        // keeps the query satisfiable, so error severity would be unsound.
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND \
             (x.ProductName != 'soap' OR x.ProductName < 3) \
             WITHIN 100 RETURN x.TagId",
        );
        assert!(ds.iter().all(|d| d.severity != Severity::Error), "{ds:?}");
        assert_eq!(find(&ds, "SA003").severity, Severity::Warning);
    }

    #[test]
    fn sa003_non_boolean_where_root() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId + 1 WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA003");
        assert!(d.message.contains("not a boolean"), "{}", d.message);
    }

    #[test]
    fn sa003_arithmetic_on_string() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.ProductName * 2 = 4 WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA003");
        assert!(d.message.contains("arithmetic"), "{}", d.message);
    }

    #[test]
    fn sa004_range_contradiction() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId > 5 AND x.TagId < 3 \
             WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA004");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("never emit a match"), "{}", d.message);
        assert!(d.span.is_some(), "contradiction should be anchored");
    }

    #[test]
    fn sa004_equality_violates_bound() {
        assert!(codes(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId >= 10 AND x.TagId = 3 \
             WITHIN 100 RETURN x.TagId",
        )
        .contains(&"SA004"));
    }

    #[test]
    fn sa005_equality_contradiction() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.ProductName = 'soap' \
             AND x.ProductName = 'milk' WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA005");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn sa005_equality_conflicts_with_disequality() {
        assert!(codes(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId != 7 AND x.TagId = 7 \
             WITHIN 100 RETURN x.TagId",
        )
        .contains(&"SA005"));
    }

    #[test]
    fn sa006_constant_folds_false() {
        assert!(codes(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND 1 = 2 WITHIN 100 RETURN x.TagId",
        )
        .contains(&"SA006"));
    }

    #[test]
    fn sa006_strict_self_comparison() {
        assert!(codes(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId < x.TagId WITHIN 100 RETURN x.TagId",
        )
        .contains(&"SA006"));
    }

    #[test]
    fn sa007_vacuous_window_suppresses_sa000() {
        let cs = codes(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId WITHIN 0 units RETURN x.TagId",
        );
        assert!(cs.contains(&"SA007"), "{cs:?}");
        assert!(!cs.contains(&"SA000"), "{cs:?}");
    }

    #[test]
    fn sa008_vacuous_negation() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = z.TagId AND y.TagId > 5 AND y.TagId < 3 \
             WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA008");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains('y'), "{}", d.message);
    }

    #[test]
    fn sa009_dead_or_branch() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND (1 = 2 OR x.TagId > 0) \
             WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA009");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn sa020_no_partition_key() {
        let ds = diags("EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 100 RETURN x.TagId");
        let d = find(&ds, "SA020");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn sa021_uncovered_negated_slot() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA021");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("negated component `y`"), "{}", d.message);
    }

    #[test]
    fn negation_covered_by_key_routes_cleanly() {
        // The same query with the negation inside the equivalence class has
        // a routing key and draws no routing lint at all.
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100 RETURN x.TagId",
        );
        assert!(ds.iter().all(|d| !d.code.starts_with("SA02")), "{ds:?}");
    }

    #[test]
    fn sa022_dynamic_attr_diag() {
        let query = parse_query(Q1).unwrap();
        let registry = retail_registry();
        let a = Analyzer {
            query: &query,
            registry: &registry,
            diags: Vec::new(),
        };
        let d = a.routing_rejection_diag(&RoutingRejection::DynamicAttr {
            type_name: Arc::from("SHELF_READING"),
            attr: Arc::from("TagId"),
        });
        assert_eq!(d.code, "SA022");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("SHELF_READING"), "{}", d.message);
    }

    #[test]
    fn sa025_conflicting_per_type_attrs() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
             WHERE x.TagId = y.AreaId WITHIN 100 RETURN x.TagId",
        );
        let d = find(&ds, "SA025");
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.message.contains("tagid") && d.message.contains("areaid"),
            "{}",
            d.message
        );
    }

    #[test]
    fn sa023_host_function_pins() {
        let functions = FunctionRegistry::with_stdlib();
        functions.register_fn("_lookupArea", Some(1), |args| Ok(args[0].clone()));
        let query = parse_query(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND _lookupArea(x.AreaId) = 1 \
             WITHIN 100 RETURN x.TagId",
        )
        .unwrap();
        let ds = analyze_with(&query, &retail_registry(), &functions, TimeScale::default());
        let d = find(&ds, "SA023");
        assert!(d.message.contains("_lookupArea"), "{}", d.message);
    }

    #[test]
    fn stdlib_functions_do_not_pin() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND _abs(x.AreaId) = 1 \
             WITHIN 100 RETURN x.TagId",
        );
        assert!(ds.iter().all(|d| d.code != "SA023"), "{ds:?}");
    }

    #[test]
    fn sa024_into_co_location() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId \
             WITHIN 100 RETURN x.TagId AS tag INTO alerts",
        );
        let d = find(&ds, "SA024");
        assert!(d.message.contains("alerts"), "{}", d.message);
    }

    #[test]
    fn sa024_from_co_location() {
        let reg = retail_registry();
        reg.register("moves", &[("tag", ValueType::Int)]).unwrap();
        let ds = analyze_src(
            "FROM moves EVENT SEQ(moves a, moves b) WHERE a.tag = b.tag \
             WITHIN 100 RETURN a.tag",
            &reg,
            &FunctionRegistry::with_stdlib(),
            TimeScale::default(),
        );
        let d = find(&ds, "SA024");
        assert!(d.message.contains("moves"), "{}", d.message);
    }

    #[test]
    fn sa030_duplicate_plan() {
        let q = parse_query(Q1).unwrap();
        let ds = cross_query(&q, &[("old".to_string(), parse_query(Q1).unwrap())]);
        let d = find(&ds, "SA030");
        assert!(d.message.contains("old"), "{}", d.message);
    }

    #[test]
    fn sa031_unconsumed_into() {
        let q = parse_query("EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts").unwrap();
        let ds = cross_query(&q, &[]);
        assert_eq!(find(&ds, "SA031").severity, Severity::Warning);

        // A registered consumer silences it.
        let reg = retail_registry();
        reg.register("alerts", &[("tag", ValueType::Int)]).unwrap();
        let consumer = parse_query("FROM alerts EVENT alerts a RETURN a.tag").unwrap();
        let ds = cross_query(&q, &[("c".to_string(), consumer)]);
        assert!(ds.iter().all(|d| d.code != "SA031"), "{ds:?}");
    }

    #[test]
    fn sa032_from_without_producer() {
        let q = parse_query("FROM moves EVENT moves a RETURN a.tag").unwrap();
        let ds = cross_query(&q, &[]);
        assert_eq!(find(&ds, "SA032").severity, Severity::Info);
    }

    #[test]
    fn diagnostics_sort_most_severe_first() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId > 5 AND x.TagId < 3 WITHIN 100 RETURN x.TagId",
        );
        assert!(ds.len() >= 2, "{ds:?}");
        for pair in ds.windows(2) {
            assert!(pair[0].severity >= pair[1].severity, "{ds:?}");
        }
        assert_eq!(ds[0].severity, Severity::Error);
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::new(Severity::Error, "SA004", "contradiction".to_string())
            .with_suggestion("loosen the bound");
        let text = d.to_string();
        assert!(text.starts_with("error[SA004]: contradiction"), "{text}");
        assert!(text.contains("help: loosen the bound"), "{text}");
    }

    // -- soundness negatives: satisfiable shapes must not be flagged --------

    #[test]
    fn satisfiable_interval_is_not_flagged() {
        for q in [
            // Open integer gap (5, 6): empty over ints, but the analyzer
            // reasons over the engine's value order, which is dense-agnostic.
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId > 5 AND x.TagId < 6 \
             WITHIN 100 RETURN x.TagId",
            // Point interval with inclusive bounds.
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId >= 5 AND x.TagId <= 5 \
             WITHIN 100 RETURN x.TagId",
            // Reflexive non-strict comparison is always true, never false.
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId <= x.TagId \
             WITHIN 100 RETURN x.TagId",
            // `!=` on the same attribute is NOT flagged: under IEEE float
            // semantics `v != v` holds for NaN, so it is not always false.
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId != x.TagId \
             WITHIN 100 RETURN x.TagId",
            // Same bound on different slots constrains different events.
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId > 5 AND z.TagId < 3 WITHIN 100 RETURN x.TagId",
        ] {
            let ds = diags(q);
            assert!(
                ds.iter().all(|d| d.severity != Severity::Error),
                "false positive on `{q}`: {ds:?}"
            );
        }
    }

    #[test]
    fn int_float_coercion_is_comparable() {
        let ds = diags(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.TagId > 1.5 WITHIN 100 RETURN x.TagId",
        );
        assert!(ds.iter().all(|d| d.code != "SA003"), "{ds:?}");
    }
}
