//! WHERE-clause analysis: predicate classification and partition derivation.
//!
//! §2.1.2: "To reduce intermediate results, we strategically push some of
//! the predicates and windows down to the sequence operators; the
//! optimizations are based on indexing relevant events both in temporal
//! order and across value-based partitions."
//!
//! The analysis splits the WHERE clause into conjuncts and classifies each:
//!
//! * **Equivalence classes** — `[attr]` shorthands and chains of
//!   `x.a = y.a` equality predicates are merged with a union-find. A class
//!   that covers every positive component becomes a PAIS *partition part*:
//!   its equality tests are enforced for free by routing events into
//!   per-key instance stacks.
//! * **Single-variable predicates** — pushed in front of the stacks
//!   (an event that fails them never enters a stack).
//! * **Multi-variable predicates over positive components** — evaluated
//!   incrementally during sequence construction.
//! * **Predicates referencing a negated component** — attached to that
//!   negation's non-occurrence check.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Result, SaseError};
use crate::event::{Event, EventTypeId, SchemaRegistry};
use crate::expr::{CompiledExpr, SlotResolver};
use crate::functions::FunctionRegistry;
use crate::lang::ast::{BinOp, Expr};
use crate::pattern::CompiledPattern;
use crate::program::{AttrAccess, PredicateProgram};
use crate::value::ValueKey;

use super::{ConstructionFilter, NegationPlan};

/// A partition-key attribute, position-resolved at plan time so key
/// extraction on the hot path is an index (or one memoized hash probe),
/// never a per-event name lookup.
#[derive(Debug, Clone)]
pub struct KeyAttr {
    /// The attribute name as written (diagnostics and EXPLAIN).
    pub attr: Arc<str>,
    access: AttrAccess,
}

impl KeyAttr {
    /// Resolve `attr` against the candidate types of `slot`.
    pub(crate) fn resolve(
        attr: Arc<str>,
        slot: usize,
        pattern: &CompiledPattern,
        registry: &SchemaRegistry,
    ) -> KeyAttr {
        let access = AttrAccess::resolve(&attr, &pattern.elements[slot].type_ids, registry);
        KeyAttr { attr, access }
    }

    /// How the attribute is read: what a runtime's offer table copies.
    pub(crate) fn access(&self) -> &AttrAccess {
        &self.access
    }
}

/// One part of a composite partition key: for each pattern slot, the
/// attribute whose value contributes to the key. Every positive slot is
/// covered (`Some`); negated slots may or may not be.
#[derive(Debug, Clone)]
pub struct PartitionPart {
    /// Slot-indexed, plan-time-resolved key attributes.
    pub per_slot_attr: Vec<Option<KeyAttr>>,
    /// Variable names per slot, for display only.
    display: Vec<Option<(Arc<str>, Arc<str>)>>,
}

impl PartitionPart {
    /// The key attribute name for a slot, if the part covers it.
    pub fn attr_for_slot(&self, slot: usize) -> Option<&Arc<str>> {
        self.key_for_slot(slot).map(|k| &k.attr)
    }

    /// The resolved key attribute for a slot, if the part covers it.
    pub fn key_for_slot(&self, slot: usize) -> Option<&KeyAttr> {
        self.per_slot_attr.get(slot).and_then(|a| a.as_ref())
    }
}

/// A composite PAIS partition key (one or more parts, all must match).
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The parts; all are combined into one composite key.
    pub parts: Vec<PartitionPart>,
}

impl PartitionSpec {
    /// Does every part cover `slot`?
    pub fn covers_slot(&self, slot: usize) -> bool {
        self.parts.iter().all(|p| p.key_for_slot(slot).is_some())
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let mut first = true;
            for entry in part.display.iter().flatten() {
                if !first {
                    write!(f, "=")?;
                }
                write!(f, "{}.{}", entry.0, entry.1)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Key extraction for one event type participating in a data-parallel
/// routing key: resolved at plan time so the shard router fetches the key
/// by position (or the timestamp), never by name.
#[derive(Debug, Clone)]
pub struct TypeKeyAccess {
    /// The event type this accessor applies to.
    pub type_id: EventTypeId,
    /// Lowercased key attribute name (`"timestamp"` for the
    /// pseudo-attribute), used to detect cross-query claim conflicts.
    pub attr_lc: Arc<str>,
    access: AttrAccess,
}

impl TypeKeyAccess {
    /// The routing-key contribution of `event`.
    ///
    /// Statically resolved accessors are infallible for events of the
    /// matching type, so `None` only occurs if the event's schema was
    /// somehow swapped out from under the plan — callers treat it as
    /// "route nowhere" (the event could never complete a match anyway).
    #[inline]
    pub fn key_of(&self, event: &Event) -> Option<ValueKey> {
        self.access.key_of(event)
    }
}

/// A data-parallel routing candidate derived from one qualifying
/// [`PartitionPart`]: for every event type the query reacts to, the
/// attribute whose value determines the shard. All events of a single
/// match agree on this value (the part's equivalence class enforces it),
/// so hashing it routes whole matches — counterexamples included — to
/// one worker.
#[derive(Debug, Clone)]
pub struct RoutingKey {
    /// Per-type accessors, sorted by type id, deduped.
    pub per_type: Vec<TypeKeyAccess>,
}

/// Why one [`PartitionPart`] failed to qualify as a data-parallel routing
/// key; the analyzer reports these as SA021, SA022 and SA025.
#[derive(Debug, Clone)]
pub(crate) enum RoutingRejection {
    /// The part has no key attribute for a pattern slot.
    UncoveredSlot {
        /// Variable bound by the uncovered slot.
        var: Arc<str>,
        /// Whether the uncovered slot is a negated component.
        negated: bool,
    },
    /// The key attribute resolves dynamically for one candidate type.
    DynamicAttr {
        /// The event type name.
        type_name: Arc<str>,
        /// The key attribute name as written.
        attr: Arc<str>,
    },
    /// Two slots ask the same event type for different key attributes.
    ConflictingAttrs {
        /// The event type name.
        type_name: Arc<str>,
        /// The attribute claimed first (lowercased).
        first: Arc<str>,
        /// The conflicting attribute (lowercased).
        second: Arc<str>,
    },
}

/// Derive the data-parallel routing candidates of a partitioned query: one
/// verdict per [`PartitionPart`] of `spec`, in order — the routing key, or
/// the first reason the part does not qualify.
///
/// A [`PartitionPart`] qualifies as a routing key only when:
///
/// * it covers **every** pattern slot, negated slots included — a
///   counterexample that lands on a different shard could otherwise fail
///   to suppress a match it should kill;
/// * the key attribute of every candidate type resolves **statically**
///   (fixed position or the timestamp pseudo-attribute) — so runtime key
///   extraction is infallible and a missing attribute cannot silently
///   fall through to hash-of-nothing routing;
/// * no event type is asked for two different attributes by the same
///   part — the router sees an event, not a slot, so per-type access
///   must be unambiguous.
pub(crate) fn routing_keys<'a>(
    spec: &'a PartitionSpec,
    pattern: &'a CompiledPattern,
    registry: &'a SchemaRegistry,
) -> impl Iterator<Item = std::result::Result<RoutingKey, RoutingRejection>> + 'a {
    spec.parts
        .iter()
        .map(move |part| routing_key(part, pattern, registry))
}

fn routing_key(
    part: &PartitionPart,
    pattern: &CompiledPattern,
    registry: &SchemaRegistry,
) -> std::result::Result<RoutingKey, RoutingRejection> {
    let type_name = |tid: EventTypeId| -> Arc<str> {
        registry
            .schema(tid)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| Arc::from("?"))
    };
    let mut per_type: Vec<TypeKeyAccess> = Vec::new();
    for elem in &pattern.elements {
        let Some(ka) = part.key_for_slot(elem.slot) else {
            return Err(RoutingRejection::UncoveredSlot {
                var: elem.variable.clone(),
                negated: elem.negated,
            });
        };
        for &tid in &elem.type_ids {
            let access = AttrAccess::resolve(&ka.attr, std::slice::from_ref(&tid), registry);
            if matches!(access, AttrAccess::Dynamic { .. }) {
                return Err(RoutingRejection::DynamicAttr {
                    type_name: type_name(tid),
                    attr: ka.attr.clone(),
                });
            }
            let attr_lc: Arc<str> = if matches!(access, AttrAccess::Timestamp) {
                Arc::from("timestamp")
            } else {
                Arc::from(ka.attr.to_ascii_lowercase().as_str())
            };
            if let Some(existing) = per_type.iter().find(|t| t.type_id == tid) {
                if existing.attr_lc != attr_lc {
                    return Err(RoutingRejection::ConflictingAttrs {
                        type_name: type_name(tid),
                        first: existing.attr_lc.clone(),
                        second: attr_lc,
                    });
                }
                continue;
            }
            per_type.push(TypeKeyAccess {
                type_id: tid,
                attr_lc,
                access,
            });
        }
    }
    per_type.sort_by_key(|t| t.type_id);
    Ok(RoutingKey { per_type })
}

/// The result of analyzing a WHERE clause against a pattern.
#[derive(Debug, Clone, Default)]
pub struct WhereAnalysis {
    /// Derived partition key, when requested and derivable.
    pub partition: Option<PartitionSpec>,
    /// Slot-indexed single-variable predicates.
    pub element_filters: Vec<Vec<PredicateProgram>>,
    /// Multi-variable predicates over positive components.
    pub construction_filters: Vec<ConstructionFilter>,
    /// Per-negation (pattern order) predicates relating the candidate
    /// counterexample to positive bindings.
    pub negation_checks: Vec<Vec<PredicateProgram>>,
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn add(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Analyze the WHERE clause: qualifying equivalence classes become a
/// [`PartitionSpec`] (PAIS), single-variable predicates become element
/// filters, and the rest become construction filters or negation checks.
pub fn analyze_where(
    where_clause: Option<&Expr>,
    pattern: &CompiledPattern,
    registry: &SchemaRegistry,
    functions: &FunctionRegistry,
) -> Result<WhereAnalysis> {
    Analyzer {
        pattern,
        registry,
        functions,
        slots: pattern.slot_table(),
    }
    .run(where_clause)
}

struct Analyzer<'a> {
    pattern: &'a CompiledPattern,
    registry: &'a SchemaRegistry,
    functions: &'a FunctionRegistry,
    slots: Vec<(String, usize)>,
}

/// A (slot, attribute) node in the equivalence union-find.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AttrNode {
    slot: usize,
    attr_lc: String,
    attr: Arc<str>,
}

impl<'a> Analyzer<'a> {
    fn run(self, where_clause: Option<&Expr>) -> Result<WhereAnalysis> {
        let slot_count = self.pattern.slot_count();
        let mut out = WhereAnalysis {
            partition: None,
            element_filters: vec![Vec::new(); slot_count],
            construction_filters: Vec::new(),
            negation_checks: vec![Vec::new(); self.pattern.negations.len()],
        };
        let Some(where_clause) = where_clause else {
            return Ok(out);
        };

        let conjuncts = where_clause.conjuncts();

        // Pass 1: collect equivalence structure.
        let mut uf = UnionFind::new();
        let mut node_ids: HashMap<(usize, String), usize> = HashMap::new();
        let mut nodes: Vec<AttrNode> = Vec::new();
        let intern = |uf: &mut UnionFind,
                      nodes: &mut Vec<AttrNode>,
                      node_ids: &mut HashMap<(usize, String), usize>,
                      slot: usize,
                      attr: &str|
         -> usize {
            let key = (slot, attr.to_ascii_lowercase());
            *node_ids.entry(key.clone()).or_insert_with(|| {
                let id = uf.add();
                nodes.push(AttrNode {
                    slot,
                    attr_lc: key.1,
                    attr: Arc::from(attr),
                });
                id
            })
        };

        // Per-conjunct classification scratch.
        enum Kind<'e> {
            EquivDecl(&'e str),
            Edge { a: usize, b: usize, expr: &'e Expr },
            Ordinary(&'e Expr),
        }
        let mut kinds: Vec<Kind<'_>> = Vec::with_capacity(conjuncts.len());

        for c in &conjuncts {
            match c {
                Expr::Equivalence(attr) => {
                    // [attr] links every component that has the attribute;
                    // every positive component must have it.
                    let mut linked: Option<usize> = None;
                    for elem in &self.pattern.elements {
                        let has = self.elem_has_attr(elem.slot, attr);
                        if !has {
                            if !elem.negated {
                                return Err(SaseError::semantic(format!(
                                    "equivalence predicate [{attr}]: component `{}` \
                                     has no attribute `{attr}`",
                                    elem.variable
                                )));
                            }
                            continue;
                        }
                        let id = intern(&mut uf, &mut nodes, &mut node_ids, elem.slot, attr);
                        if let Some(prev) = linked {
                            uf.union(prev, id);
                        }
                        linked = Some(id);
                    }
                    kinds.push(Kind::EquivDecl(attr));
                }
                Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } => match (&**left, &**right) {
                    (Expr::Attr(l), Expr::Attr(r)) if l.var != r.var => {
                        let ls = self.slot_of(&l.var)?;
                        let rs = self.slot_of(&r.var)?;
                        self.check_attr_exists(ls, &l.attr)?;
                        self.check_attr_exists(rs, &r.attr)?;
                        let a = intern(&mut uf, &mut nodes, &mut node_ids, ls, &l.attr);
                        let b = intern(&mut uf, &mut nodes, &mut node_ids, rs, &r.attr);
                        uf.union(a, b);
                        kinds.push(Kind::Edge { a, b, expr: c });
                    }
                    _ => kinds.push(Kind::Ordinary(c)),
                },
                other => kinds.push(Kind::Ordinary(other)),
            }
        }

        // Group nodes by class root.
        let mut classes: HashMap<usize, Vec<usize>> = HashMap::new();
        for id in 0..nodes.len() {
            classes.entry(uf.find(id)).or_default().push(id);
        }

        // A class qualifies when it covers every positive slot.
        let positive_slots: Vec<usize> = self.pattern.positive_slots.clone();
        let mut qualifying_roots: Vec<usize> = Vec::new();
        for (&root, members) in &classes {
            let covered = positive_slots
                .iter()
                .all(|s| members.iter().any(|&m| nodes[m].slot == *s));
            if covered && members.len() > 1 {
                qualifying_roots.push(root);
            }
        }
        qualifying_roots.sort_unstable();

        // Choose one attribute per slot per qualifying class; surplus
        // attributes on the same slot become intra-slot equality filters so
        // nothing absorbed by the partition is lost.
        let mut parts: Vec<PartitionPart> = Vec::new();
        let mut intra_slot_filters: Vec<(usize, Arc<str>, Arc<str>)> = Vec::new();
        for &root in &qualifying_roots {
            let members = &classes[&root];
            let mut per_slot_attr: Vec<Option<KeyAttr>> = vec![None; slot_count];
            let mut display: Vec<Option<(Arc<str>, Arc<str>)>> = vec![None; slot_count];
            for &m in members {
                let node = &nodes[m];
                match &per_slot_attr[node.slot] {
                    None => {
                        per_slot_attr[node.slot] = Some(KeyAttr::resolve(
                            node.attr.clone(),
                            node.slot,
                            self.pattern,
                            self.registry,
                        ));
                        display[node.slot] = Some((
                            self.pattern.elements[node.slot].variable.clone(),
                            node.attr.clone(),
                        ));
                    }
                    Some(chosen) if chosen.attr.to_ascii_lowercase() != node.attr_lc => {
                        intra_slot_filters.push((
                            node.slot,
                            node.attr.clone(),
                            chosen.attr.clone(),
                        ));
                    }
                    Some(_) => {}
                }
            }
            parts.push(PartitionPart {
                per_slot_attr,
                display,
            });
        }

        // Pass 2: dispose of each conjunct.
        for kind in kinds {
            match kind {
                Kind::EquivDecl(attr) => self.dispose_equivalence(attr, &mut out)?,
                Kind::Edge { a, b, expr } => {
                    let root = uf.find(a);
                    debug_assert_eq!(root, uf.find(b));
                    let absorbed = qualifying_roots.contains(&root)
                        && !self.slot_is_negated(nodes[a].slot)
                        && !self.slot_is_negated(nodes[b].slot);
                    if absorbed {
                        continue;
                    }
                    self.dispose_ordinary(expr, &mut out)?;
                }
                Kind::Ordinary(expr) => self.dispose_ordinary(expr, &mut out)?,
            }
        }

        // Intra-slot equalities surfaced by partition key selection.
        for (slot, extra, chosen) in intra_slot_filters {
            let var = self.pattern.elements[slot].variable.clone();
            let expr = CompiledExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(CompiledExpr::Attr {
                    slot,
                    attr: extra,
                    var: var.clone(),
                }),
                right: Box::new(CompiledExpr::Attr {
                    slot,
                    attr: chosen,
                    var,
                }),
            };
            out.element_filters[slot].push(self.prog(expr)?);
        }

        if !parts.is_empty() {
            out.partition = Some(PartitionSpec { parts });
        }
        Ok(out)
    }

    /// Compile a finished expression tree into its predicate program.
    fn prog(&self, expr: CompiledExpr) -> Result<PredicateProgram> {
        PredicateProgram::from_expr(expr, self.pattern, self.registry)
    }

    /// Check the negated components of an `[attr]` declaration. Its class
    /// covers every positive component, so with two or more of them it is
    /// a partition part that enforces the positive equalities; with one
    /// there is nothing to enforce among positives.
    fn dispose_equivalence(&self, attr: &str, out: &mut WhereAnalysis) -> Result<()> {
        let first_positive_slot = self.pattern.positive_slots[0];
        let mk_attr = |slot: usize| CompiledExpr::Attr {
            slot,
            attr: Arc::from(attr),
            var: self.pattern.elements[slot].variable.clone(),
        };
        // Negated components with the attribute: the counterexample must
        // also agree. (When the partition covers the negated slot this is
        // additionally enforced by bucketing.)
        for (ni, neg) in self.pattern.negations.iter().enumerate() {
            if !self.elem_has_attr(neg.slot, attr) {
                continue;
            }
            let expr = CompiledExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(mk_attr(neg.slot)),
                right: Box::new(mk_attr(first_positive_slot)),
            };
            out.negation_checks[ni].push(self.prog(expr)?);
        }
        Ok(())
    }

    /// Place a conjunct that is not absorbed by partitioning.
    fn dispose_ordinary(&self, expr: &Expr, out: &mut WhereAnalysis) -> Result<()> {
        let compiled = CompiledExpr::compile(expr, &self.slots[..], self.functions)?;
        let mut slots = Vec::new();
        compiled.referenced_slots(&mut slots);
        slots.sort_unstable();
        let program = self.prog(compiled)?;

        let negated: Vec<usize> = slots
            .iter()
            .copied()
            .filter(|s| self.slot_is_negated(*s))
            .collect();

        match (slots.len(), negated.len()) {
            (_, n) if n >= 2 => Err(SaseError::semantic(
                "a WHERE conjunct may reference at most one negated component",
            )),
            (0, _) => {
                // Constant predicate: fold into construction (evaluated once
                // per candidate match; cheap because it is constant).
                out.construction_filters.push(ConstructionFilter {
                    expr: program,
                    min_positive: self.pattern.positive_len().saturating_sub(1),
                });
                Ok(())
            }
            (1, 0) => {
                out.element_filters[slots[0]].push(program);
                Ok(())
            }
            (_, 1) => {
                let neg_slot = negated[0];
                let ni = self
                    .pattern
                    .negations
                    .iter()
                    .position(|n| n.slot == neg_slot)
                    .expect("negated slot has a negation scope");
                if slots.len() == 1 {
                    // Single-variable predicate on the negated component:
                    // restricts which events count as occurrences.
                    out.element_filters[neg_slot].push(program);
                } else {
                    out.negation_checks[ni].push(program);
                }
                Ok(())
            }
            _ => {
                // Multi-variable over positive components.
                let min_positive = slots
                    .iter()
                    .map(|s| self.pattern.elements[*s].positive_index)
                    .min()
                    .expect("nonempty");
                out.construction_filters.push(ConstructionFilter {
                    expr: program,
                    min_positive,
                });
                Ok(())
            }
        }
    }

    fn slot_of(&self, var: &str) -> Result<usize> {
        self.slots.slot_of(var).ok_or_else(|| {
            SaseError::semantic(format!("unknown pattern variable `{var}` in WHERE"))
        })
    }

    fn slot_is_negated(&self, slot: usize) -> bool {
        self.pattern.elements[slot].negated
    }

    fn elem_has_attr(&self, slot: usize, attr: &str) -> bool {
        if attr.eq_ignore_ascii_case("timestamp") || attr.eq_ignore_ascii_case("ts") {
            return true;
        }
        self.pattern.elements[slot].type_ids.iter().all(|id| {
            self.registry
                .schema(*id)
                .map(|s| s.attr_position(attr).is_some())
                .unwrap_or(false)
        })
    }

    fn check_attr_exists(&self, slot: usize, attr: &str) -> Result<()> {
        if self.elem_has_attr(slot, attr) {
            Ok(())
        } else {
            let elem = &self.pattern.elements[slot];
            Err(SaseError::semantic(format!(
                "component `{}` ({}) has no attribute `{attr}`",
                elem.variable,
                elem.type_names
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("|"),
            )))
        }
    }
}

/// Derive the `partition_attrs` of each negation from a partition spec.
pub(crate) fn negation_partition_attrs(
    pattern: &CompiledPattern,
    partition: Option<&PartitionSpec>,
    negations: &mut [NegationPlan],
) {
    let Some(spec) = partition else { return };
    for plan in negations.iter_mut() {
        let slot = plan.scope.slot;
        if spec.covers_slot(slot) {
            plan.partition_attrs = Some(
                spec.parts
                    .iter()
                    .map(|p| p.key_for_slot(slot).expect("covered").clone())
                    .collect(),
            );
        }
    }
    let _ = pattern;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::lang::parse_query;

    fn analyze(src: &str) -> (WhereAnalysis, CompiledPattern) {
        let reg = retail_registry();
        let q = parse_query(src).unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        let a = analyze_where(
            q.where_clause.as_ref(),
            &p,
            &reg,
            &FunctionRegistry::with_stdlib(),
        )
        .unwrap();
        (a, p)
    }

    fn routing_ok(a: &WhereAnalysis, p: &CompiledPattern, reg: &SchemaRegistry) -> Vec<RoutingKey> {
        routing_keys(a.partition.as_ref().unwrap(), p, reg)
            .map(|verdict| verdict.expect("part qualifies as a routing key"))
            .collect()
    }

    const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                      WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 43200";

    #[test]
    fn q1_explicit_predicates_derive_partition() {
        let (a, _p) = analyze(Q1);
        let spec = a.partition.expect("partition derived");
        assert_eq!(spec.parts.len(), 1);
        // All three slots covered (incl. the negated counter reading).
        assert!(spec.covers_slot(0));
        assert!(spec.covers_slot(1));
        assert!(spec.covers_slot(2));
        // x.TagId = z.TagId absorbed; x.TagId = y.TagId references the
        // negated slot so it stays as an explicit negation check.
        assert!(a.construction_filters.is_empty());
        assert_eq!(a.negation_checks[0].len(), 1);
    }

    #[test]
    fn q1_without_partition_expands_to_predicates() {
        // Q1 plus a positive component the TagId class does not reach: no
        // class covers every positive, so nothing partitions.
        let (a, _p) = analyze(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z, \
             SHELF_READING w) WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 43200",
        );
        assert!(a.partition.is_none());
        // x=z stays a construction filter; x=y a negation check.
        assert_eq!(a.construction_filters.len(), 1);
        assert_eq!(a.construction_filters[0].min_positive, 0);
        assert_eq!(a.negation_checks[0].len(), 1);
    }

    #[test]
    fn equivalence_shorthand_partition() {
        let (a, _p) =
            analyze("EVENT SEQ(SHELF_READING x, SHELF_READING y) WHERE [TagId] WITHIN 10");
        let spec = a.partition.unwrap();
        assert_eq!(spec.parts.len(), 1);
        assert!(spec.covers_slot(0) && spec.covers_slot(1));
        assert!(a.construction_filters.is_empty());
    }

    #[test]
    fn equivalence_on_missing_attr_rejected() {
        let reg = retail_registry();
        let q =
            parse_query("EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE [Temperature] WITHIN 5")
                .unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        let err = analyze_where(q.where_clause.as_ref(), &p, &reg, &FunctionRegistry::new());
        assert!(err.is_err());
    }

    #[test]
    fn single_var_predicates_are_element_filters() {
        let (a, _p) = analyze(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.AreaId = 2 AND z.AreaId > 0 AND x.TagId = z.TagId",
        );
        assert_eq!(a.element_filters[0].len(), 1);
        assert_eq!(a.element_filters[1].len(), 1);
        assert!(a.partition.is_some());
    }

    #[test]
    fn predicate_on_negated_component_is_candidate_filter() {
        let (a, _p) = analyze(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE y.AreaId = 3 AND x.TagId = z.TagId",
        );
        assert_eq!(a.element_filters[1].len(), 1);
    }

    #[test]
    fn non_equality_multi_var_is_construction_filter() {
        let (a, _p) =
            analyze("EVENT SEQ(SHELF_READING x, SHELF_READING y) WHERE x.AreaId != y.AreaId");
        assert!(a.partition.is_none());
        assert_eq!(a.construction_filters.len(), 1);
    }

    #[test]
    fn q2_analysis_partition_plus_inequality() {
        // Q2 shape: equality on id drives partition, inequality on area
        // stays a construction filter.
        let (a, _p) = analyze(
            "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
             WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 3600",
        );
        assert!(a.partition.is_some());
        assert_eq!(a.construction_filters.len(), 1);
    }

    #[test]
    fn two_negated_vars_in_one_conjunct_rejected() {
        let reg = retail_registry();
        let q = parse_query(
            "EVENT SEQ(SHELF_READING a, !(COUNTER_READING b), SHELF_READING c, \
             !(COUNTER_READING d), EXIT_READING e) WHERE b.TagId = d.TagId",
        )
        .unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        let err = analyze_where(q.where_clause.as_ref(), &p, &reg, &FunctionRegistry::new());
        assert!(err.is_err());
    }

    #[test]
    fn or_predicate_is_not_partitionable() {
        let (a, _p) = analyze(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId OR x.AreaId = z.AreaId",
        );
        // The OR is one conjunct referencing two positive slots.
        assert!(a.partition.is_none());
        assert_eq!(a.construction_filters.len(), 1);
    }

    #[test]
    fn intra_slot_equality_is_single_var() {
        let (a, _p) =
            analyze("EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = x.AreaId");
        assert!(a.partition.is_none());
        assert_eq!(a.element_filters[0].len(), 1);
    }

    #[test]
    fn cross_attribute_equality_chain_partitions() {
        // Different attribute names on each side still form one class.
        let (a, _p) =
            analyze("EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.AreaId");
        let spec = a.partition.unwrap();
        assert_eq!(spec.parts[0].attr_for_slot(0).unwrap().as_ref(), "TagId");
        assert_eq!(spec.parts[0].attr_for_slot(1).unwrap().as_ref(), "AreaId");
    }

    #[test]
    fn composite_partition_key() {
        let (a, _p) = analyze(
            "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
             WHERE x.TagId = y.TagId AND x.ProductName = y.ProductName",
        );
        let spec = a.partition.unwrap();
        assert_eq!(spec.parts.len(), 2);
    }

    #[test]
    fn routing_candidates_cover_all_types_or_reject() {
        let reg = retail_registry();
        // Q1: the TagId class covers all three slots, including the
        // negated counter reading — one routing key, three typed accessors.
        let (a, p) = analyze(Q1);
        let keys = routing_ok(&a, &p, &reg);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].per_type.len(), 3);
        assert!(keys[0]
            .per_type
            .windows(2)
            .all(|w| w[0].type_id < w[1].type_id));
        assert!(keys[0]
            .per_type
            .iter()
            .all(|t| t.attr_lc.as_ref() == "tagid"));

        // The partition part does not cover the negated slot: a
        // counterexample could land on another shard, so no routing key.
        let (a, p) = analyze(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = z.TagId WITHIN 10",
        );
        let verdicts: Vec<_> = routing_keys(a.partition.as_ref().unwrap(), &p, &reg).collect();
        assert!(
            matches!(
                &verdicts[..],
                [Err(RoutingRejection::UncoveredSlot { var, negated: true })] if &**var == "y"
            ),
            "{verdicts:?}"
        );
    }

    #[test]
    fn routing_candidate_key_extraction_is_typed() {
        use crate::value::Value;
        let reg = retail_registry();
        let (a, p) = analyze("EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId");
        let keys = routing_ok(&a, &p, &reg);
        assert_eq!(keys.len(), 1);
        let e = reg
            .build_event(
                "SHELF_READING",
                1,
                vec![Value::Int(7), Value::str("p"), Value::Int(1)],
            )
            .unwrap();
        let tk = keys[0]
            .per_type
            .iter()
            .find(|t| t.type_id == e.type_id())
            .unwrap();
        assert_eq!(tk.key_of(&e), Some(ValueKey::Int(7)));
    }
}
