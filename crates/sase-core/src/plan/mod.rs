//! Query plans.
//!
//! §2.1.2: SASE "is implemented using a query plan-based approach, that is,
//! a dataflow paradigm with pipelined operators as in relational query
//! processing". A [`QueryPlan`] is the compiled form of a query: the
//! sequence operator configuration at the bottom (SSC with Active Instance
//! Stacks, optionally partitioned — PAIS), followed by negation, window,
//! selection, and transformation stages.
//!
//! Every plan applies the paper's optimizations ("we strategically push some
//! of the predicates and windows down to the sequence operators"): the
//! window and single-variable predicates always run inside the sequence
//! scan, and an equivalence class that covers every positive component
//! always becomes a PAIS partition. What a plan leaves out follows from the
//! query alone: no qualifying equivalence means unpartitioned SSC, and a
//! partition that does not cover a negated component means a flat negation
//! buffer for it.

mod analysis;
mod planner;

pub(crate) use analysis::{routing_keys, RoutingRejection};
pub use analysis::{PartitionPart, PartitionSpec, RoutingKey, TypeKeyAccess, WhereAnalysis};
pub use planner::{compile_query, Planner};

use std::sync::Arc;

use crate::event::EventTypeId;
use crate::lang::ast::{AggFunc, Query};
use crate::pattern::{CompiledPattern, NegationScope};
use crate::program::PredicateProgram;
use crate::time::LogicalDuration;

/// A multi-variable predicate evaluated during sequence construction.
#[derive(Debug, Clone)]
pub struct ConstructionFilter {
    /// The compiled predicate program.
    pub expr: PredicateProgram,
    /// Smallest positive index referenced. Backward construction (from the
    /// last component towards the first) can evaluate the filter as soon as
    /// it has bound down to this index.
    pub min_positive: usize,
}

/// The compiled form of one negated pattern component.
#[derive(Debug, Clone)]
pub struct NegationPlan {
    /// Structural scope (which positive components flank the negation).
    pub scope: NegationScope,
    /// Types of the negated component.
    pub type_ids: Vec<EventTypeId>,
    /// Single-variable predicates a candidate counterexample must satisfy
    /// (evaluated when buffering the candidate).
    pub filters: Vec<PredicateProgram>,
    /// Predicates relating the candidate to the positive bindings
    /// (evaluated per candidate during the non-occurrence check).
    pub checks: Vec<PredicateProgram>,
    /// When the partition covers the negated slot in every part, candidates
    /// can be bucketed by this per-slot key attribute list (one per part),
    /// position-resolved at plan time.
    pub partition_attrs: Option<Vec<analysis::KeyAttr>>,
}

pub use analysis::KeyAttr;

/// The compiled argument of a RETURN aggregate.
#[derive(Debug, Clone)]
pub enum CompiledAggArg {
    /// `count(*)` — number of positive events in the match.
    Star,
    /// Aggregate `attr` over every positive event that has it.
    AttrAll(Arc<str>),
    /// Aggregate over the single event in a slot (degenerate but legal).
    Slot {
        /// The pattern slot.
        slot: usize,
        /// The attribute.
        attr: Arc<str>,
    },
}

/// One compiled RETURN item.
#[derive(Debug, Clone)]
pub enum CompiledReturnItem {
    /// Scalar projection.
    Scalar {
        /// Output column name.
        name: Arc<str>,
        /// Compiled expression program.
        expr: PredicateProgram,
    },
    /// Aggregate over the composite event.
    Aggregate {
        /// Output column name.
        name: Arc<str>,
        /// The function.
        func: AggFunc,
        /// The argument.
        arg: CompiledAggArg,
    },
}

impl CompiledReturnItem {
    /// The output column name.
    pub fn name(&self) -> &Arc<str> {
        match self {
            CompiledReturnItem::Scalar { name, .. }
            | CompiledReturnItem::Aggregate { name, .. } => name,
        }
    }
}

/// The compiled RETURN clause.
#[derive(Debug, Clone, Default)]
pub struct ReturnPlan {
    /// Items in declaration order. Empty means "project every bound event"
    /// (a query with no RETURN still emits composite events).
    pub items: Vec<CompiledReturnItem>,
    /// Output stream name (`INTO`).
    pub into: Option<Arc<str>>,
}

/// A fully compiled query plan, ready to instantiate as a running pipeline.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The source AST (kept for display / the "Present Queries" window).
    pub query: Query,
    /// Compiled pattern structure.
    pub pattern: Arc<CompiledPattern>,
    /// Window width in logical time units (`None` = unbounded).
    pub window: Option<LogicalDuration>,
    /// PAIS partition specification, when enabled and derivable.
    pub partition: Option<PartitionSpec>,
    /// Data-parallel routing candidates: one per partition part whose key
    /// attribute covers every slot (negated ones included) and resolves
    /// statically for every candidate event type. Empty when the query
    /// cannot be distributed by partition key — the shard router then pins
    /// it to the designated non-partitioned worker.
    pub routing_keys: Vec<RoutingKey>,
    /// Per-slot single-variable predicates (slot-indexed; negated slots'
    /// entries filter negation candidates).
    pub element_filters: Vec<Vec<PredicateProgram>>,
    /// Multi-variable predicates over positive components.
    pub construction_filters: Vec<ConstructionFilter>,
    /// Negation stages, in pattern order.
    pub negations: Vec<NegationPlan>,
    /// Compiled RETURN clause.
    pub return_plan: ReturnPlan,
}

impl QueryPlan {
    /// The set of event types this query can react to (positive component
    /// types plus negation counterexample types), sorted and deduped.
    ///
    /// [`crate::engine::Engine`] builds its inverted routing index from
    /// this set: an event of any other type provably cannot change the
    /// query's state or output.
    pub fn relevant_types(&self) -> Vec<EventTypeId> {
        self.pattern.relevant_type_ids()
    }

    /// Multi-line EXPLAIN rendering of the operator pipeline.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Plan for:\n{}", self.query);
        match &self.partition {
            Some(p) => {
                let _ = writeln!(out, "SSC: partitioned (PAIS), key = {p}");
            }
            None => {
                let _ = writeln!(out, "SSC: unpartitioned (no equivalence attribute found)");
            }
        }
        match self.window {
            Some(w) => {
                let _ = writeln!(out, "WITHIN {w} units: pushed into sequence scan");
            }
            None => {
                let _ = writeln!(out, "WITHIN: unbounded");
            }
        }
        for (slot, filters) in self.element_filters.iter().enumerate() {
            for f in filters {
                let _ = writeln!(out, "filter[slot {slot}]: {f:?}");
            }
        }
        for f in &self.construction_filters {
            let _ = writeln!(
                out,
                "construction filter (from positive {}): {:?}",
                f.min_positive, f.expr
            );
        }
        for n in &self.negations {
            let _ = writeln!(
                out,
                "negation[slot {}] between positives {} and {}: {} checks, indexed={}",
                n.scope.slot,
                n.scope.after_positive,
                n.scope.before_positive,
                n.checks.len(),
                n.partition_attrs.is_some(),
            );
        }
        let _ = writeln!(out, "RETURN: {} items", self.return_plan.items.len());
        out
    }
}
