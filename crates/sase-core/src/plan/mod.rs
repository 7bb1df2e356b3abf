//! Query plans.
//!
//! §2.1.2: SASE "is implemented using a query plan-based approach, that is,
//! a dataflow paradigm with pipelined operators as in relational query
//! processing". A [`QueryPlan`] is the compiled form of a query: the
//! sequence operator configuration at the bottom (SSC with Active Instance
//! Stacks, optionally partitioned — PAIS), followed by negation, window,
//! selection, and transformation stages.
//!
//! The [`PlannerOptions`] knobs correspond to the paper's optimizations
//! ("we strategically push some of the predicates and windows down to the
//! sequence operators") and are individually toggleable so the benchmark
//! suite can ablate them.

mod analysis;
mod planner;

pub(crate) use analysis::{routing_keys, RoutingRejection};
pub use analysis::{PartitionPart, PartitionSpec, RoutingKey, TypeKeyAccess, WhereAnalysis};
pub use planner::Planner;

use std::sync::Arc;

use crate::event::EventTypeId;
use crate::lang::ast::{AggFunc, Query};
use crate::nfa::Nfa;
use crate::pattern::{CompiledPattern, NegationScope};
use crate::program::PredicateProgram;
use crate::time::LogicalDuration;

/// Which sequence operator implements the EVENT clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SequenceStrategy {
    /// Sequence Scan & Construction over Active Instance Stacks — the
    /// paper's native sequence operator (optionally partitioned).
    #[default]
    Ssc,
    /// Direct NFA simulation keeping every partial run alive — the
    /// unoptimized baseline used by the benchmarks.
    Naive,
}

/// Planner knobs. Defaults match the paper's optimized configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Implement equivalence predicates by partitioning the instance
    /// stacks (PAIS). When off, equivalence tests run as ordinary
    /// predicates during sequence construction.
    pub pushdown_partition: bool,
    /// Enforce WITHIN during sequence scan and construction, pruning
    /// expired stack instances. When off, the window is a post-filter.
    pub pushdown_window: bool,
    /// Apply single-variable predicates before an event enters a stack.
    /// When off, they are evaluated during construction.
    pub pushdown_single_event_predicates: bool,
    /// Index negation candidate events by partition key. When off, each
    /// negation check scans all buffered candidates.
    pub indexed_negation: bool,
    /// Sequence operator choice.
    pub strategy: SequenceStrategy,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            pushdown_partition: true,
            pushdown_window: true,
            pushdown_single_event_predicates: true,
            indexed_negation: true,
            strategy: SequenceStrategy::Ssc,
        }
    }
}

impl PlannerOptions {
    /// The paper's fully-optimized configuration (the default).
    pub fn optimized() -> Self {
        Self::default()
    }

    /// Everything off: naive NFA simulation with post-filtering. The
    /// baseline configuration for the benchmark ablations.
    pub fn naive() -> Self {
        PlannerOptions {
            pushdown_partition: false,
            pushdown_window: false,
            pushdown_single_event_predicates: false,
            indexed_negation: false,
            strategy: SequenceStrategy::Naive,
        }
    }
}

/// A multi-variable predicate evaluated during sequence construction.
#[derive(Debug, Clone)]
pub struct ConstructionFilter {
    /// The compiled predicate program.
    pub expr: PredicateProgram,
    /// Smallest positive index referenced. Backward construction (from the
    /// last component towards the first) can evaluate the filter as soon as
    /// it has bound down to this index.
    pub min_positive: usize,
    /// Largest positive index referenced. Forward extension (the naive
    /// runner) can evaluate once it has bound up to this index.
    pub max_positive: usize,
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
    /// The sequence NFA over positive components.
    pub nfa: Arc<Nfa>,
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
    /// Options the plan was compiled with.
    pub options: PlannerOptions,
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
        let _ = writeln!(out, "strategy: {:?}", self.options.strategy);
        let _ = writeln!(out, "NFA: {}", self.nfa);
        match (&self.partition, self.options.pushdown_partition) {
            (Some(p), _) => {
                let _ = writeln!(out, "SSC: partitioned (PAIS), key = {p}");
            }
            (None, true) => {
                let _ = writeln!(out, "SSC: unpartitioned (no equivalence attribute found)");
            }
            (None, false) => {
                let _ = writeln!(out, "SSC: unpartitioned (partition pushdown disabled)");
            }
        }
        match (self.window, self.options.pushdown_window) {
            (Some(w), true) => {
                let _ = writeln!(out, "WITHIN {w} units: pushed into sequence scan");
            }
            (Some(w), false) => {
                let _ = writeln!(out, "WITHIN {w} units: post-construction filter");
            }
            (None, _) => {
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
                "construction filter (positives {}..={}): {:?}",
                f.min_positive, f.max_positive, f.expr
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
                n.partition_attrs.is_some() && self.options.indexed_negation,
            );
        }
        let _ = writeln!(out, "RETURN: {} items", self.return_plan.items.len());
        out
    }
}
