//! The runtime: pipelined operators executing a [`QueryPlan`].
//!
//! A [`QueryRuntime`] is one running continuous query. Per arriving event it
//! drives the dataflow of §2.1.2: the native sequence operator at the bottom
//! (SSC over Active Instance Stacks, with the window pushed into the scan),
//! pipelining constructed sequences through negation and transformation.
//!
//! ## What an offer touches
//!
//! When a runtime is built it compiles its plan's per-offer path into one
//! flat *offer table*, a single allocation. Its rows are the positive
//! components in the descending order the sequence scan walks them, then
//! the negated components in pattern order. Each row holds:
//!
//! * the candidate type: one id inline, a slice for `ANY(...)`;
//! * the pattern slot, and the positive (or negation) index;
//! * whether the pattern slot has element filters;
//! * the partition-key accessors, one per key part, the first inline
//!   (none for unpartitioned SSC and for a negation buffered flat), and
//!   their id in the key table.
//!
//! Beside the rows sit the positive count and the window; a query has
//! negations exactly when rows follow its positive ones. An offer reads a
//! row per component and the operators' own state: the type match, the
//! event's key slot, and two array loads from that slot to the partition
//! (or negation bucket). It reaches the plan only to run element filters
//! that exist and to construct sequences.
//!
//! The partition's entry holds the rest: for up to two positive
//! components its stacks, and in each stack the oldest retained instance
//! with its timestamp (see [`ais`]). So an offer to a partition whose
//! stacks hold at most one instance each, which is almost every partition
//! when keys are many and windows short, prunes, appends and constructs
//! without reading a heap buffer of the index; dropping an expired
//! instance still reaches its event. Only instances behind a stack's head
//! live in its tail ring.
//!
//! The partition keys themselves live in one `KeyTable` per engine (see
//! the private `keys` module), which maps each live key to a dense `u32`
//! key slot. The engine begins every offer, of an input or a derived
//! event, with an empty memo: the first row of any routed query that needs
//! the key through a given accessor extracts and interns it, and every
//! later row with an equal accessor reuses the slot. In the fan-in shape, where each
//! event reaches two queries partitioned on the same attribute, that is
//! one hash probe per event instead of one per query. Each query indexes
//! its groups and buckets by key slot: 4 B per slot the table has room
//! for, plus its own entries. A single-part key is interned from a value
//! on the stack, a longer one from a reused buffer, so steady state
//! allocates nothing.
//!
//! The plan, by contrast, keeps the same facts a dozen dependent loads
//! apart (pattern → positive slots → elements → type ids; element
//! filters; partition → parts → per-slot attributes → accessor;
//! negations), spread over each query's separate allocations. The table is
//! derived state, like SSC's construction filters by index, and so are key
//! slot ids: snapshots write events, and output does not depend on either.

pub mod ais;
pub mod binding;
mod keys;
pub mod negation;
pub mod ssc;
pub mod transform;

pub use binding::MatchBinding;
pub(crate) use keys::KeyTable;

use std::sync::Arc;

use crate::error::{Result, SaseError};
use crate::event::{Event, EventTypeId};
use crate::expr::SlotProbe;
use crate::output::ComplexEvent;
use crate::plan::QueryPlan;
use crate::program::AttrAccess;
use crate::snapshot::{mismatch, EntrySnapshot, EventTable, Place, QuerySnapshot};
use crate::time::{LogicalDuration, Timestamp};
use crate::value::{Value, ValueKey};

use negation::NegationOperator;
use ssc::SscOperator;

/// Counters exposed by a running query; these power the experiment tables
/// (intermediate result sizes, pruning effectiveness, negation work).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Events offered to the query.
    pub events_processed: u64,
    /// Instances appended to Active Instance Stacks. A single-component
    /// query completes a match with each event it binds and stores none,
    /// so this counts only instances some later event can extend.
    pub instances_appended: u64,
    /// Instances dropped by window pruning.
    pub instances_pruned: u64,
    /// Sequences produced by the sequence operator (before negation and
    /// post-filters).
    pub sequences_constructed: u64,
    /// Construction-filter rejections during sequence construction.
    pub construction_filter_rejects: u64,
    /// Matches killed by a negation counterexample.
    pub dropped_by_negation: u64,
    /// Counterexample candidates buffered by the negation operator.
    pub negation_candidates_buffered: u64,
    /// Composite events emitted.
    pub matches_emitted: u64,
    /// Current number of PAIS partitions holding an instance.
    pub partitions: u64,
    /// Evaluation errors: a `WHERE` conjunct taken as false, a `RETURN`
    /// whose match was dropped, or a derived event dropped (counted on its
    /// producer). See [`crate::processor`] for the rule.
    pub eval_errors: u64,
}

impl RuntimeStats {
    /// The counters as `(label, value, is_monotonic)` rows, in a fixed
    /// presentation order. Monotonic rows export as Prometheus counters;
    /// the rest (`partitions`) as gauges.
    pub fn rows(&self) -> [(&'static str, u64, bool); 10] {
        [
            ("events_processed", self.events_processed, true),
            ("instances_appended", self.instances_appended, true),
            ("instances_pruned", self.instances_pruned, true),
            ("sequences_constructed", self.sequences_constructed, true),
            (
                "construction_filter_rejects",
                self.construction_filter_rejects,
                true,
            ),
            ("dropped_by_negation", self.dropped_by_negation, true),
            (
                "negation_candidates_buffered",
                self.negation_candidates_buffered,
                true,
            ),
            ("matches_emitted", self.matches_emitted, true),
            ("partitions", self.partitions, false),
            ("eval_errors", self.eval_errors, true),
        ]
    }

    /// Render the counters as an aligned two-column table (label left,
    /// value right), one row per counter — what the repl's
    /// `stats <query>` prints.
    pub fn render_table(&self) -> String {
        let rows = self.rows();
        let label_w = rows.iter().map(|(l, _, _)| l.len()).max().unwrap_or(0);
        let value_w = rows
            .iter()
            .map(|(_, v, _)| v.to_string().len())
            .max()
            .unwrap_or(1);
        let mut out = String::new();
        for (label, value, _) in rows {
            out.push_str(&format!("{label:<label_w$}  {value:>value_w$}\n"));
        }
        out
    }

    /// Export the counters into a metrics snapshot as per-query series
    /// (`sase_query_<counter>{query="…"}`), counters and gauges per
    /// [`RuntimeStats::rows`]. This is how every deployment's
    /// `metrics()` surface promotes per-query runtime counters into the
    /// registry view without putting atomics on the per-event path.
    pub fn export_metrics(&self, query: &str, snap: &mut sase_obs::MetricsSnapshot) {
        for (label, value, monotonic) in self.rows() {
            let value = if monotonic {
                sase_obs::MetricValue::Counter(value)
            } else {
                sase_obs::MetricValue::Gauge(value as f64)
            };
            snap.push(format!("sase_query_{label}"), &[("query", query)], value);
        }
    }
}

impl std::fmt::Display for RuntimeStats {
    /// The aligned table of [`RuntimeStats::render_table`], without the
    /// trailing newline.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.render_table().trim_end_matches('\n'))
    }
}

/// The candidate event types of one component: one id inline, or the
/// slice of an `ANY(...)`.
#[derive(Debug)]
enum TypeMatch {
    One(EventTypeId),
    Any(Box<[EventTypeId]>),
}

impl TypeMatch {
    fn new(ids: &[EventTypeId]) -> Self {
        match ids {
            [one] => TypeMatch::One(*one),
            _ => TypeMatch::Any(ids.into()),
        }
    }

    #[inline]
    fn matches(&self, ty: EventTypeId) -> bool {
        match self {
            TypeMatch::One(id) => *id == ty,
            TypeMatch::Any(ids) => ids.contains(&ty),
        }
    }
}

/// How one component's events reach their partition key.
#[derive(Debug, Clone)]
enum KeyAccess {
    /// Unpartitioned SSC, or a negation buffered flat: every event has the
    /// empty key.
    Unkeyed,
    /// One accessor per partition part, in part order, the first inline.
    Keyed {
        first: AttrAccess,
        rest: Box<[AttrAccess]>,
    },
}

impl KeyAccess {
    fn new(mut parts: impl Iterator<Item = AttrAccess>) -> Self {
        match parts.next() {
            None => KeyAccess::Unkeyed,
            Some(first) => KeyAccess::Keyed {
                first,
                rest: parts.collect(),
            },
        }
    }

    /// The partition key of `event`, or `None` when the event lacks a key
    /// attribute (it can never satisfy the equivalence test). A single-part
    /// key lands in `one`, a slot on the caller's stack; a longer one in
    /// the reused `scratch` buffer.
    #[inline]
    fn extract<'k>(
        &self,
        event: &Event,
        one: &'k mut Option<ValueKey>,
        scratch: &'k mut Vec<ValueKey>,
    ) -> Option<&'k [ValueKey]> {
        let KeyAccess::Keyed { first, rest } = self else {
            return Some(&[]);
        };
        let head = first.key_of(event)?;
        if rest.is_empty() {
            return Some(std::slice::from_ref(one.insert(head)));
        }
        scratch.clear();
        scratch.push(head);
        for access in rest.iter() {
            scratch.push(access.key_of(event)?);
        }
        Some(scratch.as_slice())
    }
}

/// Accessors are equal when they read the same attributes of any one
/// event: the same positions, or the same names resolved per event type.
/// Rows with equal accessors share the key of an offered event.
impl PartialEq for KeyAccess {
    fn eq(&self, other: &Self) -> bool {
        fn same(a: &AttrAccess, b: &AttrAccess) -> bool {
            match (a, b) {
                (AttrAccess::Pos(x), AttrAccess::Pos(y)) => x == y,
                (AttrAccess::Timestamp, AttrAccess::Timestamp) => true,
                (
                    AttrAccess::Dynamic { attr_lc: x, .. },
                    AttrAccess::Dynamic { attr_lc: y, .. },
                ) => x == y,
                _ => false,
            }
        }
        match (self, other) {
            (KeyAccess::Unkeyed, KeyAccess::Unkeyed) => true,
            (
                KeyAccess::Keyed { first, rest },
                KeyAccess::Keyed {
                    first: first2,
                    rest: rest2,
                },
            ) => {
                same(first, first2)
                    && rest.len() == rest2.len()
                    && rest.iter().zip(rest2.iter()).all(|(a, b)| same(a, b))
            }
            _ => false,
        }
    }
}

/// One component's row of an [`OfferTable`].
#[derive(Debug)]
struct OfferRow {
    types: TypeMatch,
    /// Whether the slot has element filters: an offer reaches the plan
    /// only to run filters that exist.
    filtered: bool,
    slot: usize,
    /// The positive index (SSC rows) or the negation index (negation rows).
    index: usize,
    key: KeyAccess,
    /// The id of `key` in the [`KeyTable`] the query was registered with.
    accessor: u32,
}

impl OfferRow {
    /// The slot of `event`'s key in `keys`, or `None` when the event lacks
    /// a key attribute.
    #[inline]
    fn slot(&self, keys: &mut KeyTable, event: &Event) -> Option<u32> {
        keys.slot_of(self.accessor, &self.key, event)
    }

    /// Can `event` bind this component: one of its types, passing its
    /// element filters? A filter that fails to evaluate counts as false
    /// and adds to `errors`.
    #[inline]
    fn admits(&self, plan: &QueryPlan, event: &Event, errors: &mut u64) -> bool {
        if !self.types.matches(event.type_id()) {
            return false;
        }
        if !self.filtered {
            return true;
        }
        let probe = SlotProbe {
            slot: self.slot,
            event,
        };
        (plan.element_filters[self.slot].iter()).all(|f| f.holds(&probe, errors))
    }
}

/// A query's per-offer path, compiled from its plan (see the module
/// documentation for its layout and cost).
#[derive(Debug)]
pub(crate) struct OfferTable {
    /// Positive components in descending positive order, then negated
    /// components in pattern order.
    rows: Box<[OfferRow]>,
    /// How many leading rows are positive components.
    positives: usize,
    window: Option<LogicalDuration>,
}

impl OfferTable {
    /// Compile `plan`'s offer path, registering its key accessors in
    /// `keys`.
    fn new(plan: &QueryPlan, keys: &mut KeyTable) -> Self {
        let pattern = &plan.pattern;
        let positives = (0..pattern.positive_len()).rev().map(|i| {
            let elem = pattern.positive_elem(i);
            let parts = plan.partition.iter().flat_map(|spec| &spec.parts);
            OfferRow {
                types: TypeMatch::new(&elem.type_ids),
                filtered: !plan.element_filters[elem.slot].is_empty(),
                slot: elem.slot,
                index: i,
                key: KeyAccess::new(parts.map(|part| {
                    part.key_for_slot(elem.slot)
                        .expect("a partition part covers every positive slot")
                        .access()
                        .clone()
                })),
                accessor: 0,
            }
        });
        let negations = plan.negations.iter().enumerate().map(|(ni, neg)| OfferRow {
            types: TypeMatch::new(&neg.type_ids),
            filtered: !plan.element_filters[neg.scope.slot].is_empty(),
            slot: neg.scope.slot,
            index: ni,
            key: KeyAccess::new(
                neg.partition_attrs
                    .iter()
                    .flatten()
                    .map(|attr| attr.access().clone()),
            ),
            accessor: 0,
        });
        let mut rows: Box<[OfferRow]> = positives.chain(negations).collect();
        for row in rows.iter_mut() {
            row.accessor = keys.accessor(&row.key);
        }
        OfferTable {
            rows,
            positives: pattern.positive_len(),
            window: plan.window,
        }
    }

    /// The positive components, in the order the sequence scan walks them.
    fn positives(&self) -> &[OfferRow] {
        &self.rows[..self.positives]
    }

    /// The negated components; empty when the query has no negation.
    fn negations(&self) -> &[OfferRow] {
        &self.rows[self.positives..]
    }
}

/// One place holding a retained event, as a snapshot orders it: the
/// event's timestamp, the key of its partition or bucket, the place, its
/// position there, and the event.
pub(crate) type Held<'a> = (Timestamp, &'a [ValueKey], Place, usize, &'a Event);

/// Re-append each of `entries`' events, indexes into `events`, to the
/// place it names in `seq` or `negation`, which `offers` was compiled for.
fn refill(
    offers: &OfferTable,
    entries: &[EntrySnapshot],
    events: &[Event],
    keys: &mut KeyTable,
    seq: &mut SscOperator,
    negation: &mut NegationOperator,
) -> Result<()> {
    let mut last = 0;
    for entry in entries {
        let event = events.get(entry.event as usize).ok_or_else(|| {
            mismatch(format!(
                "an entry names event {} of a table of {}",
                entry.event,
                events.len()
            ))
        })?;
        let ts = event.timestamp();
        if ts < last {
            return Err(mismatch(format!(
                "timestamps go backwards ({ts} after {last})"
            )));
        }
        last = ts;
        let row = match entry.place {
            Place::Stack(i) => offers.positives().iter().rev().nth(i as usize),
            Place::Negation(i) => offers.negations().get(i as usize),
        };
        let place = entry.place;
        let row = row.ok_or_else(|| mismatch(format!("the plan has no {place:?}")))?;
        if !row.types.matches(event.type_id()) {
            return Err(mismatch(format!(
                "a `{}` event in {place:?}, whose component does not bind it",
                event.type_name()
            )));
        }
        keys.begin_offer();
        let placed = match place {
            Place::Stack(_) => seq.restore(row, keys, event),
            Place::Negation(_) => negation.restore(row, keys, event),
        };
        if !placed {
            return Err(mismatch(format!(
                "a `{}` event in {place:?} lacks its key attribute",
                event.type_name()
            )));
        }
    }
    Ok(())
}

/// The public keyed methods of [`QueryRuntime`] run on its private key
/// table, which only an engine's runtimes lack, and the engine never
/// hands those out.
const OWN_KEYS: &str = "a runtime used on its own owns a key table";

/// One running continuous query.
///
/// Inside an [`Engine`](crate::engine::Engine) the query's partition keys
/// live in the engine's key table, shared with every other query; a
/// runtime used on its own keeps a private table, so its public methods
/// run the same keyed code.
#[derive(Debug)]
pub struct QueryRuntime {
    name: Arc<str>,
    plan: Arc<QueryPlan>,
    offers: OfferTable,
    seq: SscOperator,
    negation: NegationOperator,
    stats: RuntimeStats,
    last_ts: Option<Timestamp>,
    /// The matches SSC constructed for the current event, flat: one event
    /// per positive component, match after match. Negation probes them in
    /// place; only survivors leave, moved into their emission.
    matches: Vec<Event>,
    /// Reused buffer the RETURN values of an emission are evaluated into.
    values: Vec<(Arc<str>, Value)>,
    /// The key table of a runtime used on its own; `None` inside an
    /// engine. Boxed, so a standalone call moves it in and out as one
    /// pointer.
    keys: Option<Box<KeyTable>>,
}

impl QueryRuntime {
    /// Instantiate a plan as a running query.
    pub fn new(name: impl AsRef<str>, plan: QueryPlan) -> Self {
        let mut keys = Box::default();
        let mut runtime = Self::in_table(name, plan, &mut keys);
        runtime.keys = Some(keys);
        runtime
    }

    /// Instantiate a plan as a running query whose partition keys live in
    /// `keys`, which every later keyed call must be given.
    pub(crate) fn in_table(name: impl AsRef<str>, plan: QueryPlan, keys: &mut KeyTable) -> Self {
        let plan = Arc::new(plan);
        let offers = OfferTable::new(&plan, keys);
        let seq = SscOperator::new(plan.clone());
        let negation = NegationOperator::new(plan.clone());
        QueryRuntime {
            name: Arc::from(name.as_ref()),
            plan,
            offers,
            seq,
            negation,
            stats: RuntimeStats::default(),
            last_ts: None,
            matches: Vec::new(),
            values: Vec::new(),
            keys: None,
        }
    }

    /// The query name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Counters so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Process one event, appending emitted composite events to `out`.
    ///
    /// Events must arrive in non-decreasing timestamp order (the Time
    /// Conversion Layer guarantees this); regressions are rejected because
    /// stack and buffer pruning assume temporal order. Inside an engine,
    /// the stream clocks enforce the order instead.
    pub fn process(&mut self, event: &Event, out: &mut Vec<ComplexEvent>) -> Result<()> {
        if let Some(last) = self.last_ts.filter(|&last| event.timestamp() < last) {
            return Err(SaseError::engine(format!(
                "out-of-order event: timestamp {} after {last} (query `{}`)",
                event.timestamp(),
                self.name
            )));
        }
        let mut keys = self.keys.take().expect(OWN_KEYS);
        keys.begin_offer();
        self.offer(&mut keys, event, out);
        self.keys = Some(keys);
        Ok(())
    }

    /// [`QueryRuntime::process`] with the keys in `keys`, inside an offer
    /// the caller began, on an event no older than the last one offered.
    #[inline]
    pub(crate) fn offer(
        &mut self,
        keys: &mut KeyTable,
        event: &Event,
        out: &mut Vec<ComplexEvent>,
    ) {
        self.last_ts = Some(event.timestamp());
        self.stats.events_processed += 1;

        // Buffer negation counterexamples first; the open-interval scope
        // makes the relative order with sequence processing immaterial for
        // the current event. `events_processed` paces the sweep of idle
        // negation buckets, so a restored runtime sweeps when the original
        // would have.
        self.negation
            .observe(&self.offers, keys, event, &mut self.stats);
        if let Some(w) = self.offers.window {
            if self.stats.events_processed % ssc::SWEEP_PERIOD as u64 == 0 {
                self.negation
                    .prune_before(event.timestamp().saturating_sub(w), keys);
            }
        }

        self.seq.on_event(
            &self.offers,
            keys,
            event,
            &mut self.stats,
            &mut self.matches,
        );

        // Each match is probed in place; a survivor's events then move out
        // of the buffer into its emission's one shared slice. A `RETURN`
        // that fails to evaluate drops its match.
        let n = self.offers.positives;
        let mut matches = self.matches.drain(..);
        while let Some(m) = matches.as_slice().get(..n) {
            let slot = self.seq.match_slot();
            if !self.negation.allows(m, slot, &mut self.stats.eval_errors) {
                self.stats.dropped_by_negation += 1;
                matches.by_ref().take(n).for_each(drop);
                continue;
            }
            let events = matches.by_ref().take(n).collect();
            match transform::transform(&self.plan, &self.name, events, &mut self.values) {
                Ok(ce) => {
                    self.stats.matches_emitted += 1;
                    out.push(ce);
                }
                Err(_) => self.stats.eval_errors += 1,
            }
        }
    }

    /// Count an evaluation error of this query that its engine met: a
    /// derived event it produced was dropped.
    pub(crate) fn count_eval_error(&mut self) {
        self.stats.eval_errors += 1;
    }

    /// This query's part of an engine snapshot: its counters, its clocks
    /// and an entry per place holding an event, the event as its index in
    /// `table`, in the canonical order of [`crate::snapshot`].
    pub(crate) fn snapshot_in(&self, keys: &KeyTable, table: &mut EventTable) -> QuerySnapshot {
        let mut held: Vec<Held<'_>> = self
            .seq
            .held(keys)
            .chain(self.negation.held(keys))
            .collect();
        held.sort_unstable_by(|a, b| (a.0, a.1, a.2, a.3).cmp(&(b.0, b.1, b.2, b.3)));
        QuerySnapshot {
            name: self.name.to_string(),
            stats: self.stats.clone(),
            last_ts: self.last_ts,
            events_since_sweep: self.seq.events_since_sweep as u64,
            entries: (held.iter())
                .map(|&(.., place, _, event)| EntrySnapshot {
                    event: table.index_of(event),
                    place,
                })
                .collect(),
        }
    }

    /// Replace this runtime's state with `snap`'s: re-append each entry's
    /// event, taken from `events` (the snapshot's rebuilt event table), to
    /// the place it names (see [`crate::snapshot`]).
    ///
    /// The runtime must have been built from the same query as the
    /// snapshotted one (the engine restore protocol guarantees this by
    /// re-registering queries before restoring); mismatches are rejected
    /// with a typed error, never applied halfway — nothing is modified
    /// unless every entry fits.
    pub(crate) fn restore_in(
        &mut self,
        snap: &QuerySnapshot,
        events: &[Event],
        keys: &mut KeyTable,
    ) -> Result<()> {
        if snap.name != self.name.as_ref() {
            return Err(mismatch(format!(
                "snapshot is of query `{}`, runtime is `{}`",
                snap.name, self.name
            )));
        }
        // Rebuild both operators before touching any state, so a
        // mid-restore failure leaves the runtime unchanged.
        let mut seq = SscOperator::new(self.plan.clone());
        let mut negation = NegationOperator::new(self.plan.clone());
        let refilled = refill(
            &self.offers,
            &snap.entries,
            events,
            keys,
            &mut seq,
            &mut negation,
        );
        if let Err(e) = refilled {
            seq.release(keys);
            negation.release(keys);
            return Err(e);
        }
        self.release(keys);
        seq.events_since_sweep = snap.events_since_sweep as usize;
        self.seq = seq;
        self.negation = negation;
        self.stats = snap.stats.clone();
        self.last_ts = snap.last_ts;
        Ok(())
    }

    /// Release every key this runtime holds in `keys`: the runtime is
    /// being dropped or its state replaced.
    pub(crate) fn release(&mut self, keys: &mut KeyTable) {
        self.seq.release(keys);
        self.negation.release(keys);
    }

    /// Memory footprint indicators: retained stack instances plus buffered
    /// negation candidates.
    pub fn retained_state(&self) -> (usize, usize) {
        (self.seq.retained_instances(), self.negation.buffered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{retail_registry, SchemaRegistry};
    use crate::functions::FunctionRegistry;
    use crate::lang::parse_query;
    use crate::plan::Planner;
    use crate::value::{Value, ValueType};

    fn runtime_on(reg: &SchemaRegistry, src: &str) -> QueryRuntime {
        let planner = Planner::new(reg.clone(), FunctionRegistry::with_stdlib());
        let q = parse_query(src).unwrap();
        let plan = planner.plan(&q).unwrap();
        QueryRuntime::new("test", plan)
    }

    fn runtime(src: &str) -> (QueryRuntime, SchemaRegistry) {
        let reg = retail_registry();
        (runtime_on(&reg, src), reg)
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("soap"), Value::Int(area)],
        )
        .unwrap()
    }

    const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                      WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 1000 \
                      RETURN x.TagId, x.ProductName, z.AreaId";

    #[test]
    fn q1_shoplifting_detection() {
        let (mut rt, reg) = runtime(Q1);
        // Tag 7 is shoplifted; tag 8 checks out properly.
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "SHELF_READING", 2, 8, 1),
            ev(&reg, "COUNTER_READING", 3, 8, 3),
            ev(&reg, "EXIT_READING", 4, 8, 4),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        let mut out = Vec::new();
        for e in &events {
            rt.process(e, &mut out).unwrap();
        }
        assert_eq!(out.len(), 1);
        let ce = &out[0];
        assert_eq!(ce.value("x.TagId"), Some(&Value::Int(7)));
        assert_eq!(ce.value("z.AreaId"), Some(&Value::Int(4)));
        assert_eq!(rt.stats().dropped_by_negation, 1);
        assert_eq!(rt.stats().matches_emitted, 1);
    }

    #[test]
    fn q1_all_strategies_agree() {
        let reg = retail_registry();
        let mut events = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for k in 0..300u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let ty = match state % 4 {
                0 => "SHELF_READING",
                1 => "COUNTER_READING",
                2 => "EXIT_READING",
                _ => "SHELF_READING",
            };
            let tag = ((state >> 16) % 6) as i64;
            events.push(ev(&reg, ty, k + 1, tag, ((state >> 24) % 4) as i64));
        }
        // Q1, and Q1 reworded so its tag equalities are no longer plain
        // attribute equalities: no equivalence class forms, so the plan
        // picks unpartitioned SSC and a flat negation buffer.
        let flat = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                    WHERE x.TagId + 0 = y.TagId AND x.TagId + 0 = z.TagId WITHIN 1000 \
                    RETURN x.TagId, x.ProductName, z.AreaId";
        let mut results: Vec<Vec<Vec<u64>>> = Vec::new();
        for src in [Q1, flat] {
            let (mut rt, _) = runtime(src);
            assert_eq!(
                rt.plan().partition.is_some(),
                src == Q1,
                "{}",
                rt.plan().explain()
            );
            let mut out = Vec::new();
            for e in &events {
                rt.process(e, &mut out).unwrap();
            }
            let mut canon: Vec<Vec<u64>> = out
                .iter()
                .map(|ce| ce.events.iter().map(|e| e.timestamp()).collect())
                .collect();
            canon.sort();
            results.push(canon);
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
        assert!(
            !results[0].is_empty(),
            "workload should produce at least one match"
        );
    }

    /// The key `rows[row]` of `rt`'s offer table extracts from `event`.
    fn key_at(rt: &QueryRuntime, row: usize, event: &Event) -> Option<Vec<ValueKey>> {
        let mut one = None;
        let mut scratch = Vec::new();
        rt.offers.rows[row]
            .key
            .extract(event, &mut one, &mut scratch)
            .map(<[ValueKey]>::to_vec)
    }

    #[test]
    fn offer_table_rows_follow_the_plan() {
        let (rt, _) = runtime(Q1);
        let t = &rt.offers;
        let positives: Vec<(usize, usize)> =
            t.positives().iter().map(|r| (r.index, r.slot)).collect();
        // Descending positive order; the negated slot 1 follows.
        assert_eq!(positives, vec![(1, 2), (0, 0)]);
        assert_eq!(t.negations().len(), 1);
        assert_eq!((t.negations()[0].index, t.negations()[0].slot), (0, 1));
        assert_eq!(t.window, Some(1000));
        assert!(t.rows.iter().all(|r| !r.filtered));
        assert!(t
            .rows
            .iter()
            .all(|r| matches!(r.key, KeyAccess::Keyed { ref rest, .. } if rest.is_empty())));

        // A pushed filter marks its row; ANY keeps its candidate slice; no
        // negation leaves no negation rows.
        let (rt, reg) = runtime(
            "EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) a, EXIT_READING b) \
             WHERE a.TagId = b.TagId AND b.AreaId > 1",
        );
        let t = &rt.offers;
        assert!(t.negations().is_empty());
        assert_eq!(t.window, None);
        assert!(t.positives()[0].filtered && !t.positives()[1].filtered);
        assert!(matches!(&t.positives()[1].types, TypeMatch::Any(ids) if ids.len() == 2));
        let counter = reg.type_id("COUNTER_READING").unwrap();
        assert!(t.positives()[1].types.matches(counter));
        assert!(!t.positives()[0].types.matches(counter));
    }

    #[test]
    fn offer_table_extracts_every_key_shape() {
        let (rt, reg) =
            runtime("EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId");
        let shelf = ev(&reg, "SHELF_READING", 5, 42, 1);
        assert_eq!(key_at(&rt, 1, &shelf), Some(vec![ValueKey::Int(42)]));

        // Two parts, in part order, through the reused buffer.
        let two = runtime_on(
            &reg,
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId AND x.ProductName = z.ProductName",
        );
        let mut key = key_at(&two, 1, &shelf).unwrap();
        key.sort();
        assert_eq!(key, vec![ValueKey::Int(42), ValueKey::Str("soap".into())]);

        // The timestamp pseudo-attribute.
        let ts = runtime_on(
            &reg,
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.Timestamp = z.Timestamp",
        );
        assert!(matches!(
            ts.offers.positives()[1].key,
            KeyAccess::Keyed {
                first: AttrAccess::Timestamp,
                ..
            }
        ));
        assert_eq!(key_at(&ts, 1, &shelf), Some(vec![ValueKey::Int(5)]));

        // Unpartitioned: the empty key.
        let flat = runtime_on(
            &reg,
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId + 0 = z.TagId",
        );
        assert_eq!(key_at(&flat, 1, &shelf), Some(Vec::new()));

        // An ANY component whose key attribute sits at a different
        // position in each candidate type resolves per event type.
        let mixed = SchemaRegistry::new();
        mixed
            .register(
                "A",
                &[("TagId", ValueType::Int), ("AreaId", ValueType::Int)],
            )
            .unwrap();
        mixed
            .register(
                "B",
                &[("AreaId", ValueType::Int), ("TagId", ValueType::Int)],
            )
            .unwrap();
        let any = runtime_on(
            &mixed,
            "EVENT SEQ(ANY(A, B) a, A z) WHERE a.TagId = z.TagId WITHIN 10",
        );
        assert!(matches!(
            any.offers.positives()[1].key,
            KeyAccess::Keyed {
                first: AttrAccess::Dynamic { .. },
                ..
            }
        ));
        let a = mixed
            .build_event("A", 1, vec![Value::Int(7), Value::Int(1)])
            .unwrap();
        let b = mixed
            .build_event("B", 2, vec![Value::Int(1), Value::Int(7)])
            .unwrap();
        for e in [&a, &b, &a] {
            assert_eq!(key_at(&any, 1, e), Some(vec![ValueKey::Int(7)]));
        }
    }

    #[test]
    fn out_of_order_rejected() {
        let (mut rt, reg) = runtime(Q1);
        let mut out = Vec::new();
        rt.process(&ev(&reg, "SHELF_READING", 10, 1, 1), &mut out)
            .unwrap();
        let err = rt.process(&ev(&reg, "SHELF_READING", 5, 1, 1), &mut out);
        assert!(err.is_err());
        // Equal timestamps are accepted.
        rt.process(&ev(&reg, "SHELF_READING", 10, 2, 1), &mut out)
            .unwrap();
    }

    #[test]
    fn retained_state_reports() {
        let (mut rt, reg) = runtime(Q1);
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "COUNTER_READING", 2, 7, 3),
        ];
        for e in &events {
            rt.process(e, &mut Vec::new()).unwrap();
        }
        let (instances, neg) = rt.retained_state();
        assert_eq!(instances, 1);
        assert_eq!(neg, 1);
    }

    #[test]
    fn a_single_component_query_keeps_no_instances() {
        // The archive rule's shape: no window, so a stored instance would
        // never be pruned.
        let (mut rt, reg) = runtime("EVENT ANY(SHELF_READING, EXIT_READING) x RETURN x.TagId");
        let mut out = Vec::new();
        for k in 0..10_000u64 {
            let ty = if k % 2 == 0 {
                "SHELF_READING"
            } else {
                "EXIT_READING"
            };
            rt.process(&ev(&reg, ty, k + 1, (k % 64) as i64, 1), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 10_000);
        assert_eq!(rt.retained_state().0, 0);
        assert_eq!(rt.stats().instances_appended, 0);
        assert_eq!(rt.stats().sequences_constructed, 10_000);

        // A snapshot that still holds an instance of the query (one
        // converted from an old checkpoint may) restores without it; one
        // whose component cannot bind the event is still rejected.
        let engine = || {
            let mut engine = crate::engine::Engine::new(reg.clone());
            engine
                .register(
                    "archive",
                    "EVENT ANY(SHELF_READING, EXIT_READING) x RETURN x.TagId",
                )
                .unwrap();
            engine
        };
        let with_instance = |ty: &str| {
            let mut snap = engine().snapshot();
            let event = ev(&reg, ty, 10_000, 7, 1);
            snap.events
                .push(crate::snapshot::EventSnapshot::capture(&event));
            snap.queries[0].entries.push(EntrySnapshot {
                event: 0,
                place: Place::Stack(0),
            });
            snap
        };
        let mut restored = engine();
        restored.restore(&with_instance("SHELF_READING")).unwrap();
        assert_eq!(restored.snapshot().retained_events(), 0);
        let exit = ev(&reg, "EXIT_READING", 10_001, 7, 4);
        assert_eq!(restored.process_batch(&[exit]).unwrap().len(), 1);
        assert_eq!(restored.snapshot().retained_events(), 0);
        assert!(engine().restore(&with_instance("COUNTER_READING")).is_err());
    }

    #[test]
    fn q2_location_change() {
        let q2 = "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                  WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 3600 \
                  RETURN y.TagId, y.AreaId, y.Timestamp";
        let (mut rt, reg) = runtime(q2);
        let events = vec![
            ev(&reg, "SHELF_READING", 10, 7, 1),
            ev(&reg, "SHELF_READING", 20, 7, 1), // same area: no event
            ev(&reg, "SHELF_READING", 30, 7, 2), // moved
        ];
        let mut out = Vec::new();
        for e in &events {
            rt.process(e, &mut out).unwrap();
        }
        // Both earlier readings pair with the area-2 reading.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value("y.AreaId"), Some(&Value::Int(2)));
        assert_eq!(out[0].value("y.Timestamp"), Some(&Value::Int(30)));
    }
}
