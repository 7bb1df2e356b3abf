//! Sequence Scan and Construction (SSC) — the native sequence operator.
//!
//! §2.1.2: the paper's plans are founded on "native sequence operators
//! based on a Non-deterministic Finite Automata based model", accelerated
//! by "novel sequence indexes" and by "indexing relevant events both in
//! temporal order and across value-based partitions".
//!
//! * **Sequence Scan**: each arriving event that can bind a positive
//!   component (and passes that component's pushed single-variable
//!   predicates) is appended to the component's Active Instance Stack with
//!   a RIP pointer (see [`super::ais`]). With PAIS the stacks are
//!   partitioned by the equivalence-attribute key, so events of different
//!   partitions never meet.
//! * **Sequence Construction**: when an instance lands in the *last* stack,
//!   all sequences ending at it are enumerated by walking RIP pointers
//!   backwards, applying window bounds and multi-variable predicates as
//!   early as their variables are bound. The walk binds each candidate by
//!   reference, never by an owned event: most candidates are rejected, and
//!   a rejected one costs neither an allocation nor a reference count.
//!   Completed matches are appended to the runtime's flat match buffer,
//!   `n` events each, where negation probes them before any is emitted.
//!
//! A single-component query keeps no stacks at all: each event it binds
//! completes a match on its own, and no later event could extend it.
//!
//! The partitions are indexed by key slot of the engine's key table (see
//! the runtime's `keys` module): the operator keeps its groups in a dense
//! array, with a key slot → group index of 4 B per slot the table has room
//! for. An unpartitioned plan keeps one group, under the empty key.
//!
//! Per arriving event, the operator walks the positive rows of its
//! runtime's offer table (see [`super`]): a type match and, only where the
//! slot has element filters, a run of them. Each component the event binds
//! then costs the event's key slot — extracted and interned once per offer
//! and accessor, for all queries — two array loads to its group, and a prune
//! of that group; only a new partition inserts. The plan is read again
//! only to construct sequences.
//!
//! The operator emits every match (skip-till-any-match semantics): each
//! combination of events, one per positive component, in strictly
//! increasing timestamp order, within the window, satisfying the pushed
//! predicates.

use crate::event::Event;
use crate::plan::{ConstructionFilter, QueryPlan};
use crate::snapshot::Place;

use super::ais::{AisGroup, Instance, Stack};
use super::binding::Suffix;
use super::keys::{KeyTable, SlotMap};
use super::{Held, OfferRow, OfferTable, RuntimeStats};

/// The SSC operator: one per running query.
#[derive(Debug)]
pub struct SscOperator {
    plan: std::sync::Arc<QueryPlan>,
    /// Stacks by slot of the partition key. Unpartitioned plans use the
    /// empty key.
    groups: SlotMap<AisGroup>,
    /// Construction filters grouped by the positive index at which they
    /// become evaluable during backward construction.
    filters_by_min: Vec<Vec<ConstructionFilter>>,
    pub(super) events_since_sweep: usize,
    /// Number of groups holding at least one instance.
    occupied: usize,
    /// The slot of the group the last event's matches were constructed
    /// in. An indexed negation buckets candidates under the same key, so it
    /// probes with this slot instead of extracting the key again.
    match_slot: u32,
}

/// Full-sweep period (events) for pruning partitions (and negation
/// buckets) that have not been touched recently. Purely a memory bound;
/// correctness never depends on it.
pub(super) const SWEEP_PERIOD: usize = 4096;

impl SscOperator {
    /// Build the operator for a plan.
    pub fn new(plan: std::sync::Arc<QueryPlan>) -> Self {
        let n = plan.pattern.positive_len();
        let mut filters_by_min = vec![Vec::new(); n];
        for f in &plan.construction_filters {
            filters_by_min[f.min_positive.min(n - 1)].push(f.clone());
        }
        SscOperator {
            plan,
            groups: SlotMap::default(),
            filters_by_min,
            events_since_sweep: 0,
            occupied: 0,
            match_slot: 0,
        }
    }

    /// The slot of the group the matches of the last
    /// [`SscOperator::on_event`] call were constructed in.
    pub(crate) fn match_slot(&self) -> u32 {
        self.match_slot
    }

    /// Number of partitions holding an instance (1 when unpartitioned
    /// and active).
    pub fn partition_count(&self) -> usize {
        self.occupied
    }

    /// The partitions, by slot.
    #[cfg(test)]
    pub(super) fn groups(&self) -> &SlotMap<AisGroup> {
        &self.groups
    }

    /// Total retained stack instances across partitions.
    pub fn retained_instances(&self) -> usize {
        self.groups.values().map(|g| g.retained()).sum()
    }

    /// Every retained instance, as a snapshot orders it.
    pub(crate) fn held<'a>(&'a self, keys: &'a KeyTable) -> impl Iterator<Item = Held<'a>> {
        self.groups.iter(keys).flat_map(|(key, group)| {
            (group.stacks().iter().enumerate()).flat_map(move |(i, stack)| {
                let place = Place::Stack(i as u32);
                (stack.instances().enumerate())
                    .map(move |(at, inst)| (inst.ts, key, place, at, &inst.event))
            })
        })
    }

    /// Re-append a restored `event` to the stack of `row`'s component, in
    /// the group of its key, with the previous stack's instance count as
    /// its RIP; `false` when the event lacks a key attribute. A
    /// single-component query keeps no stacks, so it drops the event.
    pub(super) fn restore(&mut self, row: &OfferRow, keys: &mut KeyTable, event: &Event) -> bool {
        let n = self.plan.pattern.positive_len();
        if n == 1 {
            return true;
        }
        let Some(slot) = row.slot(keys, event) else {
            return false;
        };
        let group = self
            .groups
            .get_or_insert_with(slot, keys, || AisGroup::new(n));
        if group.retained() == 0 {
            self.occupied += 1;
        }
        let i = row.index;
        let rip = if i == 0 {
            0
        } else {
            group.stack(i - 1).total()
        };
        group.stack_mut(i).push(Instance {
            event: event.clone(),
            ts: event.timestamp(),
            rip,
        });
        true
    }

    /// Drop every partition, releasing its key.
    pub(crate) fn release(&mut self, keys: &mut KeyTable) {
        self.groups.clear(keys);
        self.occupied = 0;
    }

    /// Process one event through the positive rows of `offers`, the table
    /// compiled from this operator's plan; appends every completed positive
    /// match to `out`, one event per positive component in pattern order.
    #[inline]
    pub(crate) fn on_event(
        &mut self,
        offers: &OfferTable,
        keys: &mut KeyTable,
        event: &Event,
        stats: &mut RuntimeStats,
        out: &mut Vec<Event>,
    ) {
        let n = offers.positives;
        let window = offers.window;

        // Periodic global sweep bounds memory of idle partitions.
        self.events_since_sweep += 1;
        if self.events_since_sweep >= SWEEP_PERIOD {
            self.events_since_sweep = 0;
            if let Some(w) = window {
                let min_ts = event.timestamp().saturating_sub(w);
                let mut pruned = 0u64;
                self.groups.retain(keys, |g| {
                    pruned += g.prune_before(min_ts) as u64;
                    g.retained() > 0
                });
                stats.instances_pruned += pruned;
                self.occupied = self.groups.len();
            }
        }

        // Descending component order (the rows' order) so an event binding
        // several components cannot become its own predecessor within this
        // arrival.
        for row in offers.positives() {
            if !row.admits(&self.plan, event, &mut stats.eval_errors) {
                continue;
            }
            let Some(slot) = row.slot(keys, event) else {
                // Missing key attribute: the equivalence predicate can
                // never hold for this event.
                continue;
            };
            let i = row.index;
            let ts = event.timestamp();
            let min_ts = window.map(|w| ts.saturating_sub(w));
            if n == 1 {
                // The event completes its match alone, and no later event
                // can extend it: a single-component query keeps no stacks.
                Construction {
                    plan: &self.plan,
                    filters_by_min: &self.filters_by_min,
                    stacks: &[],
                    min_ts,
                    stats,
                    out,
                }
                .run(event, 0);
                continue;
            }
            // An event that appends nothing creates no group. A group
            // emptied by pruning is kept for reuse until the next sweep, but
            // not counted: the partition count depends only on what is
            // retained, which is all a snapshot records.
            let group = match self.groups.get_mut(slot) {
                Some(group) => {
                    if let Some(min_ts) = min_ts {
                        let pruned = group.prune_before(min_ts);
                        if pruned > 0 {
                            stats.instances_pruned += pruned as u64;
                            if group.retained() == 0 {
                                self.occupied -= 1;
                            }
                        }
                    }
                    group
                }
                None if i > 0 => continue,
                None => self
                    .groups
                    .get_or_insert_with(slot, keys, || AisGroup::new(n)),
            };
            // An instance with no possible predecessor can never extend to
            // a match: predecessors must already be in the previous stack.
            if i > 0 && group.stack(i - 1).is_empty() {
                continue;
            }
            if group.retained() == 0 {
                self.occupied += 1;
            }
            let rip = if i == 0 {
                0
            } else {
                group.stack(i - 1).total()
            };
            group.stack_mut(i).push(Instance {
                event: event.clone(),
                ts,
                rip,
            });
            stats.instances_appended += 1;

            if i == n - 1 {
                let before = out.len();
                Construction {
                    plan: &self.plan,
                    filters_by_min: &self.filters_by_min,
                    stacks: group.stacks(),
                    min_ts,
                    stats,
                    out,
                }
                .run(event, rip);
                if out.len() > before {
                    self.match_slot = slot;
                }
            }
        }
        stats.partitions = self.occupied as u64;
    }
}

/// One sequence construction: enumerate every sequence ending at the
/// arriving event by backward RIP traversal of one group's stacks.
///
/// The walk is a recursion over the positive components, last to first.
/// Each candidate is bound by reference — the arriving event for the last
/// component, an instance's event for the others — as a link of a
/// [`Suffix`] on the stack frame that walks it, and the construction
/// filters that become evaluable at its component run against the suffix
/// before the walk descends. A candidate that is rejected, or whose walk
/// dies out, has cost neither an allocation nor a reference count; only a
/// completed match copies its events, into the caller's flat buffer. One
/// walk serves every component count: a single-component query binds the
/// arriving event and completes.
struct Construction<'a> {
    plan: &'a QueryPlan,
    filters_by_min: &'a [Vec<ConstructionFilter>],
    /// The group's stacks; empty for a single-component query, which keeps
    /// none.
    stacks: &'a [Stack],
    /// The window's lower bound on every candidate's timestamp.
    min_ts: Option<u64>,
    stats: &'a mut RuntimeStats,
    /// Completed matches, `n` events each in pattern order.
    out: &'a mut Vec<Event>,
}

impl Construction<'_> {
    /// Enumerate every sequence whose last positive component binds
    /// `event`, an instance with RIP `rip` (0 without stacks).
    fn run(&mut self, event: &Event, rip: usize) {
        let i = self.plan.pattern.positive_len() - 1;
        let last = Suffix {
            slot: self.plan.pattern.positive_slots[i],
            event,
            rest: None,
        };
        if self.admits(i, &last) {
            self.extend(i, &last, event.timestamp(), rip);
        }
    }

    /// Do the construction filters that need positive component `i` hold
    /// for `suffix`, which binds components `i..n`? A filter that fails to
    /// evaluate counts as false.
    #[inline]
    fn admits(&mut self, i: usize, suffix: &Suffix<'_>) -> bool {
        let stats = &mut *self.stats;
        let holds =
            (self.filters_by_min[i].iter()).all(|f| f.expr.holds(suffix, &mut stats.eval_errors));
        if !holds {
            stats.construction_filter_rejects += 1;
        }
        holds
    }

    /// `suffix` binds positive components `i..n` and passed their filters;
    /// its first link, the component `i` candidate, has timestamp `ts` and
    /// RIP `rip`. Complete the match, or extend it by every viable
    /// component `i - 1` candidate that passes the filters needing it.
    fn extend(&mut self, i: usize, suffix: &Suffix<'_>, ts: u64, rip: usize) {
        if i == 0 {
            self.stats.sequences_constructed += 1;
            self.out.extend(suffix.events().cloned());
            return;
        }
        // `iter_below` walks newest-first: timestamps are non-increasing,
        // so the window bound terminates the scan with `break`.
        let stacks = self.stacks;
        let slot = self.plan.pattern.positive_slots[i - 1];
        for (_, inst) in stacks[i - 1].iter_below(rip) {
            if inst.ts >= ts {
                // Same-or-later timestamp: strict sequencing rejects it,
                // but older instances further down may still qualify.
                continue;
            }
            if self.min_ts.is_some_and(|m| inst.ts < m) {
                break;
            }
            let link = Suffix {
                slot,
                event: &inst.event,
                rest: Some(suffix),
            };
            if self.admits(i - 1, &link) {
                self.extend(i - 1, &link, inst.ts, inst.rip);
            }
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
    use crate::value::Value;

    /// The operator, with the offer table it walks and its key table.
    struct Op {
        ssc: SscOperator,
        offers: OfferTable,
        keys: KeyTable,
    }

    impl Op {
        fn on_event(&mut self, event: &Event, stats: &mut RuntimeStats, out: &mut Vec<Event>) {
            self.keys.begin_offer();
            self.ssc
                .on_event(&self.offers, &mut self.keys, event, stats, out)
        }

        fn partition_count(&self) -> usize {
            self.ssc.partition_count()
        }

        fn retained_instances(&self) -> usize {
            self.ssc.retained_instances()
        }
    }

    fn setup(src: &str) -> (Op, SchemaRegistry) {
        let reg = retail_registry();
        let planner = Planner::new(reg.clone(), FunctionRegistry::with_stdlib());
        let q = parse_query(src).unwrap();
        let plan = std::sync::Arc::new(planner.plan(&q).unwrap());
        let mut keys = KeyTable::default();
        let op = Op {
            offers: OfferTable::new(&plan, &mut keys),
            ssc: SscOperator::new(plan),
            keys,
        };
        (op, reg)
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(area)],
        )
        .unwrap()
    }

    /// Offer `events` in order; the completed matches, one `Vec` each.
    fn run(op: &mut Op, events: &[Event]) -> (Vec<Vec<Event>>, RuntimeStats) {
        let mut out = Vec::new();
        let mut stats = RuntimeStats::default();
        for e in events {
            stats.events_processed += 1;
            op.on_event(e, &mut stats, &mut out);
        }
        let n = op.ssc.plan.pattern.positive_len();
        (out.chunks(n).map(<[Event]>::to_vec).collect(), stats)
    }

    const SEQ2: &str = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                        WHERE x.TagId = z.TagId WITHIN 100";

    #[test]
    fn basic_two_step_sequence() {
        let (mut op, reg) = setup(SEQ2);
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "SHELF_READING", 2, 8, 1),
            ev(&reg, "EXIT_READING", 3, 7, 4),
        ];
        let (matches, stats) = run(&mut op, &events);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0][0].timestamp(), 1);
        assert_eq!(matches[0][1].timestamp(), 3);
        assert_eq!(stats.sequences_constructed, 1);
        // PAIS: two partitions (tags 7, 8).
        assert_eq!(op.partition_count(), 2);
    }

    #[test]
    fn all_matches_semantics() {
        // Two shelf readings of the same tag then one exit: both pair.
        let (mut op, reg) = setup(SEQ2);
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "SHELF_READING", 2, 7, 2),
            ev(&reg, "EXIT_READING", 3, 7, 4),
        ];
        let (matches, _) = run(&mut op, &events);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn window_prunes_old_matches() {
        let (mut op, reg) = setup(SEQ2);
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "EXIT_READING", 200, 7, 4), // outside WITHIN 100
        ];
        let (matches, _) = run(&mut op, &events);
        assert!(matches.is_empty());
        // Boundary: exactly W apart is inside.
        let (mut op, _) = setup(SEQ2);
        let events = vec![
            ev(&reg, "SHELF_READING", 100, 7, 1),
            ev(&reg, "EXIT_READING", 200, 7, 4),
        ];
        let (matches, _) = run(&mut op, &events);
        assert_eq!(matches.len(), 1);
    }

    /// A partition counts while it holds an instance: an event that
    /// appends nothing opens none, and a prune that empties one uncounts
    /// it until it holds an instance again.
    #[test]
    fn only_partitions_holding_instances_count() {
        let (mut op, reg) = setup(SEQ2);
        let (_, stats) = run(&mut op, &[ev(&reg, "EXIT_READING", 1, 7, 4)]);
        assert_eq!((op.partition_count(), stats.partitions), (0, 0));
        let shelves = [
            ev(&reg, "SHELF_READING", 2, 7, 1),
            ev(&reg, "SHELF_READING", 3, 8, 1),
        ];
        assert_eq!(run(&mut op, &shelves).1.partitions, 2);
        // Outside WITHIN 100 of tag 7's shelf reading: pruned, nothing
        // appended.
        let (_, stats) = run(&mut op, &[ev(&reg, "EXIT_READING", 200, 7, 4)]);
        assert_eq!((op.partition_count(), stats.partitions), (1, 1));
        let (_, stats) = run(&mut op, &[ev(&reg, "SHELF_READING", 201, 7, 1)]);
        assert_eq!((op.partition_count(), stats.partitions), (2, 2));
    }

    #[test]
    fn strict_timestamp_ordering() {
        let (mut op, reg) = setup(SEQ2);
        // Same timestamp: not a sequence.
        let events = vec![
            ev(&reg, "SHELF_READING", 5, 7, 1),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        let (matches, _) = run(&mut op, &events);
        assert!(matches.is_empty());
    }

    #[test]
    fn event_cannot_precede_itself_with_any() {
        let (mut op, reg) = setup(
            "EVENT SEQ(ANY(SHELF_READING, EXIT_READING) a, \
             ANY(SHELF_READING, EXIT_READING) b) WITHIN 100",
        );
        let events = vec![ev(&reg, "SHELF_READING", 1, 7, 1)];
        let (matches, _) = run(&mut op, &events);
        assert!(matches.is_empty());
        // A second event forms exactly one pair (plus none with itself).
        let events2 = [ev(&reg, "EXIT_READING", 2, 7, 1)];
        let mut out = Vec::new();
        let mut stats = RuntimeStats::default();
        op.on_event(&events2[0], &mut stats, &mut out);
        let stamps: Vec<u64> = out.iter().map(Event::timestamp).collect();
        assert_eq!(stamps, vec![1, 2]);
    }

    #[test]
    fn partition_isolation() {
        let (mut op, reg) = setup(SEQ2);
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "EXIT_READING", 2, 8, 4), // different tag: no match
        ];
        let (matches, _) = run(&mut op, &events);
        assert!(matches.is_empty());
    }

    #[test]
    fn unpartitioned_plan_equality_still_enforced() {
        // The equality is not a plain attribute equality, so it does not
        // partition: it runs as a construction filter.
        let (mut op, reg) = setup(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId + 0 = z.TagId WITHIN 100",
        );
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "SHELF_READING", 2, 8, 1),
            ev(&reg, "EXIT_READING", 3, 7, 4),
        ];
        let (matches, _) = run(&mut op, &events);
        assert_eq!(matches.len(), 1);
        assert_eq!(op.partition_count(), 1); // single flat group
    }

    #[test]
    fn three_component_sequence_counts() {
        let (mut op, reg) = setup(
            "EVENT SEQ(SHELF_READING a, COUNTER_READING b, EXIT_READING c) \
             WHERE [TagId] WITHIN 1000",
        );
        // 2 shelf, 2 counter, 1 exit (same tag): 2*2 = 4 matches.
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "SHELF_READING", 2, 7, 1),
            ev(&reg, "COUNTER_READING", 3, 7, 3),
            ev(&reg, "COUNTER_READING", 4, 7, 3),
            ev(&reg, "EXIT_READING", 5, 7, 4),
        ];
        let (matches, stats) = run(&mut op, &events);
        assert_eq!(matches.len(), 4);
        assert_eq!(stats.sequences_constructed, 4);
        for m in &matches {
            assert!(m[0].timestamp() < m[1].timestamp());
            assert!(m[1].timestamp() < m[2].timestamp());
        }
    }

    #[test]
    fn element_filter_blocks_stack_entry() {
        let (mut op, reg) = setup(
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.AreaId = 1 AND x.TagId = z.TagId WITHIN 100",
        );
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 2), // wrong area: filtered
            ev(&reg, "EXIT_READING", 2, 7, 4),
        ];
        let (matches, stats) = run(&mut op, &events);
        assert!(matches.is_empty());
        // The shelf reading never entered a stack; the exit reading had no
        // predecessor so it was skipped too.
        assert_eq!(stats.instances_appended, 0);
    }

    #[test]
    fn construction_filter_inequality() {
        // Q2 shape: same tag, different area.
        let (mut op, reg) = setup(
            "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
             WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 3600",
        );
        let events = vec![
            ev(&reg, "SHELF_READING", 1, 7, 1),
            ev(&reg, "SHELF_READING", 2, 7, 1), // same area: rejected
            ev(&reg, "SHELF_READING", 3, 7, 2), // moved: two matches (ts1->3, ts2->3)
        ];
        let (matches, stats) = run(&mut op, &events);
        assert_eq!(matches.len(), 2);
        assert!(stats.construction_filter_rejects > 0);
    }

    #[test]
    fn pruning_reduces_retained_instances() {
        let (mut op, reg) = setup(SEQ2);
        let mut events = Vec::new();
        for k in 0..500u64 {
            events.push(ev(&reg, "SHELF_READING", k + 1, 7, 1));
        }
        events.push(ev(&reg, "EXIT_READING", 1000, 7, 4));
        let (matches, stats) = run(&mut op, &events);
        // Window 100: only shelf readings with ts in [900, 1000] can pair,
        // i.e. none (max shelf ts is 500).
        assert!(matches.is_empty());
        assert!(stats.instances_pruned > 0);
        assert!(op.retained_instances() < 500);
    }
}
