//! The negation operator: non-occurrence checks.
//!
//! Q1's `!(COUNTER_READING y)` demands that *no* counter reading of the
//! same tag occurs between the shelf reading and the exit reading. The
//! operator buffers candidate counterexamples (events of the negated types
//! that pass their single-variable predicates) in temporal order and, for
//! each constructed sequence, probes for a counterexample strictly between
//! the flanking positive events that satisfies the relational checks.
//!
//! When the partition covers the negated slot, candidates are bucketed by
//! partition key — the "indexing relevant events ... across value-based
//! partitions" of §2.1.2 — so a probe touches only same-key candidates;
//! otherwise they wait in one flat buffer. Buckets are indexed by key slot
//! of the engine's key table (see the runtime's `keys` module), laid out
//! like SSC's groups: dense, with a key slot → bucket index of 4 B per
//! slot.
//!
//! An arriving event is checked against the negated rows of its runtime's
//! offer table (see [`super`]): type, element filters only where they
//! exist, and the bucket by the event's key slot, interned once per offer
//! and accessor for all queries. A query without negation has no such
//! rows, so it pays one length check. The non-occurrence check of a match
//! probes the bucket of the key slot SSC built the match under — every
//! part of that key covers the negated slot — so it extracts no key of its
//! own.

use std::collections::VecDeque;

use crate::event::Event;
use crate::plan::QueryPlan;
use crate::snapshot::Place;
use crate::time::Timestamp;

use super::binding::MatchBinding;
use super::keys::{KeyTable, SlotMap};
use super::{Held, OfferRow, OfferTable, RuntimeStats};

#[derive(Debug)]
struct NegBuffer {
    /// Bucketed by slot of the composite partition key when the partition
    /// covers the negated slot.
    buckets: SlotMap<VecDeque<Event>>,
    /// Flat temporal buffer otherwise.
    all: VecDeque<Event>,
    /// The number of key parts when bucketed, `None` when flat.
    key_parts: Option<usize>,
}

/// Runtime state of all negated components of one query.
#[derive(Debug)]
pub struct NegationOperator {
    plan: std::sync::Arc<QueryPlan>,
    buffers: Vec<NegBuffer>,
}

impl NegationOperator {
    /// Build the operator for a plan.
    pub fn new(plan: std::sync::Arc<QueryPlan>) -> Self {
        let buffers = plan
            .negations
            .iter()
            .map(|n| NegBuffer {
                buckets: SlotMap::default(),
                all: VecDeque::new(),
                key_parts: n.partition_attrs.as_ref().map(Vec::len),
            })
            .collect();
        NegationOperator { plan, buffers }
    }

    /// True when the query has no negated components.
    pub fn is_trivial(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Total buffered candidates.
    pub fn buffered(&self) -> usize {
        self.buffers
            .iter()
            .map(|b| b.buckets.values().map(VecDeque::len).sum::<usize>() + b.all.len())
            .sum()
    }

    /// Every buffered candidate, as a snapshot orders it.
    pub(crate) fn held<'a>(&'a self, keys: &'a KeyTable) -> impl Iterator<Item = Held<'a>> {
        self.buffers.iter().enumerate().flat_map(move |(ni, buf)| {
            let place = Place::Negation(ni as u32);
            let flat = std::iter::once((&[][..], &buf.all));
            (buf.buckets.iter(keys).chain(flat)).flat_map(move |(key, queue)| {
                (queue.iter().enumerate()).map(move |(at, e)| (e.timestamp(), key, place, at, e))
            })
        })
    }

    /// Re-append a restored candidate to the buffer of `row`'s negated
    /// component: the bucket of its key, or the flat buffer; `false` when
    /// a bucketed candidate lacks a key attribute.
    pub(super) fn restore(&mut self, row: &OfferRow, keys: &mut KeyTable, event: &Event) -> bool {
        let buf = &mut self.buffers[row.index];
        let queue = if buf.key_parts.is_some() {
            let Some(slot) = row.slot(keys, event) else {
                return false;
            };
            buf.buckets.get_or_insert_with(slot, keys, VecDeque::new)
        } else {
            &mut buf.all
        };
        queue.push_back(event.clone());
        true
    }

    /// Observe an arriving event, buffering it wherever it is a candidate
    /// counterexample. The bucket (or flat buffer) it lands in drops its
    /// window-expired front on the way; untouched buckets wait for the
    /// periodic [`NegationOperator::prune_before`] sweep.
    pub(crate) fn observe(
        &mut self,
        offers: &OfferTable,
        keys: &mut KeyTable,
        event: &Event,
        stats: &mut RuntimeStats,
    ) {
        for row in offers.negations() {
            if !row.admits(&self.plan, event, &mut stats.eval_errors) {
                continue;
            }
            let buf = &mut self.buffers[row.index];
            let queue = if buf.key_parts.is_some() {
                let Some(slot) = row.slot(keys, event) else {
                    // Missing key attribute: cannot satisfy the equivalence
                    // predicate, so never a counterexample.
                    continue;
                };
                buf.buckets.get_or_insert_with(slot, keys, VecDeque::new)
            } else {
                &mut buf.all
            };
            if let Some(w) = offers.window {
                prune_front(queue, event.timestamp().saturating_sub(w));
            }
            queue.push_back(event.clone());
            stats.negation_candidates_buffered += 1;
        }
    }

    /// Does the match survive every non-occurrence requirement?
    ///
    /// `m` holds the match's events, one per positive component in pattern
    /// order, borrowed from the runtime's buffer of constructed matches:
    /// a match this kills has cost no allocation. `slot` is the slot of
    /// the group SSC built `m` in. An indexed
    /// negation buckets its candidates by the same key parts, so `slot`
    /// names the bucket to probe. A check that fails to evaluate counts as
    /// false, so its candidate is no counterexample, and adds to `errors`.
    pub(crate) fn allows(&self, m: &[Event], slot: u32, errors: &mut u64) -> bool {
        for (ni, neg) in self.plan.negations.iter().enumerate() {
            let t_after = m[neg.scope.after_positive].timestamp();
            let t_before = m[neg.scope.before_positive].timestamp();
            let buf = &self.buffers[ni];
            let candidates: Option<&VecDeque<Event>> = if buf.key_parts.is_some() {
                buf.buckets.get(slot)
            } else {
                Some(&buf.all)
            };
            let Some(candidates) = candidates else {
                continue;
            };
            // Buffered in arrival (= timestamp) order; probe the open
            // interval (t_after, t_before).
            let start = candidates.partition_point(|e| e.timestamp() <= t_after);
            for e in candidates.iter().skip(start) {
                if e.timestamp() >= t_before {
                    break;
                }
                let binding = MatchBinding::with_negated(&self.plan.pattern, m, neg.scope.slot, e);
                if neg.checks.iter().all(|c| c.holds(&binding, errors)) {
                    return false;
                }
            }
        }
        true
    }

    /// Drop candidates older than `min_ts` (window expiry) from every
    /// buffer, and buckets left empty. Expired candidates are inert — a
    /// probe only looks inside its match's window — so this is purely a
    /// memory bound, run every SSC `SWEEP_PERIOD` events rather than per
    /// event, where it would cost O(live keys).
    pub(crate) fn prune_before(&mut self, min_ts: Timestamp, keys: &mut KeyTable) {
        for buf in &mut self.buffers {
            buf.buckets.retain(keys, |q| {
                prune_front(q, min_ts);
                !q.is_empty()
            });
            prune_front(&mut buf.all, min_ts);
        }
    }

    /// Drop every buffered candidate, releasing the bucket keys.
    pub(crate) fn release(&mut self, keys: &mut KeyTable) {
        for buf in &mut self.buffers {
            buf.buckets.clear(keys);
            buf.all.clear();
        }
    }
}

/// Drop a temporally ordered buffer's candidates older than `min_ts`.
fn prune_front(queue: &mut VecDeque<Event>, min_ts: Timestamp) {
    while queue.front().is_some_and(|e| e.timestamp() < min_ts) {
        queue.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{retail_registry, SchemaRegistry};
    use crate::functions::FunctionRegistry;
    use crate::lang::parse_query;
    use crate::plan::Planner;
    use crate::value::{Value, ValueKey};

    const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                      WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 1000";

    /// Q1 with the counter reading's tag test written so that it is no
    /// attribute equality: the partition no longer covers the negated slot,
    /// so its candidates are buffered flat.
    const Q1_FLAT: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                           WHERE y.TagId + 0 = x.TagId AND x.TagId = z.TagId WITHIN 1000";

    /// The operator, with the offer table it reads and its key table.
    struct Op {
        neg: NegationOperator,
        offers: OfferTable,
        keys: KeyTable,
    }

    impl Op {
        fn observe(&mut self, event: &Event, stats: &mut RuntimeStats) {
            self.keys.begin_offer();
            self.neg.observe(&self.offers, &mut self.keys, event, stats)
        }

        /// Whether a match of two same-tag events survives; SSC would
        /// have built it in the group of that tag.
        fn allows(&mut self, m: &[Event]) -> bool {
            let slot = self
                .keys
                .intern(&[ValueKey::from_value(m[0].attr_at(0).unwrap())]);
            self.neg.allows(m, slot, &mut 0)
        }

        fn prune_before(&mut self, min_ts: Timestamp) {
            self.neg.prune_before(min_ts, &mut self.keys);
        }
    }

    impl std::ops::Deref for Op {
        type Target = NegationOperator;

        fn deref(&self) -> &NegationOperator {
            &self.neg
        }
    }

    fn setup(indexed: bool) -> (Op, SchemaRegistry) {
        let reg = retail_registry();
        let planner = Planner::new(reg.clone(), FunctionRegistry::with_stdlib());
        let q = parse_query(if indexed { Q1 } else { Q1_FLAT }).unwrap();
        let plan = planner.plan(&q).unwrap();
        assert_eq!(plan.negations[0].partition_attrs.is_some(), indexed);
        let plan = std::sync::Arc::new(plan);
        let mut keys = KeyTable::default();
        let op = Op {
            offers: OfferTable::new(&plan, &mut keys),
            neg: NegationOperator::new(plan),
            keys,
        };
        (op, reg)
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
        )
        .unwrap()
    }

    fn check(indexed: bool) {
        let (mut op, reg) = setup(indexed);
        assert!(!op.is_trivial());
        let mut stats = RuntimeStats::default();
        // Counter reading for tag 7 at ts 5 — kills tag-7 matches spanning it.
        op.observe(&ev(&reg, "COUNTER_READING", 5, 7), &mut stats);
        // Counter for tag 8 — irrelevant to tag 7.
        op.observe(&ev(&reg, "COUNTER_READING", 6, 8), &mut stats);
        assert_eq!(stats.negation_candidates_buffered, 2);

        let spanning = vec![
            ev(&reg, "SHELF_READING", 1, 7),
            ev(&reg, "EXIT_READING", 9, 7),
        ];
        assert!(!op.allows(&spanning), "counter at 5 must kill it");

        let before = vec![
            ev(&reg, "SHELF_READING", 6, 7),
            ev(&reg, "EXIT_READING", 9, 7),
        ];
        assert!(op.allows(&before), "counter at 5 is before the shelf");

        let other_tag = vec![
            ev(&reg, "SHELF_READING", 1, 9),
            ev(&reg, "EXIT_READING", 9, 9),
        ];
        assert!(op.allows(&other_tag), "different tag unaffected");

        // Boundary: counter exactly at the shelf/exit timestamps does not
        // count (open interval).
        let at_left = vec![
            ev(&reg, "SHELF_READING", 5, 7),
            ev(&reg, "EXIT_READING", 9, 7),
        ];
        assert!(op.allows(&at_left));
        let at_right = vec![
            ev(&reg, "SHELF_READING", 1, 7),
            ev(&reg, "EXIT_READING", 5, 7),
        ];
        assert!(op.allows(&at_right));
    }

    #[test]
    fn indexed_and_scan_agree() {
        check(true);
        check(false);
    }

    #[test]
    fn pruning_drops_expired_candidates() {
        let (mut op, reg) = setup(true);
        let mut stats = RuntimeStats::default();
        for ts in [5u64, 10, 15] {
            op.observe(&ev(&reg, "COUNTER_READING", ts, 7), &mut stats);
        }
        assert_eq!(op.buffered(), 3);
        op.prune_before(12);
        assert_eq!(op.buffered(), 1);
        op.prune_before(100);
        assert_eq!(op.buffered(), 0);
    }

    #[test]
    fn shelf_events_are_not_candidates() {
        let (mut op, reg) = setup(true);
        let mut stats = RuntimeStats::default();
        op.observe(&ev(&reg, "SHELF_READING", 5, 7), &mut stats);
        assert_eq!(op.buffered(), 0);
    }
}
