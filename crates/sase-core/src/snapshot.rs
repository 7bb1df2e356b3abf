//! State snapshots: serializable images of a running engine.
//!
//! The paper's system keeps every partial match in volatile memory; a
//! production deployment needs to survive restarts without reprocessing the
//! stream from the beginning. This module defines the *data model* of an
//! engine checkpoint: the events the engine's queries still hold, where
//! each query holds them, runtime counters, per-stream monotonicity clocks,
//! and the derived (`INTO`) schema registry.
//!
//! A snapshot records events, not the layout that indexes them. An
//! [`EngineSnapshot`] holds one *event table* — each distinct retained
//! event once, by type name — and per query its entries: an event index
//! and the [`Place`] holding it, a positive component's stack or a negated
//! component's buffer. It records no RIP pointer, stack base, partition key
//! or bucket key: restore derives them from the events, as the runtime
//! does on arrival.
//!
//! The types here are deliberately free of any wire format: `sase-store`
//! owns the binary codec (and the checkpoint files), `sase-core` owns the
//! meaning. [`crate::engine::Engine::snapshot`] produces an
//! [`EngineSnapshot`]; [`crate::engine::Engine::restore`] applies one to a
//! freshly configured engine.
//!
//! ## Restore protocol
//!
//! Restoring is a three-step handshake, because query *plans* are not part
//! of a snapshot (they are code, re-derived from query text) while derived
//! stream schemas *are* (they were derived from data):
//!
//! 1. the host rebuilds the schema registry with its base event types and
//!    calls [`EngineSnapshot::preregister_derived`] so consumers of derived
//!    streams can plan;
//! 2. the host re-registers the same queries, with the same text and in
//!    the same order, as the checkpointed run;
//! 3. [`crate::engine::Engine::restore`] rebuilds the event table and, per
//!    query and entry in order, re-appends the event to its place: onto a
//!    stack, in the partition of the event's key, with the previous stack's
//!    instance count as its RIP; into a negation buffer, in the bucket of
//!    its key. Nothing is pruned, matched or counted, so restoring emits
//!    nothing. Last, each query takes its counters and clocks.
//!
//! Three inputs are rejected with a typed error: an event its place's
//! component cannot bind, an event without the key attribute its place
//! needs, and timestamps that go backwards within a query.
//!
//! Entries are in a canonical order: by timestamp, then by the key of the
//! partition or bucket, then by place, then by position in it. So equal
//! states snapshot to equal values, whatever key slots the engine picked,
//! and each stack and buffer is re-appended in its own order. Across
//! places, events of equal timestamp may be re-appended in another order
//! than they arrived in; no match sees that, because sequence construction
//! skips a same-timestamp predecessor before it runs any filter.

use crate::error::{Result, SaseError};
use crate::event::{Event, SchemaRegistry};
use crate::hash::FxHashMap;
use crate::runtime::RuntimeStats;
use crate::time::Timestamp;
use crate::value::{Value, ValueType};

/// A serializable image of one [`Event`].
///
/// Events are stored by type *name* rather than [`crate::event::EventTypeId`]:
/// ids are an artifact of registration order inside one registry, names are
/// stable across process restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSnapshot {
    /// Registered event type name.
    pub type_name: String,
    /// Event timestamp in logical time units.
    pub timestamp: Timestamp,
    /// Attribute values in schema order.
    pub attrs: Vec<Value>,
}

impl EventSnapshot {
    /// Capture an event.
    pub fn capture(event: &Event) -> EventSnapshot {
        EventSnapshot {
            type_name: event.type_name().to_string(),
            timestamp: event.timestamp(),
            attrs: event.attrs().to_vec(),
        }
    }

    /// Rebuild the event against a registry (the type must be registered
    /// and the attributes must fit its schema).
    pub fn rebuild(&self, registry: &SchemaRegistry) -> Result<Event> {
        registry.build_event(&self.type_name, self.timestamp, self.attrs.clone())
    }
}

/// Where a query holds a retained event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Place {
    /// The Active Instance Stack of positive component `i`, counted in
    /// pattern order among the positive components.
    Stack(u32),
    /// The candidate buffer of negated component `i`, counted in pattern
    /// order among the negated components.
    Negation(u32),
}

/// One retained event of a query and the place that holds it. An event
/// held in several places (an `ANY` event in two stacks, say) has an
/// entry per place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrySnapshot {
    /// Index into the engine snapshot's [`EngineSnapshot::events`].
    pub event: u32,
    /// The stack or negation buffer holding it.
    pub place: Place,
}

/// Complete runtime state of one registered continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySnapshot {
    /// The query's registered name.
    pub name: String,
    /// Runtime counters at snapshot time.
    pub stats: RuntimeStats,
    /// The query-local monotonicity clock.
    pub last_ts: Option<Timestamp>,
    /// Events seen since the last idle-partition sweep.
    pub events_since_sweep: u64,
    /// Every retained event, in the canonical order (see the module
    /// documentation).
    pub entries: Vec<EntrySnapshot>,
}

/// A derived (`INTO`) output stream's schema and lifecycle flags.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedStreamSnapshot {
    /// The registered type name (also the stream name).
    pub type_name: String,
    /// Attribute declarations, in schema order.
    pub attrs: Vec<(String, ValueType)>,
    /// True when the engine registered the type (schema derived from the
    /// first emission), false for user-preregistered output types.
    pub engine_registered: bool,
    /// True when every producer has been unregistered and the next producer
    /// may redefine the schema (the engine's `reusable` set).
    pub reusable: bool,
}

/// A complete serializable image of an [`crate::engine::Engine`]'s mutable
/// state: everything needed to resume processing exactly where the
/// snapshot was taken, given the same registered queries.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Each distinct retained event once, in order of first sight over
    /// `queries`' entries.
    pub events: Vec<EventSnapshot>,
    /// Per-query runtime state, in registration order.
    pub queries: Vec<QuerySnapshot>,
    /// Per-stream monotonicity clocks (`None` = the default stream),
    /// sorted by stream name.
    pub stream_clocks: Vec<(Option<String>, Timestamp)>,
    /// Derived (`INTO`) stream schemas, live and reusable.
    pub derived_streams: Vec<DerivedStreamSnapshot>,
}

impl EngineSnapshot {
    /// Register the snapshot's derived stream types on a fresh registry so
    /// that consumers of derived streams can be re-registered (planning a
    /// `FROM derived` query requires the type to exist).
    ///
    /// Types already present (e.g. user-preregistered output types the host
    /// recreated) are left untouched; a schema mismatch then surfaces
    /// loudly at the first emission, exactly as in a live engine.
    pub fn preregister_derived(&self, registry: &SchemaRegistry) -> Result<()> {
        for d in &self.derived_streams {
            if registry.type_id(&d.type_name).is_none() {
                let attrs: Vec<(&str, ValueType)> =
                    d.attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                registry.register(&d.type_name, &attrs)?;
            }
        }
        Ok(())
    }

    /// Distinct retained events across all queries (stack instances and
    /// negation candidates, each event once however many places hold it)
    /// — a size indicator for checkpoint policy decisions.
    pub fn retained_events(&self) -> usize {
        self.events.len()
    }
}

/// The event table of a snapshot being written: each distinct event once,
/// in order of first sight. Events are told apart by their shared body, so
/// an event that several queries or places hold is written once.
#[derive(Default)]
pub(crate) struct EventTable {
    index: FxHashMap<*const (), u32>,
    events: Vec<EventSnapshot>,
}

impl EventTable {
    /// The index of `event`, capturing it on first sight.
    pub(crate) fn index_of(&mut self, event: &Event) -> u32 {
        let next = u32::try_from(self.events.len()).expect("fewer than 2^32 retained events");
        *self.index.entry(event.body()).or_insert_with(|| {
            self.events.push(EventSnapshot::capture(event));
            next
        })
    }

    pub(crate) fn into_events(self) -> Vec<EventSnapshot> {
        self.events
    }
}

/// A backend-agnostic deployment snapshot: one [`EngineSnapshot`] per
/// constituent engine, in deterministic order.
///
/// This is the unit of state the [`crate::processor::EventProcessor`]
/// trait exchanges: a plain [`crate::engine::Engine`] holds exactly one
/// engine snapshot, a sharded deployment holds one per shard, and a
/// durable deployment checkpoints its engine's set unchanged.
/// Callers that persist snapshots (checkpoint files) store the `engines`
/// vector; callers that restore hand the whole set back to the same
/// deployment shape that produced it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotSet {
    /// Per-engine snapshots, in the deployment's deterministic order
    /// (registration order for a single engine, shard order for a sharded
    /// deployment).
    pub engines: Vec<EngineSnapshot>,
}

impl SnapshotSet {
    /// Wrap a single engine's snapshot.
    pub fn single(snapshot: EngineSnapshot) -> SnapshotSet {
        SnapshotSet {
            engines: vec![snapshot],
        }
    }

    /// Number of constituent engine snapshots.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when the set holds no engine snapshots.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Register every derived (`INTO`) stream type recorded in any
    /// constituent snapshot on a fresh registry — step 1 of the restore
    /// protocol (see [`EngineSnapshot::preregister_derived`]).
    pub fn preregister_derived(&self, registry: &SchemaRegistry) -> Result<()> {
        for e in &self.engines {
            e.preregister_derived(registry)?;
        }
        Ok(())
    }
}

/// Shorthand for the "snapshot does not fit this engine" error family.
pub(crate) fn mismatch(what: impl std::fmt::Display) -> SaseError {
    SaseError::engine(format!("snapshot mismatch: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;

    #[test]
    fn event_snapshot_round_trips() {
        let reg = retail_registry();
        let e = reg
            .build_event(
                "SHELF_READING",
                9,
                vec![Value::Int(7), Value::str("soap"), Value::Int(2)],
            )
            .unwrap();
        let snap = EventSnapshot::capture(&e);
        assert_eq!(snap.type_name, "SHELF_READING");
        let back = snap.rebuild(&reg).unwrap();
        assert_eq!(back.to_string(), e.to_string());
    }

    #[test]
    fn rebuild_fails_on_unknown_type() {
        let reg = retail_registry();
        let snap = EventSnapshot {
            type_name: "GONE".into(),
            timestamp: 1,
            attrs: vec![],
        };
        assert!(snap.rebuild(&reg).is_err());
    }

    #[test]
    fn preregister_derived_registers_missing_types_only() {
        let reg = retail_registry();
        let snap = EngineSnapshot {
            events: vec![],
            queries: vec![],
            stream_clocks: vec![],
            derived_streams: vec![
                DerivedStreamSnapshot {
                    type_name: "alerts".into(),
                    attrs: vec![("tag".into(), ValueType::Int)],
                    engine_registered: true,
                    reusable: false,
                },
                DerivedStreamSnapshot {
                    type_name: "SHELF_READING".into(), // already present
                    attrs: vec![],
                    engine_registered: false,
                    reusable: false,
                },
            ],
        };
        snap.preregister_derived(&reg).unwrap();
        assert!(reg.type_id("alerts").is_some());
        // The existing type was not clobbered.
        assert_eq!(reg.schema_by_name("shelf_reading").unwrap().arity(), 3);
    }

    #[test]
    fn retained_events_counts_all_buffers() {
        // A shelf reading in two queries' stacks and a counter reading in
        // a stack and a negation buffer: two events, four entries.
        let reg = retail_registry();
        let mut engine = crate::engine::Engine::new(reg.clone());
        for (name, src) in [
            (
                "guarded",
                "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                 WHERE [TagId] WITHIN 10",
            ),
            (
                "counted",
                "EVENT SEQ(SHELF_READING x, COUNTER_READING y) WHERE [TagId] WITHIN 10",
            ),
        ] {
            engine.register(name, src).unwrap();
        }
        for (ty, ts) in [("SHELF_READING", 1), ("COUNTER_READING", 2)] {
            let e = reg
                .build_event(ty, ts, vec![Value::Int(7), Value::str("p"), Value::Int(1)])
                .unwrap();
            engine.process_batch(&[e]).unwrap();
        }
        let snap = engine.snapshot();
        assert_eq!(snap.retained_events(), 2);
        let places = |q: &QuerySnapshot| q.entries.iter().map(|e| (e.event, e.place)).collect();
        let places: Vec<Vec<(u32, Place)>> = snap.queries.iter().map(places).collect();
        assert_eq!(
            places,
            [
                vec![(0, Place::Stack(0)), (1, Place::Negation(0))],
                vec![(0, Place::Stack(0)), (1, Place::Stack(1))],
            ]
        );
    }
}
