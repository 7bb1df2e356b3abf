//! State snapshots: serializable images of a running engine.
//!
//! The paper's system keeps every partial match in volatile memory; a
//! production deployment needs to survive restarts without reprocessing the
//! stream from the beginning. This module defines the *data model* of an
//! engine checkpoint: plain owned structs mirroring every piece of mutable
//! runtime state — per-query NFA instance stacks (AIS/PAIS), buffered
//! negation counterexamples, runtime counters, per-stream monotonicity
//! clocks, and the derived (`INTO`) schema registry.
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
//! 3. [`crate::engine::Engine::restore`] swaps the recorded runtime state
//!    into the re-registered runtimes.
//!
//! Snapshot contents are ordered deterministically (partitions and buckets
//! sorted by key), so snapshotting the same engine state twice yields equal
//! snapshots — which is what makes checkpoint files byte-stable and replay
//! provable.

use crate::error::{Result, SaseError};
use crate::event::{Event, SchemaRegistry};
use crate::runtime::RuntimeStats;
use crate::time::Timestamp;
use crate::value::{Value, ValueKey, ValueType};

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

/// One Active Instance Stack entry: the bound event plus its RIP pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSnapshot {
    /// The event bound to the component.
    pub event: EventSnapshot,
    /// Absolute count of instances in the previous stack at append time.
    pub rip: u64,
}

/// One Active Instance Stack, including how much of its front has been
/// pruned (absolute indexing must survive the round trip, or RIP pointers
/// would dangle).
#[derive(Debug, Clone, PartialEq)]
pub struct StackSnapshot {
    /// Number of instances pruned from the front since stream start.
    pub base: u64,
    /// Retained instances, oldest first.
    pub instances: Vec<InstanceSnapshot>,
}

/// One PAIS partition: its key and one stack per positive component.
/// Unpartitioned plans use a single partition with an empty key.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSnapshot {
    /// The partition key (empty for unpartitioned plans).
    pub key: Vec<ValueKey>,
    /// One stack per positive pattern component.
    pub stacks: Vec<StackSnapshot>,
}

/// State of a query's sequence operator. The checkpoint codec writes the
/// variant as a tag byte: `Ssc` is 0, and no other tag decodes.
#[derive(Debug, Clone, PartialEq)]
pub enum SeqSnapshot {
    /// The SSC operator: live partitions plus the sweep phase counter.
    Ssc {
        /// Partitions sorted by key.
        partitions: Vec<PartitionSnapshot>,
        /// Events seen since the last idle-partition sweep.
        events_since_sweep: u64,
    },
}

/// Buffered counterexample candidates of one negated component.
#[derive(Debug, Clone, PartialEq)]
pub struct NegationBufferSnapshot {
    /// Key-bucketed candidates (indexed negation), sorted by key; each
    /// bucket in arrival order.
    pub buckets: Vec<(Vec<ValueKey>, Vec<EventSnapshot>)>,
    /// Flat candidate buffer (unindexed negation), in arrival order.
    pub all: Vec<EventSnapshot>,
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
    /// Sequence operator state.
    pub seq: SeqSnapshot,
    /// One buffer per negated component, in pattern order.
    pub negations: Vec<NegationBufferSnapshot>,
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

    /// Total retained events across all queries (stack instances and
    /// negation candidates) — a size indicator for checkpoint policy
    /// decisions.
    pub fn retained_events(&self) -> usize {
        self.queries
            .iter()
            .map(|q| {
                let SeqSnapshot::Ssc { partitions, .. } = &q.seq;
                let seq: usize = partitions
                    .iter()
                    .flat_map(|p| p.stacks.iter())
                    .map(|s| s.instances.len())
                    .sum();
                let neg: usize = q
                    .negations
                    .iter()
                    .map(|n| n.all.len() + n.buckets.iter().map(|(_, b)| b.len()).sum::<usize>())
                    .sum();
                seq + neg
            })
            .sum()
    }
}

/// A backend-agnostic deployment snapshot: one [`EngineSnapshot`] per
/// constituent engine, in deterministic order.
///
/// This is the unit of state the [`crate::processor::EventProcessor`]
/// trait exchanges: a plain [`crate::engine::Engine`] holds exactly one
/// engine snapshot, a sharded deployment holds one per shard, and a
/// durable wrapper passes its inner deployment's set through unchanged.
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
        let ev = EventSnapshot {
            type_name: "T".into(),
            timestamp: 1,
            attrs: vec![],
        };
        let snap = EngineSnapshot {
            queries: vec![QuerySnapshot {
                name: "q".into(),
                stats: RuntimeStats::default(),
                last_ts: None,
                seq: SeqSnapshot::Ssc {
                    partitions: vec![PartitionSnapshot {
                        key: vec![],
                        stacks: vec![StackSnapshot {
                            base: 2,
                            instances: vec![InstanceSnapshot {
                                event: ev.clone(),
                                rip: 0,
                            }],
                        }],
                    }],
                    events_since_sweep: 0,
                },
                negations: vec![NegationBufferSnapshot {
                    buckets: vec![(vec![ValueKey::Int(1)], vec![ev.clone()])],
                    all: vec![ev],
                }],
            }],
            stream_clocks: vec![],
            derived_streams: vec![],
        };
        assert_eq!(snap.retained_events(), 3);
    }
}
