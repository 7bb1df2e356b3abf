//! Event Generation Layer (§3, component 5): "generates events according to
//! a pre-defined schema. An important step in event generation is to obtain
//! attributes defined in the schema. In an actual real-world system,
//! attributes (e.g., product name, expiration date) can be retrieved from a
//! tag's user-memory bank or from an Object Name Service (ONS). In our
//! system, we simulate an ONS with a local database storing product
//! metadata associated with each item."
//!
//! The generator resolves each reading's tag through an [`OnsResolver`],
//! picks the event type from the area kind, and builds a validated
//! [`sase_core::Event`]. Each kind's type is resolved against the registry
//! once, on its first reading; after that an event costs one ONS probe and
//! one allocation, the event itself. Timestamps are made strictly
//! increasing (the SEQ operator's temporal order is strict), preserving the
//! logical-time scale: a reading whose converted timestamp collides with
//! the previous event's is nudged forward by one unit.

use std::sync::Arc;

use sase_core::error::Result;
use sase_core::event::{Event, ResolvedType, SchemaRegistry};
use sase_core::hash::FxHashMap;
use sase_core::value::{Value, ValueType};

use crate::config::{AreaKind, CleaningConfig};
use crate::reading::TimedReading;

/// Product metadata, as an ONS lookup would return it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductInfo {
    /// Human-readable product name.
    pub name: Arc<str>,
    /// Product category (used by the warehouse workloads).
    pub category: Arc<str>,
    /// Unit price in cents.
    pub price_cents: i64,
}

/// Resolves tag codes to product metadata (the simulated ONS).
pub trait OnsResolver: Send + Sync {
    /// Look up a tag's product metadata.
    fn resolve(&self, tag: u64) -> Option<&ProductInfo>;
}

/// An ONS backed by an in-memory map — the paper's "local database storing
/// product metadata".
#[derive(Debug, Default, Clone)]
pub struct StaticOns {
    products: FxHashMap<u64, ProductInfo>,
}

impl StaticOns {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a product for a tag.
    pub fn insert(&mut self, tag: u64, name: &str, category: &str, price_cents: i64) {
        self.products.insert(
            tag,
            ProductInfo {
                name: Arc::from(name),
                category: Arc::from(category),
                price_cents,
            },
        );
    }

    /// Number of cataloged tags.
    pub fn len(&self) -> usize {
        self.products.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.products.is_empty()
    }
}

impl OnsResolver for StaticOns {
    fn resolve(&self, tag: u64) -> Option<&ProductInfo> {
        self.products.get(&tag)
    }
}

/// Counters of the event generator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventGenStats {
    /// Events generated.
    pub generated: u64,
    /// Readings dropped because the ONS did not know the tag.
    pub unknown_tag: u64,
    /// Timestamps nudged forward to keep strict ordering.
    pub nudged_timestamps: u64,
}

/// The event generator.
pub struct EventGenerator {
    registry: SchemaRegistry,
    /// The event type of each [`AreaKind`], resolved on its first reading.
    types: [Option<ResolvedType>; 5],
    ons: Arc<dyn OnsResolver>,
    stats: EventGenStats,
    last_ts: Option<u64>,
}

impl EventGenerator {
    /// Create a generator emitting into `registry`, resolving via `ons`.
    pub fn new(registry: SchemaRegistry, ons: Arc<dyn OnsResolver>) -> Self {
        EventGenerator {
            registry,
            types: Default::default(),
            ons,
            stats: EventGenStats::default(),
            last_ts: None,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> EventGenStats {
        self.stats
    }

    /// Generate the event for one deduplicated reading.
    ///
    /// `kind` is the area kind of the reading's area (the caller resolves
    /// it from the config; the generator itself is layout-agnostic).
    pub fn process(
        &mut self,
        cfg: &CleaningConfig,
        kind: AreaKind,
        reading: &TimedReading,
    ) -> Result<Option<Event>> {
        let Some(product) = self.ons.resolve(reading.tag) else {
            self.stats.unknown_tag += 1;
            return Ok(None);
        };
        let mut ts = reading.timestamp;
        if let Some(last) = self.last_ts {
            if ts <= last {
                ts = last + 1;
                self.stats.nudged_timestamps += 1;
            }
        }
        self.last_ts = Some(ts);
        let ty = match &mut self.types[kind as usize] {
            Some(ty) => ty,
            slot => {
                let ty = self.registry.resolve(kind.event_type())?;
                ty.check_arity(3)?; // the three attributes built below
                slot.insert(ty)
            }
        };
        let event = ty.build_event_with(ts, |i| -> Result<Value> {
            Ok(match i {
                0 => Value::Int(cfg.item_of_tag(reading.tag) as i64),
                1 => Value::Str(product.name.clone()),
                _ => Value::Int(reading.area),
            })
        })?;
        self.stats.generated += 1;
        Ok(Some(event))
    }
}

impl std::fmt::Debug for EventGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventGenerator")
            .field("stats", &self.stats)
            .finish()
    }
}

/// Register the reading event types for every [`AreaKind`] on a registry:
/// `SHELF_READING`, `COUNTER_READING`, `EXIT_READING`, `LOADING_READING`,
/// `UNLOADING_READING`, each with `(TagId: int, ProductName: string,
/// AreaId: int)` — the schema Q1/Q2 use.
pub fn register_reading_schemas(registry: &SchemaRegistry) -> Result<()> {
    for kind in AreaKind::all() {
        registry.register(
            kind.event_type(),
            &[
                ("TagId", ValueType::Int),
                ("ProductName", ValueType::Str),
                ("AreaId", ValueType::Int),
            ],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CleaningConfig, SchemaRegistry, EventGenerator) {
        let cfg = CleaningConfig::retail_demo();
        let registry = SchemaRegistry::new();
        register_reading_schemas(&registry).unwrap();
        let mut ons = StaticOns::new();
        ons.insert(cfg.make_tag(1), "soap", "toiletries", 299);
        let gen = EventGenerator::new(registry.clone(), Arc::new(ons));
        (cfg, registry, gen)
    }

    fn tr(cfg: &CleaningConfig, item: u64, area: i64, ts: u64) -> TimedReading {
        TimedReading {
            tag: cfg.make_tag(item),
            area,
            timestamp: ts,
            synthetic: false,
        }
    }

    #[test]
    fn generates_schema_conformant_events() {
        let (cfg, _reg, mut gen) = setup();
        let e = gen
            .process(&cfg, AreaKind::Shelf, &tr(&cfg, 1, 1, 10))
            .unwrap()
            .unwrap();
        assert_eq!(e.type_name(), "SHELF_READING");
        assert_eq!(e.timestamp(), 10);
        assert_eq!(e.attr("TagId").unwrap(), Value::Int(1));
        assert_eq!(e.attr("ProductName").unwrap(), Value::str("soap"));
        assert_eq!(e.attr("AreaId").unwrap(), Value::Int(1));
    }

    #[test]
    fn unknown_tag_skipped() {
        let (cfg, _reg, mut gen) = setup();
        let out = gen
            .process(&cfg, AreaKind::Exit, &tr(&cfg, 99, 4, 10))
            .unwrap();
        assert!(out.is_none());
        assert_eq!(gen.stats().unknown_tag, 1);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let (cfg, _reg, mut gen) = setup();
        let a = gen
            .process(&cfg, AreaKind::Shelf, &tr(&cfg, 1, 1, 10))
            .unwrap()
            .unwrap();
        let b = gen
            .process(&cfg, AreaKind::Counter, &tr(&cfg, 1, 3, 10))
            .unwrap()
            .unwrap();
        assert!(b.timestamp() > a.timestamp());
        assert_eq!(gen.stats().nudged_timestamps, 1);
    }

    #[test]
    fn kind_to_event_type_mapping() {
        let (cfg, _reg, mut gen) = setup();
        for (kind, expect) in [
            (AreaKind::Counter, "COUNTER_READING"),
            (AreaKind::Exit, "EXIT_READING"),
            (AreaKind::Loading, "LOADING_READING"),
            (AreaKind::Unloading, "UNLOADING_READING"),
        ] {
            let e = gen
                .process(&cfg, kind, &tr(&cfg, 1, 1, 100))
                .unwrap()
                .unwrap();
            assert_eq!(e.type_name(), expect);
        }
    }
}
