//! The assembled Cleaning and Association pipeline (§3, Figure 1):
//!
//! ```text
//! Readings -> Anomaly Filtering -> Temporal Smoothing -> Time Conversion
//!          -> Deduplication -> Event Generation -> Events
//! ```
//!
//! Drive it one reader scan cycle at a time with [`CleaningPipeline::
//! process_tick`]; it returns the fully-formed events for that cycle, ready
//! for the complex event processor.
//!
//! A cycle is one pass: the anomaly filter writes the cycle's survivors into
//! a buffer the pipeline reuses, the smoother appends its interpolations to
//! that buffer, and each reading in it then goes straight through time
//! conversion, deduplication and event generation. In steady state a cycle
//! allocates only its events and the `Vec` that returns them.

use std::sync::Arc;

use sase_core::error::Result;
use sase_core::event::{Event, SchemaRegistry};

use crate::anomaly::{AnomalyFilter, AnomalyStats};
use crate::config::CleaningConfig;
use crate::dedup::{DedupStats, Deduplicator};
use crate::event_gen::{EventGenStats, EventGenerator, OnsResolver};
use crate::reading::{CleanReading, RawReading, Tick};
use crate::smoothing::{SmoothingStats, TemporalSmoother};
use crate::time_conversion::{TimeConversionStats, TimeConverter};

/// Aggregated per-layer counters, for the "Cleaning and Association Layer
/// Output" UI window and the P6 experiment table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Anomaly filter counters.
    pub anomaly: AnomalyStats,
    /// Smoother counters.
    pub smoothing: SmoothingStats,
    /// Time conversion counters.
    pub time: TimeConversionStats,
    /// Deduplicator counters.
    pub dedup: DedupStats,
    /// Event generator counters.
    pub events: EventGenStats,
}

/// The five-layer cleaning pipeline.
pub struct CleaningPipeline {
    cfg: CleaningConfig,
    anomaly: AnomalyFilter,
    smoother: TemporalSmoother,
    time: TimeConverter,
    dedup: Deduplicator,
    generator: EventGenerator,
    /// The cycle's readings after filtering and smoothing; reused.
    smoothed: Vec<CleanReading>,
}

impl CleaningPipeline {
    /// Assemble a pipeline.
    pub fn new(cfg: CleaningConfig, registry: SchemaRegistry, ons: Arc<dyn OnsResolver>) -> Self {
        CleaningPipeline {
            cfg,
            anomaly: AnomalyFilter::new(),
            smoother: TemporalSmoother::new(),
            time: TimeConverter::new(),
            dedup: Deduplicator::new(),
            generator: EventGenerator::new(registry, ons),
            smoothed: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CleaningConfig {
        &self.cfg
    }

    /// Aggregated counters.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            anomaly: self.anomaly.stats(),
            smoothing: self.smoother.stats(),
            time: self.time.stats(),
            dedup: self.dedup.stats(),
            events: self.generator.stats(),
        }
    }

    /// Run one reader scan cycle through all five layers.
    ///
    /// `readings` are this cycle's raw captures (any reader order); the
    /// return value is the cycle's generated events in timestamp order.
    pub fn process_tick(&mut self, tick: Tick, readings: &[RawReading]) -> Result<Vec<Event>> {
        let cfg = &self.cfg;
        self.smoothed.clear();
        self.smoothed
            .extend(readings.iter().filter_map(|r| self.anomaly.process(cfg, r)));
        self.smoother.process_tick(cfg, tick, &mut self.smoothed);
        let mut events = Vec::with_capacity(self.smoothed.len());
        for r in &self.smoothed {
            let Some((timed, kind)) = self.time.process(cfg, r) else {
                continue;
            };
            let Some(timed) = self.dedup.process(cfg, &timed) else {
                continue;
            };
            if let Some(e) = self.generator.process(cfg, kind, &timed)? {
                events.push(e);
            }
        }
        self.dedup.sweep(cfg);
        Ok(events)
    }
}

impl std::fmt::Debug for CleaningPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleaningPipeline")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_gen::{register_reading_schemas, StaticOns};
    use crate::reading::RawTag;

    fn pipeline() -> (CleaningPipeline, CleaningConfig) {
        let cfg = CleaningConfig::retail_demo();
        let registry = SchemaRegistry::new();
        register_reading_schemas(&registry).unwrap();
        let mut ons = StaticOns::new();
        for item in 0..10 {
            ons.insert(cfg.make_tag(item), &format!("product-{item}"), "misc", 100);
        }
        (
            CleaningPipeline::new(cfg.clone(), registry, Arc::new(ons)),
            cfg,
        )
    }

    #[test]
    fn end_to_end_single_reading() {
        let (mut p, cfg) = pipeline();
        let events = p
            .process_tick(5, &[RawReading::full(cfg.make_tag(1), 1, 5)])
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].type_name(), "SHELF_READING");
        assert_eq!(
            events[0].attr("ProductName").unwrap(),
            sase_core::value::Value::str("product-1")
        );
    }

    #[test]
    fn dirty_input_is_cleaned() {
        let (mut p, cfg) = pipeline();
        let tag = cfg.make_tag(2);
        let readings = vec![
            RawReading::full(tag, 4, 0),                   // genuine, exit
            RawReading::full(tag, 4, 0),                   // duplicate
            RawReading::full(0xBAD0_0000_0000_0001, 4, 0), // ghost
            RawReading {
                tag: RawTag::Truncated {
                    partial: 1,
                    bits: 8,
                },
                reader: 4,
                tick: 0,
            },
            RawReading::full(cfg.make_tag(9999), 4, 0), // not in ONS
        ];
        let events = p.process_tick(0, &readings).unwrap();
        assert_eq!(events.len(), 1);
        let s = p.stats();
        assert_eq!(s.anomaly.dropped_spurious, 1);
        assert_eq!(s.anomaly.dropped_truncated, 1);
        assert_eq!(s.dedup.suppressed, 1);
        assert_eq!(s.events.unknown_tag, 1);
    }

    #[test]
    fn smoothing_bridges_missed_reads_without_duplicating_events() {
        let (mut p, cfg) = pipeline();
        let tag = cfg.make_tag(3);
        // Tick 0: read at shelf 1. Tick 1: missed. Tick 2: read again.
        let e0 = p.process_tick(0, &[RawReading::full(tag, 1, 0)]).unwrap();
        assert_eq!(e0.len(), 1);
        let e1 = p.process_tick(1, &[]).unwrap();
        // The smoother interpolates tick 1, but dedup (window 1 unit)
        // suppresses it: the item never "left".
        assert!(e1.is_empty());
        assert_eq!(p.stats().smoothing.interpolated, 1);
        let e2 = p.process_tick(2, &[RawReading::full(tag, 1, 2)]).unwrap();
        // Still within the dedup window of the tick-1 synthetic reading?
        // tick 2 - last emitted (0) = 2 > dedup_window 1 -> emitted.
        assert_eq!(e2.len(), 1);
    }

    #[test]
    fn events_arrive_in_strict_timestamp_order() {
        let (mut p, cfg) = pipeline();
        let mut all = Vec::new();
        for tick in 0..50u64 {
            let readings: Vec<RawReading> = (0..4)
                .map(|r| RawReading::full(cfg.make_tag(r as u64), r + 1, tick))
                .collect();
            all.extend(p.process_tick(tick, &readings).unwrap());
        }
        for w in all.windows(2) {
            assert!(w[0].timestamp() < w[1].timestamp());
        }
        assert!(!all.is_empty());
    }
}
