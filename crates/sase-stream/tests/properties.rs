//! Property tests on the cleaning layers: smoothing and deduplication
//! invariants under arbitrary reading patterns, and the one-pass pipeline
//! against a staged reference that runs each layer over a `Vec` of its own.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use sase_core::event::{Event, SchemaRegistry};
use sase_core::value::Value;
use sase_stream::{
    register_reading_schemas, CleaningConfig, CleaningPipeline, PipelineStats, RawReading, RawTag,
    ReaderId, StaticOns, Tick,
};

fn pipeline(smoothing: u64, dedup: u64) -> (CleaningPipeline, CleaningConfig) {
    let mut cfg = CleaningConfig::retail_demo();
    cfg.smoothing_window = smoothing;
    cfg.dedup_window = dedup;
    (pipeline_for(cfg.clone()), cfg)
}

/// A pipeline over `cfg` whose ONS knows items 0..8.
fn pipeline_for(cfg: CleaningConfig) -> CleaningPipeline {
    let registry = SchemaRegistry::new();
    register_reading_schemas(&registry).unwrap();
    let mut ons = StaticOns::new();
    for item in 0..8 {
        ons.insert(cfg.make_tag(item), &format!("p{item}"), "misc", 100);
    }
    CleaningPipeline::new(cfg, registry, Arc::new(ons))
}

/// The cleaning pipeline layer by layer: every layer reads the previous
/// layer's `Vec` and writes its own, each area kind is found by a scan of
/// the association table, and each event is built by type name. Written
/// from the paper's five steps, sharing no code with the pipeline.
struct Staged {
    cfg: CleaningConfig,
    registry: SchemaRegistry,
    /// Tags the ONS knows, with their product names.
    names: HashMap<u64, String>,
    /// (tag, reader) -> last tick with a genuine reading.
    last_seen: HashMap<(u64, ReaderId), Tick>,
    /// (tag, area) -> timestamp of the last emitted reading.
    last_emitted: HashMap<(u64, i64), u64>,
    last_ts: Option<u64>,
    stats: PipelineStats,
}

impl Staged {
    fn new(cfg: CleaningConfig, names: HashMap<u64, String>) -> Self {
        let registry = SchemaRegistry::new();
        register_reading_schemas(&registry).unwrap();
        Staged {
            cfg,
            registry,
            names,
            last_seen: HashMap::new(),
            last_emitted: HashMap::new(),
            last_ts: None,
            stats: PipelineStats::default(),
        }
    }

    fn process_tick(&mut self, tick: Tick, readings: &[RawReading]) -> Vec<Event> {
        let (cfg, s) = (&self.cfg, &mut self.stats);

        // Anomaly filtering: (tag, reader) of each plausible reading.
        let mut clean = Vec::new();
        for r in readings {
            s.anomaly.seen += 1;
            match r.tag {
                RawTag::Truncated { .. } => s.anomaly.dropped_truncated += 1,
                RawTag::Full(code) if !cfg.is_valid_tag(code) => s.anomaly.dropped_spurious += 1,
                RawTag::Full(code) => {
                    s.anomaly.passed += 1;
                    clean.push((code, r.reader));
                }
            }
        }

        // Temporal smoothing: genuine readings, then the sorted presences
        // seen within the window but missed this cycle.
        let w = cfg.smoothing_window;
        for &key in &clean {
            self.last_seen.insert(key, tick);
        }
        s.smoothing.genuine += clean.len() as u64;
        let mut missing: Vec<(u64, ReaderId)> = self
            .last_seen
            .iter()
            .filter(|(_, &last)| last != tick && tick - last <= w)
            .map(|(&key, _)| key)
            .collect();
        missing.sort_unstable();
        let tracked = self.last_seen.len();
        self.last_seen.retain(|_, last| tick - *last <= w);
        s.smoothing.expired += (tracked - self.last_seen.len()) as u64;
        s.smoothing.interpolated += missing.len() as u64;
        let mut smoothed = clean;
        smoothed.extend(missing);

        // Time conversion and association: (tag, area, timestamp).
        let mut timed = Vec::new();
        for (tag, reader) in smoothed {
            match cfg.reader_areas.get(&reader) {
                None => s.time.unassociated += 1,
                Some(area) => {
                    s.time.converted += 1;
                    timed.push((tag, area.area_id, tick * cfg.units_per_tick));
                }
            }
        }

        // Deduplication.
        let mut deduped = Vec::new();
        for (tag, area, ts) in timed {
            match self.last_emitted.get(&(tag, area)) {
                Some(&last) if ts.saturating_sub(last) <= cfg.dedup_window => {
                    s.dedup.suppressed += 1
                }
                _ => {
                    self.last_emitted.insert((tag, area), ts);
                    s.dedup.passed += 1;
                    deduped.push((tag, area, ts));
                }
            }
        }

        // Event generation, timestamps nudged to be strictly increasing.
        let mut events = Vec::new();
        for (tag, area, ts) in deduped {
            let Some(name) = self.names.get(&tag) else {
                s.events.unknown_tag += 1;
                continue;
            };
            let ts = match self.last_ts {
                Some(last) if ts <= last => {
                    s.events.nudged_timestamps += 1;
                    last + 1
                }
                _ => ts,
            };
            self.last_ts = Some(ts);
            let kind = cfg
                .reader_areas
                .values()
                .find(|a| a.area_id == area)
                .unwrap()
                .kind;
            let attrs = vec![
                Value::Int(cfg.item_of_tag(tag) as i64),
                Value::str(name.as_str()),
                Value::Int(area),
            ];
            events.push(
                self.registry
                    .build_event(kind.event_type(), ts, attrs)
                    .unwrap(),
            );
            s.events.generated += 1;
        }
        events
    }
}

/// One dirty reading: `shape` picks a truncated capture (0), a ghost code
/// (1) or a complete one; items 8.. are unknown to the ONS, and readers
/// outside 1..=4 have no area.
fn dirty_reading(
    cfg: &CleaningConfig,
    (shape, item, reader): (u8, u64, ReaderId),
    tick: Tick,
) -> RawReading {
    let tag = match shape {
        0 => RawTag::Truncated {
            partial: item,
            bits: 8,
        },
        1 => RawTag::Full(0xBAD0_0000_0000_0000 | item),
        _ => RawTag::Full(cfg.make_tag(item)),
    };
    RawReading { tag, reader, tick }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events always come out in strictly increasing timestamp order, for
    /// any presence pattern and any window configuration.
    #[test]
    fn events_strictly_ordered(
        pattern in prop::collection::vec(
            prop::collection::vec((0u64..8, 1u32..5), 0..6), 1..30),
        smoothing in 0u64..4,
        dedup in 0u64..4,
    ) {
        let (mut p, cfg) = pipeline(smoothing, dedup);
        let mut all = Vec::new();
        for (tick, cycle) in pattern.iter().enumerate() {
            let readings: Vec<RawReading> = cycle
                .iter()
                .map(|(item, reader)| {
                    RawReading::full(cfg.make_tag(*item), *reader, tick as u64)
                })
                .collect();
            all.extend(p.process_tick(tick as u64, &readings).unwrap());
        }
        for w in all.windows(2) {
            prop_assert!(w[0].timestamp() < w[1].timestamp());
        }
    }

    /// Layer counters balance: everything that enters is either dropped by
    /// a named layer or becomes an event.
    #[test]
    fn counters_balance(
        pattern in prop::collection::vec(
            prop::collection::vec((0u64..8, 1u32..5), 0..6), 1..30),
    ) {
        let (mut p, cfg) = pipeline(2, 1);
        for (tick, cycle) in pattern.iter().enumerate() {
            let readings: Vec<RawReading> = cycle
                .iter()
                .map(|(item, reader)| {
                    RawReading::full(cfg.make_tag(*item), *reader, tick as u64)
                })
                .collect();
            p.process_tick(tick as u64, &readings).unwrap();
        }
        let s = p.stats();
        // Anomaly: seen = dropped + passed.
        prop_assert_eq!(
            s.anomaly.seen,
            s.anomaly.dropped_truncated + s.anomaly.dropped_spurious + s.anomaly.passed
        );
        // Time conversion sees genuine + interpolated readings.
        prop_assert_eq!(
            s.time.converted + s.time.unassociated,
            s.smoothing.genuine + s.smoothing.interpolated
        );
        // Dedup: in = out + suppressed.
        prop_assert_eq!(s.time.converted, s.dedup.passed + s.dedup.suppressed);
        // Every deduped reading becomes an event or an unknown-tag drop.
        prop_assert_eq!(s.dedup.passed, s.events.generated + s.events.unknown_tag);
    }

    /// With smoothing window w, a tag continuously present but read at
    /// least once every w ticks never produces a gap: the smoother reports
    /// presence on every tick in between.
    #[test]
    fn smoothing_bridges_gaps_up_to_w(gap in 1u64..3) {
        let (mut p, cfg) = pipeline(2, 0); // dedup 0: every unit passes
        let tag = cfg.make_tag(1);
        let mut seen_ticks = Vec::new();
        for tick in 0..20u64 {
            let readings = if tick % (gap + 1) == 0 {
                vec![RawReading::full(tag, 1, tick)]
            } else {
                vec![]
            };
            for e in p.process_tick(tick, &readings).unwrap() {
                seen_ticks.push(e.timestamp());
            }
        }
        // gap <= w = 2, so presence is continuous over [0, 18+].
        for expect in 0..=18u64 {
            prop_assert!(
                seen_ticks.contains(&expect),
                "missing presence at tick {} (gap {}): {:?}",
                expect, gap, seen_ticks
            );
        }
    }

    /// The one-pass pipeline and the staged reference agree, tick by tick,
    /// on dirty input: the events they emit and every layer's counters.
    #[test]
    fn one_pass_matches_staged_reference(
        pattern in prop::collection::vec(
            (1u64..4, prop::collection::vec((0u8..8, 0u64..12, 0u32..7), 0..10)),
            1..40),
        smoothing in 0u64..4,
        dedup in 0u64..4,
        units in 1u64..4,
    ) {
        let mut cfg = CleaningConfig::retail_demo();
        cfg.smoothing_window = smoothing;
        cfg.dedup_window = dedup;
        cfg.units_per_tick = units;
        let mut p = pipeline_for(cfg.clone());
        let names = (0..8).map(|item| (cfg.make_tag(item), format!("p{item}"))).collect();
        let mut staged = Staged::new(cfg.clone(), names);
        let mut tick = 0;
        for (gap, cycle) in &pattern {
            tick += gap;
            let readings: Vec<RawReading> =
                cycle.iter().map(|&r| dirty_reading(&cfg, r, tick)).collect();
            let rendered = |events: Vec<Event>| {
                events.iter().map(|e| e.to_string()).collect::<Vec<_>>()
            };
            prop_assert_eq!(
                rendered(p.process_tick(tick, &readings).unwrap()),
                rendered(staged.process_tick(tick, &readings))
            );
            prop_assert_eq!(p.stats(), staged.stats);
        }
    }
}
