//! `retail_pipeline`: the paper's demo end to end — simulated readers →
//! cleaning → the demo queries with their database built-ins — one whole
//! scripted scenario per round through `SaseSystem::tick`.
//!
//! The engine is used differently from the fan-in block (three queries,
//! one with negation, per-tag partitions, small per-tick batches,
//! host-function database calls), so router, WAL and wire changes must
//! predict *no change* here.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use sase::core::engine::Engine;
use sase::core::event::SchemaRegistry;
use sase::core::functions::FunctionRegistry;
use sase::core::output::ComplexEvent;
use sase::db::{Database, TrackAndTrace};
use sase::rfid::noise::NoiseModel;
use sase::rfid::scenario::RetailScenario;
use sase::rfid::sim::RfidSimulator;
use sase::rfid::wire::{decode_frame, encode_frame};
use sase::stream::config::CleaningConfig;
use sase::stream::event_gen::{register_reading_schemas, StaticOns};
use sase::stream::pipeline::CleaningPipeline;
use sase::system::queries::{ARCHIVE_LOCATION, LOCATION_CHANGE, SHOPLIFTING};
use sase::system::{register_db_builtins, retail_area_descriptions, seed_area_info, SaseSystem};

use crate::input::checksum;
use crate::round::{put, CpuMeter, Laps, Layers, Round, Workload};
use crate::spans::{median_us, total_us, Recorder};

/// The cast of one scenario. Shoppers enter one to three scan cycles
/// apart, so the scenario spans about two cycles per agent.
const HONEST: usize = 160;
const SHOPLIFTERS: usize = 40;
const MISPLACED: usize = 24;
const RESTOCKED: usize = 16;
const CATALOG: usize = HONEST + SHOPLIFTERS + MISPLACED + RESTOCKED;
/// The script is fixed: `--seed` seeds the readers' noise, so every seed
/// plays the same store and only the raw readings differ. A script drawn
/// from the seed would make a round's work vary by several percent from
/// seed to seed, which is workload drift, not the program.
const SCENARIO_SEED: u64 = 2007;
/// Database calls timed per traced round.
const DB_CALLS: usize = 512;

/// Readers that garble and invent readings, so anomaly filtering and
/// smoothing have work to do, but never simply miss a tag: a shopper is in
/// front of a reader for as few as three scan cycles, and a workload may
/// not fail on any seed because three captures in a row went missing.
fn noise() -> NoiseModel {
    NoiseModel {
        read_prob: 1.0,
        ghost_prob: 0.02,
        truncate_prob: 0.01,
        overlap_prob: 0.0,
    }
}

pub struct Retail {
    seed: u64,
    scenario: RetailScenario,
    /// Detections of a correct round: count and order-independent
    /// checksum, from `SaseSystem::run_scenario`.
    reference: (u64, u64),
    gen_s: f64,
}

/// Assemble the system and register the demo queries, one lap per step.
fn deploy(seed: u64, laps: &mut Laps) -> SaseSystem {
    let mut sys = SaseSystem::retail(noise(), seed, CATALOG).expect("retail system assembles");
    laps.lap();
    sys.register_demo_queries().expect("demo queries register");
    laps.lap();
    sys
}

/// What a round detected, as count and order-independent checksum.
fn fingerprint(detections: &[ComplexEvent]) -> (u64, u64) {
    (
        detections.len() as u64,
        checksum(detections.iter().map(|d| d.to_string())),
    )
}

/// Item ids flagged by one query's detections, read off the variable
/// `var`'s matched event.
fn flagged(detections: &[ComplexEvent], query: &str, var: &str) -> BTreeSet<i64> {
    let cfg = CleaningConfig::retail_demo();
    detections
        .iter()
        .filter(|d| d.query.as_ref() == query)
        .filter_map(|d| d.event_for(var)?.attr("TagId")?.as_int())
        .map(|tag| cfg.item_of_tag(tag as u64) as i64)
        .collect()
}

impl Retail {
    pub fn new(seed: u64) -> Self {
        let start = Instant::now();
        let cfg = CleaningConfig::retail_demo();
        let scenario = RetailScenario::build_full(
            &cfg,
            SCENARIO_SEED,
            HONEST,
            SHOPLIFTERS,
            MISPLACED,
            RESTOCKED,
        );
        let detections = deploy(seed, &mut Laps::start())
            .run_scenario(&scenario)
            .expect("reference scenario runs");
        Retail {
            seed,
            scenario,
            reference: fingerprint(&detections),
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    /// A round is correct when it detects exactly what the reference run
    /// detected, and that is exactly what the scenario planted.
    fn failed_ticks(&self, ticks: u64, errored: u64, detections: &[ComplexEvent]) -> u64 {
        let truth = &self.scenario.truth;
        let want = |items: &[i64]| items.iter().copied().collect::<BTreeSet<i64>>();
        let same_as_reference = fingerprint(detections) == self.reference;
        let thieves = flagged(detections, "shoplifting", "x") == want(&truth.shoplifted);
        let moved = flagged(detections, "location_change", "x") == want(&truth.misplaced);
        if errored == 0 && same_as_reference && thieves && moved {
            0
        } else {
            eprintln!(
                "perfbench: retail round wrong: errored {errored}, reference {same_as_reference}, \
                 shoplifting {thieves}, location_change {moved}"
            );
            ticks
        }
    }
}

impl Workload for Retail {
    fn round(&mut self) -> Round {
        let mut setup = Laps::start();
        let mut sys = deploy(self.seed, &mut setup);

        let ticks = self.scenario.duration as usize;
        let mut calls_us = Vec::with_capacity(ticks);
        let mut emitted = Vec::with_capacity(ticks);
        let mut errored = 0u64;
        let mut cpu_us = Vec::with_capacity(ticks);
        let mut cpu = CpuMeter::start();
        for _ in 0..ticks {
            let sent = Instant::now();
            let result = sys.tick(Some(&self.scenario));
            calls_us.push(sent.elapsed().as_secs_f64() * 1e6);
            cpu_us.push(cpu.lap_us());
            emitted.push(result.as_ref().map_or(0, |r| r.detections.len() as u32));
            errored += u64::from(result.is_err());
        }

        setup.us.push(calls_us[0]);
        Round {
            setup_us: setup.us,
            records: sys.cleaning_stats().anomaly.seen,
            calls_us,
            cpu_us,
            emitted,
            attempted: ticks as u64,
            failed: self.failed_ticks(ticks as u64, errored, sys.detections()),
        }
    }

    fn traced_round(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Round {
        let mark = rec.mark();
        let root = rec.enter("round", None);
        let setup_span = rec.enter("setup", None);
        let mut sys = rec.leaf("system.retail", None, || {
            SaseSystem::retail(noise(), self.seed, CATALOG).expect("retail system assembles")
        });
        rec.leaf("system.register_demo_queries", None, || {
            sys.register_demo_queries().expect("demo queries register")
        });
        rec.exit(setup_span);

        let ticks = self.scenario.duration as usize;
        let mut calls_us = Vec::with_capacity(ticks);
        let mut emitted = Vec::with_capacity(ticks);
        let mut errored = 0u64;
        for t in 0..ticks {
            let sent = Instant::now();
            let result = rec.leaf("system.tick", Some(t as u32), || {
                sys.tick(Some(&self.scenario))
            });
            calls_us.push(sent.elapsed().as_secs_f64() * 1e6);
            emitted.push(result.as_ref().map_or(0, |r| r.detections.len() as u32));
            errored += u64::from(result.is_err());
        }

        // The same scan cycles, layer by layer, on the replica stack.
        let mut replica = Replica::new(self.seed);
        let (mut readings_n, mut events_n) = (0u64, 0u64);
        for t in 0..ticks {
            let b = Some(t as u32);
            let tick = replica.sim.now();
            let readings = rec.leaf("rfid.sim.tick.replica", b, || {
                self.scenario.apply_tick(&mut replica.sim, tick);
                replica.sim.tick()
            });
            let frame = rec.leaf("rfid.frame_encode.replica", b, || {
                encode_frame(tick, &readings).expect("one scan cycle encodes")
            });
            let (_, decoded) = rec.leaf("rfid.frame_decode.replica", b, || {
                decode_frame(frame).expect("the frame just encoded decodes")
            });
            let events = rec.leaf("stream.clean.replica", b, || {
                replica
                    .pipeline
                    .process_tick(tick, &decoded)
                    .expect("cleaning accepts the cycle")
            });
            let _ = rec.leaf("core.engine.process_batch.replica", b, || {
                replica.engine.process_batch(&events)
            });
            readings_n += readings.len() as u64;
            events_n += events.len() as u64;
        }

        // The event database's two hot calls, on the replica's tables.
        let locations = replica.tnt.locations();
        for i in 0..DB_CALLS as i64 {
            let (item, area, ts) = (1_000 + i % 64, 1 + (i / 64) % 4, 1_000_000 + i);
            rec.leaf("db.update_location", None, || {
                locations
                    .update_location(item, area, ts)
                    .expect("location updates")
            });
            rec.leaf("db.current_location", None, || {
                locations.current_location(item).expect("location reads")
            });
        }
        rec.exit(root);

        let spans = rec.since(mark);
        let tick_us = total_us(spans, "system.tick");
        for (name, span) in [
            ("rfid.sim_us_per_tick", "rfid.sim.tick.replica"),
            ("rfid.frame_encode_us_per_tick", "rfid.frame_encode.replica"),
            ("rfid.frame_decode_us_per_tick", "rfid.frame_decode.replica"),
            ("stream.clean_us_per_tick", "stream.clean.replica"),
            ("db.update_location_us", "db.update_location"),
            ("db.current_location_us", "db.current_location"),
            ("system.tick_us", "system.tick"),
        ] {
            put(layers, name, median_us(spans, span));
        }
        put(
            layers,
            "system.engine_share_of_tick",
            total_us(spans, "core.engine.process_batch.replica") / tick_us,
        );
        put(
            layers,
            "rfid.readings_per_tick",
            readings_n as f64 / ticks as f64,
        );
        put(
            layers,
            "stream.events_out_per_reading",
            events_n as f64 / readings_n.max(1) as f64,
        );
        let dedup = replica.pipeline.stats().dedup;
        put(
            layers,
            "stream.dedup_drop_share",
            dedup.suppressed as f64 / (dedup.passed + dedup.suppressed).max(1) as f64,
        );
        let negation_drops = sys
            .processor()
            .stats("shoplifting")
            .expect("shoplifting is registered")
            .dropped_by_negation;
        put(
            layers,
            "core.negation_drops_per_kevent",
            negation_drops as f64 * 1e3 / events_n.max(1) as f64,
        );

        Round {
            setup_us: Vec::new(),
            records: sys.cleaning_stats().anomaly.seen,
            calls_us,
            cpu_us: Vec::new(),
            emitted,
            attempted: ticks as u64,
            failed: self.failed_ticks(ticks as u64, errored, sys.detections()),
        }
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }
}

/// The layers `SaseSystem::retail` wires together, held apart so each
/// can be timed on its own: same configuration, same simulator seed, its
/// own database.
struct Replica {
    sim: RfidSimulator,
    pipeline: CleaningPipeline,
    engine: Engine,
    tnt: TrackAndTrace,
}

impl Replica {
    fn new(seed: u64) -> Self {
        let cfg = CleaningConfig::retail_demo();
        let registry = SchemaRegistry::new();
        register_reading_schemas(&registry).expect("reading schemas register");
        let db = Database::new();
        seed_area_info(&db, &retail_area_descriptions()).expect("area table seeds");
        let mut ons = StaticOns::new();
        for item in 1..=CATALOG as u64 {
            ons.insert(cfg.make_tag(item), "product", "grocery", 100);
        }
        let functions = FunctionRegistry::with_stdlib();
        register_db_builtins(&functions, &db).expect("database built-ins register");
        let mut engine = Engine::with_functions(registry.clone(), functions);
        for (name, src) in [
            ("shoplifting", SHOPLIFTING),
            ("location_change", LOCATION_CHANGE),
            ("archive_location", ARCHIVE_LOCATION),
        ] {
            engine.register(name, src).expect("demo query registers");
        }
        Replica {
            sim: RfidSimulator::retail_demo(noise(), seed),
            pipeline: CleaningPipeline::new(cfg, registry, Arc::new(ons)),
            engine,
            tnt: TrackAndTrace::open(db).expect("track-and-trace opens"),
        }
    }
}
