//! The assembled SASE system (Figure 1): RFID devices → Cleaning and
//! Association → Complex Event Processor → results + Event Database.

use std::sync::Arc;

use sase_core::engine::Engine;
use sase_core::error::{Result as CoreResult, SaseError};
use sase_core::event::{Event, SchemaRegistry};
use sase_core::functions::FunctionRegistry;
use sase_core::output::ComplexEvent;
use sase_core::processor::EventProcessor;
use sase_core::value::{Value, ValueType};

use sase_db::{Database, TrackAndTrace};
use sase_rfid::noise::NoiseModel;
use sase_rfid::scenario::RetailScenario;
use sase_rfid::sim::RfidSimulator;
use sase_rfid::warehouse::WarehouseTrace;
use sase_stream::config::CleaningConfig;
use sase_stream::event_gen::{register_reading_schemas, StaticOns};
use sase_stream::pipeline::{CleaningPipeline, PipelineStats};
use sase_stream::reading::Tick;

use crate::builtins::{register_db_builtins, retail_area_descriptions, seed_area_info};

/// Everything produced by one system tick.
#[derive(Debug, Default)]
pub struct TickResult {
    /// Events that left the cleaning layer this tick.
    pub events: Vec<Event>,
    /// Composite events emitted by continuous queries this tick.
    pub detections: Vec<ComplexEvent>,
}

/// Product names the demo catalog cycles through.
const PRODUCT_NAMES: [&str; 8] = [
    "milk",
    "soap",
    "bread",
    "razor",
    "cereal",
    "coffee",
    "batteries",
    "shampoo",
];

/// The demo catalog entry for an item id: `(name, category, price cents)`.
fn demo_product(item: u64) -> (&'static str, &'static str, i64) {
    let name = PRODUCT_NAMES[(item as usize - 1) % PRODUCT_NAMES.len()];
    let category = if item % 2 == 0 {
        "household"
    } else {
        "grocery"
    };
    let price = 99 + (item as i64 % 40) * 25;
    (name, category, price)
}

/// What every retail deployment is assembled from: the reading schemas,
/// the host functions bound to an event database seeded (by value, never
/// as SQL text) with area descriptions and the product catalog, and a
/// cleaning pipeline over a simulated ONS holding the same catalog.
pub(crate) fn retail_parts(
    catalog_size: usize,
) -> CoreResult<(SchemaRegistry, FunctionRegistry, Database, CleaningPipeline)> {
    let cfg = CleaningConfig::retail_demo();
    let registry = SchemaRegistry::new();
    register_reading_schemas(&registry)?;

    let db = Database::new();
    seed_area_info(&db, &retail_area_descriptions()).map_err(db_err)?;
    let columns = [
        ("item", ValueType::Int),
        ("name", ValueType::Str),
        ("category", ValueType::Str),
        ("price_cents", ValueType::Int),
    ];
    db.ensure_table("product", &columns, &["item"])
        .map_err(db_err)?;
    let mut ons = StaticOns::new();
    for item in 1..=catalog_size as u64 {
        let (name, category, price) = demo_product(item);
        ons.insert(cfg.make_tag(item), name, category, price);
        let row = vec![
            Value::Int(item as i64),
            Value::str(name),
            Value::str(category),
            Value::Int(price),
        ];
        db.insert("product", row).map_err(db_err)?;
    }

    let functions = FunctionRegistry::with_stdlib();
    register_db_builtins(&functions, &db).map_err(db_err)?;
    let pipeline = CleaningPipeline::new(cfg, registry.clone(), Arc::new(ons));
    Ok((registry, functions, db, pipeline))
}

/// The fully wired system: simulator, cleaning pipeline, engine, database.
///
/// The complex-event-processor stage is held behind the unified
/// [`EventProcessor`] surface, so a single [`Engine`] (the default) and
/// any other deployment shape are interchangeable without touching the
/// tick path.
pub struct SaseSystem {
    registry: SchemaRegistry,
    /// Kept so [`SaseSystem::reset_engine`] can rebuild a fresh engine
    /// sharing the same host functions.
    functions: FunctionRegistry,
    db: Database,
    tnt: TrackAndTrace,
    engine: Box<dyn EventProcessor>,
    pipeline: CleaningPipeline,
    sim: RfidSimulator,
    /// Tap of recent cleaned events for the UI window (bounded).
    cleaning_tap: Vec<Event>,
    /// All detections so far, for the "Message Results" window.
    detections: Vec<ComplexEvent>,
}

impl SaseSystem {
    /// Assemble the retail demo deployment (Figure 2): four readers over
    /// two shelves, a counter, and an exit; a product catalog of
    /// `catalog_size` tagged items; the paper's built-in DB functions
    /// registered and the `area_info` table seeded.
    pub fn retail(noise: NoiseModel, seed: u64, catalog_size: usize) -> CoreResult<Self> {
        let (registry, functions, db, pipeline) = retail_parts(catalog_size)?;
        Ok(SaseSystem {
            engine: Box::new(Engine::with_functions(registry.clone(), functions.clone())),
            tnt: TrackAndTrace::open(db.clone()).map_err(db_err)?,
            sim: RfidSimulator::retail_demo(noise, seed),
            registry,
            functions,
            db,
            pipeline,
            cleaning_tap: Vec::new(),
            detections: Vec::new(),
        })
    }

    /// The cleaning configuration.
    pub fn config(&self) -> &CleaningConfig {
        self.pipeline.config()
    }

    /// The schema registry.
    pub fn schemas(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// The event database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Track-and-trace query interface.
    pub fn track_and_trace(&self) -> &TrackAndTrace {
        &self.tnt
    }

    /// The continuous-query processor (read-only surface).
    pub fn processor(&self) -> &dyn EventProcessor {
        self.engine.as_ref()
    }

    /// The continuous-query processor: register queries, attach sinks, or
    /// ingest out-of-band batches through the unified
    /// [`EventProcessor`] surface.
    pub fn processor_mut(&mut self) -> &mut dyn EventProcessor {
        self.engine.as_mut()
    }

    /// Replace the processor with a fresh, empty single engine sharing the
    /// same schema and function registries — the "crash" half of
    /// engine-boundary recovery: every registered query, all NFA runtime
    /// state, and the stream clocks are gone, while the upstream layers
    /// (devices, cleaning, database) keep running. Recovery re-registers
    /// queries and restores a checkpoint (see
    /// [`crate::durable::DurableSystem`]).
    pub fn reset_engine(&mut self) {
        self.engine = Box::new(Engine::with_functions(
            self.registry.clone(),
            self.functions.clone(),
        ));
    }

    /// The device simulator.
    pub fn simulator(&mut self) -> &mut RfidSimulator {
        &mut self.sim
    }

    /// Cleaning-layer statistics.
    pub fn cleaning_stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// Recent cleaned events (the "Cleaning and Association Layer Output"
    /// window).
    pub fn cleaning_tap(&self) -> &[Event] {
        &self.cleaning_tap
    }

    /// All detections so far (the "Message Results" window).
    pub fn detections(&self) -> &[ComplexEvent] {
        &self.detections
    }

    /// Detections of one query.
    pub fn detections_for(&self, query: &str) -> Vec<&ComplexEvent> {
        self.detections
            .iter()
            .filter(|d| d.query.as_ref() == query)
            .collect()
    }

    /// Register a continuous query (SASE text) under a name.
    pub fn register_query(&mut self, name: &str, src: &str) -> CoreResult<()> {
        self.engine.register(name, src)
    }

    /// Register the demo's standing queries: shoplifting (Q1), the Q2
    /// location-change rule, and the complete location archiving rule.
    pub fn register_demo_queries(&mut self) -> CoreResult<()> {
        self.engine
            .register("shoplifting", crate::queries::SHOPLIFTING)?;
        self.engine
            .register("location_change", crate::queries::LOCATION_CHANGE)?;
        self.engine
            .register("archive_location", crate::queries::ARCHIVE_LOCATION)?;
        Ok(())
    }

    /// Register a misplaced-inventory monitor for a product family.
    pub fn register_misplaced_query(
        &mut self,
        name: &str,
        product: &str,
        home_shelf: i64,
    ) -> CoreResult<()> {
        self.engine.register(
            name,
            &crate::queries::misplaced_inventory(product, home_shelf),
        )
    }

    /// Archive detections produced outside the tick path (the durable
    /// wrapper's retried batches) so the "Message Results" window stays
    /// complete.
    pub(crate) fn archive_detections(&mut self, detections: &[ComplexEvent]) {
        self.detections.extend(detections.iter().cloned());
    }

    /// Advance the device and cleaning layers by one scan cycle *without*
    /// feeding the engine (the cycle's events are dropped).
    ///
    /// This is the upstream fast-forward for full-process recovery: the
    /// simulator and the cleaning layers (smoothing windows, dedup
    /// history, event-generation clock) are deterministic, so re-driving
    /// them to the crash tick reproduces their in-flight state exactly —
    /// after which live ticks continue the logical-time stream where the
    /// dead process left it. The engine's own state comes from the
    /// checkpoint + log instead (see `crate::durable::DurableSystem`).
    pub fn advance_upstream(&mut self, scenario: Option<&RetailScenario>) -> CoreResult<()> {
        let tick: Tick = self.sim.now();
        if let Some(s) = scenario {
            s.apply_tick(&mut self.sim, tick);
        }
        let readings = self.sim.tick();
        self.pipeline.process_tick(tick, &readings)?;
        Ok(())
    }

    /// Capacity of the bounded cleaned-event tap backing the UI window.
    const TAP_CAPACITY: usize = 256;

    /// Run one scan cycle: simulator → cleaning → event processor.
    pub fn tick(&mut self, scenario: Option<&RetailScenario>) -> CoreResult<TickResult> {
        self.tick_observed(scenario, &mut |_, _| Ok(()))
    }

    /// Like [`SaseSystem::tick`], but `observer` sees the tick's cleaned
    /// events *before* the engine ingests them. The durable deployment
    /// ([`crate::durable::DurableSystem`]) uses this as its write-ahead
    /// hook: the batch is appended to the event log first, so a crash
    /// between logging and processing replays the batch instead of losing
    /// it. An observer error aborts the tick before the engine sees the
    /// batch.
    pub fn tick_observed(
        &mut self,
        scenario: Option<&RetailScenario>,
        observer: &mut dyn FnMut(Tick, &[Event]) -> CoreResult<()>,
    ) -> CoreResult<TickResult> {
        let tick: Tick = self.sim.now();
        if let Some(s) = scenario {
            s.apply_tick(&mut self.sim, tick);
        }
        let readings = self.sim.tick();
        let events = self.pipeline.process_tick(tick, &readings)?;
        observer(tick, &events)?;
        // One batched ingest per tick instead of per-event engine calls.
        let mut detections = Vec::new();
        self.engine.ingest(None, &events, &mut detections, None)?;
        // Bounded UI tap: make room first so only surviving events are
        // cloned (events are cheap `Arc` handles, but still).
        if events.len() >= Self::TAP_CAPACITY {
            self.cleaning_tap.clear();
            self.cleaning_tap
                .extend(events[events.len() - Self::TAP_CAPACITY..].iter().cloned());
        } else {
            let overflow =
                (self.cleaning_tap.len() + events.len()).saturating_sub(Self::TAP_CAPACITY);
            if overflow > 0 {
                self.cleaning_tap.drain(..overflow);
            }
            self.cleaning_tap.extend(events.iter().cloned());
        }
        // Archive a clone of each emission: it shares its body with the
        // tick's own result, so archiving copies no events or values.
        self.detections.extend(detections.iter().cloned());
        Ok(TickResult { events, detections })
    }

    /// Play a scripted scenario to completion; returns every detection.
    pub fn run_scenario(&mut self, scenario: &RetailScenario) -> CoreResult<Vec<ComplexEvent>> {
        let mut all = Vec::new();
        let start = self.sim.now();
        while self.sim.now() < start + scenario.duration {
            let r = self.tick(Some(scenario))?;
            all.extend(r.detections);
        }
        Ok(all)
    }

    /// Capture the Figure 3 UI windows, with full query texts in the
    /// "Present Queries" window.
    pub fn ui_report(&self) -> crate::report::UiReport {
        let mut report = crate::report::UiReport::capture(self, &self.engine.query_names());
        for (name, text) in report.present_queries.iter_mut() {
            if let Ok(t) = self.engine.query_text(name) {
                *text = t;
            }
        }
        report
    }

    /// Pre-populate the event database from a warehouse trace (§4's
    /// track-and-trace data set).
    pub fn prepopulate_warehouse(&mut self, trace: &WarehouseTrace) -> CoreResult<()> {
        let (locations, boxes) = (self.tnt.locations(), self.tnt.containments());
        for m in &trace.movements {
            locations
                .update_location(m.item, m.area, m.ts as i64)
                .map_err(db_err)?;
        }
        for c in &trace.containments {
            if c.added {
                boxes.add_to_container(c.item, c.container, c.ts as i64)
            } else {
                boxes.remove_from_container(c.item, c.ts as i64).map(drop)
            }
            .map_err(db_err)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for SaseSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaseSystem")
            .field("detections", &self.detections.len())
            .field("cleaning", &self.pipeline.stats())
            .finish()
    }
}

fn db_err(e: sase_db::DbError) -> SaseError {
    SaseError::engine(format!("event database: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shoplifting_detected_end_to_end_with_perfect_devices() {
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), 7, 20).unwrap();
        sys.register_demo_queries().unwrap();
        let scenario = RetailScenario::build(sys.config(), 3, 2, 1, 0);
        sys.run_scenario(&scenario).unwrap();

        let hits = sys.detections_for("shoplifting");
        let mut flagged: Vec<i64> = hits
            .iter()
            .map(|d| d.value("x.TagId").unwrap().as_int().unwrap())
            .collect();
        flagged.sort_unstable();
        flagged.dedup();
        assert_eq!(
            flagged, scenario.truth.shoplifted,
            "exactly the planted thief"
        );
        // The DB lookup joined the paper's exit description.
        let desc = hits[0]
            .value("_retrieveLocation(z.AreaId)")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(desc.contains("door"));
    }

    #[test]
    fn the_archive_shares_each_emission_with_its_tick() {
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), 7, 20).unwrap();
        sys.register_demo_queries().unwrap();
        let scenario = RetailScenario::build(sys.config(), 3, 2, 1, 0);
        // `run_scenario` returns every tick's own detections.
        let ticked = sys.run_scenario(&scenario).unwrap();
        assert!(!ticked.is_empty());
        assert_eq!(ticked.len(), sys.detections().len());
        for (from_tick, archived) in ticked.iter().zip(sys.detections()) {
            assert!(std::sync::Arc::ptr_eq(&from_tick.events, &archived.events));
            assert!(std::sync::Arc::ptr_eq(&from_tick.values, &archived.values));
        }
    }

    #[test]
    fn archiving_rules_keep_database_current() {
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), 9, 20).unwrap();
        sys.register_demo_queries().unwrap();
        let scenario = RetailScenario::build(sys.config(), 4, 1, 0, 1);
        sys.run_scenario(&scenario).unwrap();

        // The misplaced item's location history ends on a shelf; the
        // archive rule must have recorded each hop.
        let item = scenario.truth.misplaced[0];
        let hist = sys.track_and_trace().locations().history(item).unwrap();
        assert!(hist.len() >= 2, "history: {hist:?}");
        let cur = sys
            .track_and_trace()
            .current_location(item)
            .unwrap()
            .unwrap();
        assert!(cur.area == 1 || cur.area == 2);
    }

    #[test]
    fn misplaced_inventory_query_fires_with_history_lookup() {
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), 11, 20).unwrap();
        sys.register_demo_queries().unwrap();
        // Home shelf of every product in this tiny demo is shelf 1.
        sys.register_misplaced_query("misplaced", "milk", 1)
            .unwrap();

        // Manually script: item 1 ("milk") placed on shelf 2 (wrong).
        let cfg = sys.config().clone();
        sys.simulator().place_tag(cfg.make_tag(1), 2);
        for _ in 0..3 {
            sys.tick(None).unwrap();
        }
        let hits = sys.detections_for("misplaced");
        assert!(!hits.is_empty());
        let history = hits[0]
            .value("_movementHistory(x.TagId)")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(history.contains("movement history"));
    }

    #[test]
    fn warehouse_prepopulation_supports_track_and_trace() {
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), 1, 10).unwrap();
        let trace = sase_rfid::warehouse::generate(5, 12, 3);
        sys.prepopulate_warehouse(&trace).unwrap();
        for &item in &trace.items {
            let cur = sys.track_and_trace().current_location(item).unwrap();
            assert!(cur.is_some(), "item {item} has a current location");
            let hist = sys.track_and_trace().movement_history(item).unwrap();
            assert!(hist.len() >= 4);
        }
    }

    /// The catalog is inserted by value, not spliced into SQL text: names
    /// come back as written, a quote included.
    #[test]
    fn catalog_rows_round_trip_through_sql() {
        let sys = SaseSystem::retail(NoiseModel::perfect(), 1, 8).unwrap();
        let db = sys.database();
        let rs = db.query("SELECT name FROM product ORDER BY item").unwrap();
        let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, PRODUCT_NAMES);

        let row = vec![
            Value::Int(99),
            Value::str("baker's yeast"),
            Value::str("grocery"),
            Value::Int(149),
        ];
        db.insert("product", row.clone()).unwrap();
        let rs = db
            .query("SELECT * FROM product WHERE name = 'baker''s yeast'")
            .unwrap();
        assert_eq!(rs.rows, vec![row]);
    }

    #[test]
    fn noisy_devices_still_detect_with_cleaning() {
        let mut sys = SaseSystem::retail(NoiseModel::realistic(), 21, 30).unwrap();
        sys.register_demo_queries().unwrap();
        let scenario = RetailScenario::build(sys.config(), 5, 4, 2, 0);
        sys.run_scenario(&scenario).unwrap();
        let mut flagged: Vec<i64> = sys
            .detections_for("shoplifting")
            .iter()
            .map(|d| d.value("x.TagId").unwrap().as_int().unwrap())
            .collect();
        flagged.sort_unstable();
        flagged.dedup();
        // With realistic (not harsh) noise, the cleaning stack recovers
        // every planted shoplifter and no honest shopper is flagged.
        for thief in &scenario.truth.shoplifted {
            assert!(flagged.contains(thief), "missed shoplifter {thief}");
        }
        for honest in &scenario.truth.honest {
            assert!(!flagged.contains(honest), "false accusation of {honest}");
        }
        let stats = sys.cleaning_stats();
        assert!(stats.anomaly.dropped_spurious > 0 || stats.anomaly.dropped_truncated > 0);
        assert!(stats.dedup.suppressed > 0);
    }

    #[test]
    fn engine_error_surfaces_from_tick() {
        // A query that fails at evaluation time surfaces in its own
        // `eval_errors`, not as the scan cycle's error: every tick
        // succeeds, and the other query's detections are archived, one per
        // reading `q` failed on.
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), 1, 4).unwrap();
        sys.register_query("seen", "EVENT SHELF_READING x RETURN x.TagId AS tag")
            .unwrap();
        sys.register_query(
            "q",
            "EVENT SHELF_READING x RETURN x.TagId / (x.AreaId - x.AreaId) AS boom",
        )
        .unwrap();
        let tag = sys.config().make_tag(1);
        sys.simulator().place_tag(tag, 1);
        for _ in 0..10 {
            sys.tick(None).unwrap();
        }
        let seen = sys.detections_for("seen").len() as u64;
        assert!(seen > 0, "the shelf reading reaches the engine");
        let stats = sys.processor().stats("q").unwrap();
        assert_eq!((stats.matches_emitted, stats.eval_errors), (0, seen));
    }
}
