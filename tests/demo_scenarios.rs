//! Experiments D1–D3 (DESIGN.md): the full §4 demonstration, asserted
//! against scenario ground truth across noise levels and seeds.

use sase::core::value::Value;
use sase::rfid::noise::NoiseModel;
use sase::rfid::scenario::RetailScenario;
use sase::system::SaseSystem;

fn flagged_items(sys: &SaseSystem, query: &str) -> Vec<i64> {
    let mut v: Vec<i64> = sys
        .detections_for(query)
        .iter()
        .filter_map(|d| d.value("x.TagId").and_then(Value::as_int))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// D1 — shoplifting detection is exact (no misses, no false accusations)
/// with perfect devices, across several scenario seeds.
#[test]
fn d1_shoplifting_exact_with_perfect_devices() {
    for seed in [1u64, 2, 3, 4, 5] {
        let mut sys = SaseSystem::retail(NoiseModel::perfect(), seed, 40).unwrap();
        sys.register_demo_queries().unwrap();
        let scenario = RetailScenario::build(sys.config(), seed * 31, 5, 3, 1);
        sys.run_scenario(&scenario).unwrap();
        assert_eq!(
            flagged_items(&sys, "shoplifting"),
            scenario.truth.shoplifted,
            "seed {seed}"
        );
    }
}

/// D1' — detection survives realistic device noise thanks to the cleaning
/// stack.
#[test]
fn d1_shoplifting_with_realistic_noise() {
    for seed in [10u64, 20, 30] {
        let mut sys = SaseSystem::retail(NoiseModel::realistic(), seed, 40).unwrap();
        sys.register_demo_queries().unwrap();
        let scenario = RetailScenario::build(sys.config(), seed + 7, 6, 3, 0);
        sys.run_scenario(&scenario).unwrap();
        let flagged = flagged_items(&sys, "shoplifting");
        for thief in &scenario.truth.shoplifted {
            assert!(flagged.contains(thief), "seed {seed}: missed {thief}");
        }
        for honest in &scenario.truth.honest {
            assert!(
                !flagged.contains(honest),
                "seed {seed}: false accusation of {honest}"
            );
        }
    }
}

/// D2 — misplaced inventory: the monitor fires with the movement-history
/// database lookup joined in.
#[test]
fn d2_misplaced_inventory_with_history_lookup() {
    let mut sys = SaseSystem::retail(NoiseModel::perfect(), 77, 40).unwrap();
    sys.register_demo_queries().unwrap();
    // Every product's home shelf is area 1 for this monitor.
    sys.register_misplaced_query("misplaced", "cereal", 1)
        .unwrap();

    // Script: item 5 ("cereal") stocked on shelf 1, later misplaced to 2.
    let cfg = sys.config().clone();
    let tag = cfg.make_tag(5);
    sys.simulator().place_tag(tag, 1);
    for _ in 0..4 {
        sys.tick(None).unwrap();
    }
    assert!(
        sys.detections_for("misplaced").is_empty(),
        "home shelf is fine"
    );
    sys.simulator().place_tag(tag, 2);
    for _ in 0..4 {
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
    assert!(
        history.contains("in area 1"),
        "history shows the home shelf: {history}"
    );
}

/// D3 — archiving rules keep the event database consistent with the floor:
/// after the scenario, every remaining item's current DB location matches
/// the simulator's ground truth.
#[test]
fn d3_archiving_rules_mirror_ground_truth() {
    let mut sys = SaseSystem::retail(NoiseModel::perfect(), 13, 40).unwrap();
    sys.register_demo_queries().unwrap();
    let scenario = RetailScenario::build(sys.config(), 41, 4, 2, 2);
    sys.run_scenario(&scenario).unwrap();

    let cfg = sys.config().clone();
    for &item in &scenario.truth.misplaced {
        let sim_area = sys.simulator().tag_area(cfg.make_tag(item as u64));
        let db_area = sys
            .track_and_trace()
            .current_location(item)
            .unwrap()
            .map(|s| s.area);
        assert_eq!(sim_area, db_area, "item {item}");
    }
    // Departed items' last stay is the exit.
    for &item in scenario
        .truth
        .honest
        .iter()
        .chain(&scenario.truth.shoplifted)
    {
        let hist = sys.track_and_trace().locations().history(item).unwrap();
        assert_eq!(
            hist.last().map(|s| s.area),
            Some(4),
            "item {item} last seen at the exit: {hist:?}"
        );
    }
}

/// D3'' — the two read paths see the same database: what track-and-trace
/// reads through the typed stores is what ad-hoc SQL reads from the tables
/// the archiving rules wrote.
#[test]
fn d3_track_and_trace_equals_the_same_history_through_sql() {
    use sase::db::TraceEntry;

    let mut sys = SaseSystem::retail(NoiseModel::perfect(), 13, 40).unwrap();
    sys.register_demo_queries().unwrap();
    let scenario = RetailScenario::build(sys.config(), 41, 4, 2, 2);
    sys.run_scenario(&scenario).unwrap();
    // A boxed leg, so the merged history has both kinds of entry.
    let boxed = scenario.truth.misplaced[0];
    let containments = sys.track_and_trace().containments();
    containments.add_to_container(boxed, 1000, 1).unwrap();
    containments.remove_from_container(boxed, 3).unwrap();

    let through_sql = |item: i64| {
        let rows = |table: &str, place: &str| {
            sys.database()
                .query(&format!(
                    "SELECT {place}, time_in, time_out FROM {table} WHERE item = {item} ORDER BY time_in"
                ))
                .unwrap()
                .rows
                .into_iter()
                .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect::<Vec<i64>>())
                .collect::<Vec<_>>()
        };
        let mut entries: Vec<TraceEntry> = rows("item_location", "area")
            .iter()
            .map(|r| TraceEntry::Location {
                area: r[0],
                time_in: r[1],
                time_out: r[2],
            })
            .chain(
                rows("containment", "container")
                    .iter()
                    .map(|r| TraceEntry::Containment {
                        container: r[0],
                        time_in: r[1],
                        time_out: r[2],
                    }),
            )
            .collect();
        entries.sort_by_key(|e| (e.time_in(), matches!(e, TraceEntry::Containment { .. })));
        entries
    };
    let truth = &scenario.truth;
    let mut checked = 0;
    for &item in truth
        .misplaced
        .iter()
        .chain(&truth.honest)
        .chain(&truth.shoplifted)
    {
        let history = sys.track_and_trace().movement_history(item).unwrap();
        assert!(!history.is_empty(), "item {item} was archived");
        assert_eq!(history, through_sql(item), "item {item}");
        checked += history.len();
    }
    assert!(checked > truth.honest.len(), "histories have several stays");
}

/// D3' — the Q2-form location_change rule and the complete archive rule
/// agree: Q2 fires only on actual area changes.
#[test]
fn d3_q2_fires_only_on_area_changes() {
    let mut sys = SaseSystem::retail(NoiseModel::perfect(), 99, 40).unwrap();
    sys.register_demo_queries().unwrap();
    let cfg = sys.config().clone();
    let tag = cfg.make_tag(3);
    sys.simulator().place_tag(tag, 1);
    for _ in 0..6 {
        sys.tick(None).unwrap();
    }
    assert!(
        sys.detections_for("location_change").is_empty(),
        "no move yet"
    );
    sys.simulator().place_tag(tag, 2);
    for _ in 0..4 {
        sys.tick(None).unwrap();
    }
    assert!(!sys.detections_for("location_change").is_empty());
}

/// D5 — the complete dataflow is observable: raw readings become events,
/// events become detections, detections reach every UI window.
#[test]
fn d5_dataflow_taps() {
    let mut sys = SaseSystem::retail(NoiseModel::realistic(), 3, 40).unwrap();
    sys.register_demo_queries().unwrap();
    let scenario = RetailScenario::build(sys.config(), 8, 3, 1, 0);
    sys.run_scenario(&scenario).unwrap();

    let stats = sys.cleaning_stats();
    assert!(stats.anomaly.seen > 0);
    assert!(stats.events.generated > 0);
    assert!(!sys.cleaning_tap().is_empty());

    let text = sys.ui_report().render();
    assert!(text.contains("Message Results"));
    assert!(text.contains("shoplifting detected"));
    assert!(text.contains("_retrieveLocation"));
    assert!(text.contains("READING@"));
    // "Present Queries" shows the canonical query texts (Fig 3 top-left).
    assert!(text.contains("SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z)"));
}

/// Restocked inventory must not trip any monitoring query.
#[test]
fn restocking_causes_no_false_alarms() {
    let mut sys = SaseSystem::retail(NoiseModel::perfect(), 31, 40).unwrap();
    sys.register_demo_queries().unwrap();
    let scenario = RetailScenario::build_full(sys.config(), 17, 3, 2, 0, 4);
    sys.run_scenario(&scenario).unwrap();
    let flagged = flagged_items(&sys, "shoplifting");
    assert_eq!(flagged, scenario.truth.shoplifted);
    for restocked in &scenario.truth.restocked {
        assert!(!flagged.contains(restocked));
        // The archive rule recorded their shelf arrival.
        let cur = sys.track_and_trace().current_location(*restocked).unwrap();
        assert!(cur.is_some(), "restocked item {restocked} archived");
    }
}
