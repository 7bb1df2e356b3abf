//! The paper's queries, verbatim, against the engine (experiments D1/D3)
//! and against the oracle built from the language's definition.

mod oracle;

use proptest::prelude::*;

use oracle::harness::{arb_stream, assert_engine_matches_oracle, generator_stream, materialize};
use sase::core::engine::Engine;
use sase::core::event::retail_registry;
use sase::core::lang::parse_query;
use sase::core::value::Value;
use sase::core::SchemaRegistry;
use sase::rfid::generator::SyntheticConfig;

/// Q1 exactly as printed in §2.1.1, including the unicode conjunction.
const Q1_VERBATIM: &str = "EVENT    SEQ(SHELF_READING x, ! ( COUNTER_READING y),
EXIT_READING z)
WHERE    x.TagId = y.TagId ∧ x.TagId  = z.TagId
WITHIN   12 hours
RETURN  x.TagId, x.ProductName, z.AreaId,
             _retrieveLocation(z.AreaId)";

/// Q2 exactly as printed (with the paper's Q1-style attribute names; the
/// paper itself switches between `id`/`TagId` spellings across examples).
const Q2_VERBATIM: &str = "EVENT     SEQ(SHELF_READING  x, SHELF_READING y)
WHERE     x.TagId = y.TagId  ∧ x.AreaId != y.AreaId
WITHIN    1 hour
RETURN   _updateLocation(y.TagId, y.AreaId, y.Timestamp)";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// Q1 and Q2 as printed match what the definition says they match, on
    /// realistic generator workloads.
    #[test]
    fn verbatim_queries_match_the_oracle_on_generator_streams(
        seed in any::<u64>(),
        events in 80usize..280,
        partitions in 2usize..10,
        q2 in any::<bool>(),
    ) {
        let (registry, stream) = generator_stream(&SyntheticConfig::retail(seed, events, partitions));
        let query = if q2 { Q2_VERBATIM } else { Q1_VERBATIM };
        assert_engine_matches_oracle(&registry, &stream, query);
    }

    /// The same on fully arbitrary event soups.
    #[test]
    fn verbatim_queries_match_the_oracle_on_arbitrary_streams(
        raw in arb_stream(60),
        q2 in any::<bool>(),
    ) {
        let registry = retail_registry();
        let stream = materialize(&registry, &raw);
        let query = if q2 { Q2_VERBATIM } else { Q1_VERBATIM };
        assert_engine_matches_oracle(&registry, &stream, query);
    }
}

fn ev(
    reg: &SchemaRegistry,
    ty: &str,
    ts: u64,
    tag: i64,
    product: &str,
    area: i64,
) -> sase::core::Event {
    reg.build_event(
        ty,
        ts,
        vec![Value::Int(tag), Value::str(product), Value::Int(area)],
    )
    .unwrap()
}

#[test]
fn q1_parses_verbatim_and_detects_shoplifting() {
    let q = parse_query(Q1_VERBATIM).unwrap();
    assert_eq!(q.pattern.elements.len(), 3);
    assert!(q.pattern.elements[1].negated);

    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    engine
        .functions()
        .register_fn("_retrieveLocation", Some(1), |args| {
            Ok(Value::str(format!("door near area {}", args[0])))
        });
    engine.register("q1", Q1_VERBATIM).unwrap();

    // 12 hours at the default 1 unit/sec scale = 43200 units.
    let stream = vec![
        ev(&registry, "SHELF_READING", 100, 42, "soap", 1),
        ev(&registry, "SHELF_READING", 200, 7, "milk", 2),
        ev(&registry, "COUNTER_READING", 5_000, 7, "milk", 3),
        ev(&registry, "EXIT_READING", 6_000, 7, "milk", 4),
        ev(&registry, "EXIT_READING", 7_000, 42, "soap", 4),
        // Outside the 12-hour window relative to its shelf reading:
        ev(&registry, "SHELF_READING", 10_000, 9, "bread", 1),
        ev(&registry, "EXIT_READING", 60_000, 9, "bread", 4),
    ];
    let out = engine.process_batch(&stream).unwrap();
    assert_eq!(out.len(), 1, "only the soap shoplifting fires");
    let d = &out[0];
    assert_eq!(d.value("x.TagId"), Some(&Value::Int(42)));
    assert_eq!(d.value("x.ProductName"), Some(&Value::str("soap")));
    assert_eq!(d.value("z.AreaId"), Some(&Value::Int(4)));
    assert_eq!(
        d.value("_retrieveLocation(z.AreaId)"),
        Some(&Value::str("door near area 4"))
    );
}

#[test]
fn q2_parses_verbatim_and_triggers_updates() {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    let q = parse_query(Q2_VERBATIM).unwrap();
    assert_eq!(q.within.unwrap().amount, 1);

    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    let last_area = Arc::new(AtomicI64::new(-1));
    let la = last_area.clone();
    engine
        .functions()
        .register_fn("_updateLocation", Some(3), move |args| {
            la.store(args[1].as_int().unwrap(), Ordering::SeqCst);
            Ok(Value::Bool(true))
        });
    engine.register("q2", Q2_VERBATIM).unwrap();

    let stream = vec![
        ev(&registry, "SHELF_READING", 10, 5, "soap", 1),
        ev(&registry, "SHELF_READING", 20, 5, "soap", 1), // same area: no fire
        ev(&registry, "SHELF_READING", 30, 5, "soap", 2), // moved
    ];
    let out = engine.process_batch(&stream).unwrap();
    // Both the ts=10 and ts=20 readings pair with the ts=30 one.
    assert_eq!(out.len(), 2);
    assert_eq!(last_area.load(Ordering::SeqCst), 2);
}

#[test]
fn q1_window_boundary_is_inclusive() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    engine
        .register(
            "q",
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId WITHIN 12 hours RETURN x.TagId",
        )
        .unwrap();
    let stream = vec![
        ev(&registry, "SHELF_READING", 0, 1, "soap", 1),
        ev(&registry, "EXIT_READING", 43_200, 1, "soap", 4), // exactly 12h
        ev(&registry, "SHELF_READING", 43_201, 2, "soap", 1),
        ev(&registry, "EXIT_READING", 86_402, 2, "soap", 4), // 12h + 1
    ];
    let out = engine.process_batch(&stream).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].value("x.TagId"), Some(&Value::Int(1)));
}

#[test]
fn negation_counterexample_must_be_strictly_between() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    engine
        .register(
            "q",
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 1000 RETURN x.TagId",
        )
        .unwrap();
    // Counter reading before the shelf reading does not save the thief.
    let stream = vec![
        ev(&registry, "COUNTER_READING", 5, 1, "soap", 3),
        ev(&registry, "SHELF_READING", 10, 1, "soap", 1),
        ev(&registry, "EXIT_READING", 20, 1, "soap", 4),
    ];
    let out = engine.process_batch(&stream).unwrap();
    assert_eq!(out.len(), 1, "prior counter reading is out of scope");

    // A counter reading for a different tag does not save the thief either.
    let mut engine2 = Engine::new(registry.clone());
    engine2
        .register(
            "q",
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 1000 RETURN x.TagId",
        )
        .unwrap();
    let stream = vec![
        ev(&registry, "SHELF_READING", 10, 1, "soap", 1),
        ev(&registry, "COUNTER_READING", 15, 2, "milk", 3),
        ev(&registry, "EXIT_READING", 20, 1, "soap", 4),
    ];
    let out = engine2.process_batch(&stream).unwrap();
    assert_eq!(out.len(), 1);
}

#[test]
fn engine_continues_until_query_deleted() {
    // §3: "Such processing continues until the query is deleted by the
    // user."
    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    engine
        .register("exits", "EVENT EXIT_READING z RETURN z.TagId")
        .unwrap();
    assert_eq!(
        engine
            .process_batch(&[ev(&registry, "EXIT_READING", 1, 1, "soap", 4)])
            .unwrap()
            .len(),
        1
    );
    engine.unregister("exits");
    assert_eq!(
        engine
            .process_batch(&[ev(&registry, "EXIT_READING", 2, 1, "soap", 4)])
            .unwrap()
            .len(),
        0
    );
}
