//! Cross-module engine behaviour: time scales, multiple negations, and ANY
//! patterns in full queries.

use sase_core::engine::Engine;
use sase_core::event::retail_registry;
use sase_core::time::TimeScale;
use sase_core::value::Value;

fn ev(engine: &Engine, ty: &str, ts: u64, tag: i64, area: i64) -> sase_core::event::Event {
    engine
        .schemas()
        .build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(area)],
        )
        .unwrap()
}

#[test]
fn time_scale_rescales_wall_clock_windows() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    // 1000 logical units per second: 1 minute = 60_000 units.
    engine.set_time_scale(TimeScale::new(1000));
    engine
        .register(
            "q",
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId WITHIN 1 minute RETURN x.TagId",
        )
        .unwrap();
    let a = ev(&engine, "SHELF_READING", 0, 1, 1);
    let inside = ev(&engine, "EXIT_READING", 60_000, 1, 4);
    let b = ev(&engine, "SHELF_READING", 60_001, 2, 1);
    let outside = ev(&engine, "EXIT_READING", 120_002, 2, 4);
    let mut out = Vec::new();
    for e in [a, inside, b, outside] {
        out.extend(engine.process_batch(&[e]).unwrap());
    }
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].value("x.TagId"), Some(&Value::Int(1)));
}

#[test]
fn multiple_negations_all_enforced() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    // Neither a counter NOR another shelf reading may intervene.
    engine
        .register(
            "q",
            "EVENT SEQ(SHELF_READING a, !(COUNTER_READING b), !(SHELF_READING c), \
             EXIT_READING d) \
             WHERE a.TagId = b.TagId AND a.TagId = c.TagId AND a.TagId = d.TagId \
             WITHIN 1000 RETURN a.TagId",
        )
        .unwrap();

    // Clean run for tag 1.
    let mut out = Vec::new();
    out.extend(
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 1, 1, 1)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 5, 1, 4)])
            .unwrap(),
    );
    assert_eq!(out.len(), 1);

    // Tag 2: a second shelf reading between kills it — twice over, since
    // each shelf reading also *starts* a candidate whose own scope is
    // clean; only the later start survives.
    let mut out = Vec::new();
    out.extend(
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 10, 2, 1)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 12, 2, 2)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 15, 2, 4)])
            .unwrap(),
    );
    // The (10, 15) pair has the ts-12 shelf reading inside -> killed.
    // The (12, 15) pair is clean -> fires.
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].events[0].timestamp(), 12);

    // Tag 3: counter in between kills the otherwise-clean pair.
    let mut out = Vec::new();
    out.extend(
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 20, 3, 1)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "COUNTER_READING", 22, 3, 3)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 25, 3, 4)])
            .unwrap(),
    );
    assert!(out.is_empty());
}

#[test]
fn any_component_binds_either_type() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    engine
        .register(
            "q",
            "EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) a, EXIT_READING b) \
             WHERE a.TagId = b.TagId WITHIN 100 RETURN a.TagId",
        )
        .unwrap();
    let mut out = Vec::new();
    out.extend(
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 1, 1, 1)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "COUNTER_READING", 2, 1, 3)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 3, 1, 4)])
            .unwrap(),
    );
    // Both the shelf and the counter reading pair with the exit.
    assert_eq!(out.len(), 2);
}

#[test]
fn unbounded_query_without_where_matches_cross_product() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    engine
        .register("q", "EVENT SEQ(SHELF_READING x, EXIT_READING z)")
        .unwrap();
    let mut out = Vec::new();
    for k in 0..5u64 {
        out.extend(
            engine
                .process_batch(&[ev(&engine, "SHELF_READING", k * 2 + 1, k as i64, 1)])
                .unwrap(),
        );
    }
    out.extend(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 100, 9, 4)])
            .unwrap(),
    );
    // Every shelf reading pairs: 5 matches, no predicates, no window.
    assert_eq!(out.len(), 5);
}

#[test]
fn detected_at_equals_last_event_time() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    engine
        .register(
            "q",
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE [TagId] WITHIN 50",
        )
        .unwrap();
    let mut out = Vec::new();
    out.extend(
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 7, 1, 1)])
            .unwrap(),
    );
    out.extend(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 31, 1, 4)])
            .unwrap(),
    );
    assert_eq!(out[0].detected_at, 31);
    assert_eq!(*out[0].variables, ["x".into(), "z".into()]);
}

/// An `ANY` component reads its key by name from each event's own schema:
/// once `B` is redefined without `Tag`, a new `B` event has no key and
/// joins no partition, even though the engine read `Tag` off an earlier
/// `B` under the same type id.
#[test]
fn any_component_reads_a_redefined_schema_as_it_is_now() {
    use sase_core::event::SchemaRegistry;
    use sase_core::value::ValueType::Int;

    let reg = SchemaRegistry::new();
    reg.register("A", &[("Tag", Int), ("X", Int)]).unwrap();
    reg.register("B", &[("X", Int), ("Tag", Int)]).unwrap();
    let mut engine = Engine::new(reg.clone());
    engine
        .register(
            "q",
            "EVENT SEQ(ANY(A, B) a, A z) WHERE a.Tag = z.Tag WITHIN 10",
        )
        .unwrap();
    let b = |ts, attrs| reg.build_event("B", ts, attrs).unwrap();
    engine
        .process_batch(&[b(1, vec![Value::Int(0), Value::Int(7)])])
        .unwrap();
    reg.redefine("B", &[("X", Int), ("Other", Int)]).unwrap();
    engine
        .process_batch(&[b(2, vec![Value::Int(0), Value::Int(7)])])
        .unwrap();
    let a = reg.build_event("A", 3, vec![Value::Int(7), Value::Int(0)]);
    let out = engine.process_batch(&[a.unwrap()]).unwrap();
    let firsts: Vec<u64> = out.iter().map(|ce| ce.events[0].timestamp()).collect();
    assert_eq!(
        firsts,
        [1],
        "only the `B` read before the redefinition has a tag"
    );
}
