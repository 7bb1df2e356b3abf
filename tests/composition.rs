//! Query composition through derived output streams: `RETURN ... INTO s`
//! re-ingests composite events as first-class events on stream `s`
//! (§2.1.1: the RETURN clause "can also name the output stream and the
//! type of events in the output").

use sase::core::engine::Engine;
use sase::core::event::retail_registry;
use sase::core::processor::EventProcessor;
use sase::core::value::{Value, ValueType};
use sase::core::SchemaRegistry;

fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> sase::core::Event {
    reg.build_event(
        ty,
        ts,
        vec![Value::Int(tag), Value::str("soap"), Value::Int(area)],
    )
    .unwrap()
}

#[test]
fn two_stage_pipeline_with_lazy_schema() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    // Stage 1: location changes, published as `moves` events.
    engine
        .register(
            "stage1",
            "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
             WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 1000 \
             RETURN y.TagId AS tag, y.AreaId AS area, y.Timestamp AS at INTO moves",
        )
        .unwrap();
    // Stage 2: two moves of the same tag within a window — a fast mover.
    engine
        .register(
            "stage2",
            "FROM moves EVENT SEQ(moves a, moves b) \
             WHERE a.tag = b.tag AND a.area != b.area WITHIN 1000 \
             RETURN b.tag AS t",
        )
        .unwrap_err(); // `moves` type does not exist until stage 1 emits

    // First emission registers the derived type...
    let stream = vec![
        ev(&registry, "SHELF_READING", 10, 7, 1),
        ev(&registry, "SHELF_READING", 20, 7, 2),
    ];
    let out = engine.process_batch(&stream).unwrap();
    assert_eq!(out.len(), 1);
    assert!(
        registry.type_id("moves").is_some(),
        "derived type registered"
    );

    // ...after which stage 2 compiles and composes.
    engine
        .register(
            "stage2",
            "FROM moves EVENT SEQ(moves a, moves b) \
             WHERE a.tag = b.tag AND a.area != b.area WITHIN 1000 \
             RETURN b.tag AS t",
        )
        .unwrap();
    // Two further moves AFTER stage 2 exists (it never saw the move@20
    // derived event — continuous queries only see events from registration
    // onwards, §3): 2 -> 1 at ts 30, then 1 -> 2 at ts 40.
    let stream2 = vec![
        ev(&registry, "SHELF_READING", 30, 7, 1),
        ev(&registry, "SHELF_READING", 40, 7, 2),
    ];
    let out = engine.process_batch(&stream2).unwrap();
    let stage2_hits: Vec<_> = out
        .iter()
        .filter(|d| d.query.as_ref() == "stage2")
        .collect();
    assert!(
        !stage2_hits.is_empty(),
        "stage 2 pairs the derived move events"
    );
    for hit in &stage2_hits {
        assert_eq!(hit.value("t"), Some(&Value::Int(7)));
    }
}

#[test]
fn pre_registered_output_schema() {
    let registry = retail_registry();
    registry
        .register(
            "alerts",
            &[("tag", ValueType::Int), ("area", ValueType::Int)],
        )
        .unwrap();
    let mut engine = Engine::new(registry.clone());
    engine
        .register(
            "producer",
            "EVENT EXIT_READING z RETURN z.TagId AS tag, z.AreaId AS area INTO alerts",
        )
        .unwrap();
    // The consumer can be registered immediately: the type pre-exists.
    engine
        .register(
            "consumer",
            "FROM alerts EVENT alerts a WHERE a.area = 4 RETURN a.tag",
        )
        .unwrap();
    let out = engine
        .process_batch(&[ev(&registry, "EXIT_READING", 5, 9, 4)])
        .unwrap();
    let consumer_hits: Vec<_> = out
        .iter()
        .filter(|d| d.query.as_ref() == "consumer")
        .collect();
    assert_eq!(consumer_hits.len(), 1);
    assert_eq!(consumer_hits[0].value("a.tag"), Some(&Value::Int(9)));
}

#[test]
fn into_requires_identifier_column_names() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    let err = engine
        .register("bad", "EVENT EXIT_READING z RETURN z.TagId INTO out_stream")
        .unwrap_err();
    assert!(err.to_string().contains("AS"), "suggests adding AS: {err}");
}

#[test]
fn cyclic_into_graph_is_cut_off() {
    let registry = retail_registry();
    registry
        .register("loop_stream", &[("tag", ValueType::Int)])
        .unwrap();
    let mut engine = Engine::new(registry.clone());
    // A self-feeding query: every loop_stream event emits another.
    engine
        .register(
            "feedback",
            "FROM loop_stream EVENT loop_stream a RETURN a.tag AS tag INTO loop_stream",
        )
        .unwrap();
    let seed = registry
        .build_event("loop_stream", 1, vec![Value::Int(1)])
        .unwrap();
    let mut out = Vec::new();
    (engine.ingest(Some("loop_stream"), &[seed], &mut out, None)).unwrap();
    // One emission per derivation depth, 0 through 16; the event the last
    // one derives is past the limit, dropped as the producer's error.
    assert_eq!(out.len(), 17);
    assert_eq!(engine.stats("feedback").unwrap().eval_errors, 1);
}

#[test]
fn derived_events_do_not_leak_to_other_streams() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry.clone());
    engine
        .register(
            "producer",
            "EVENT EXIT_READING z RETURN z.TagId AS tag INTO side",
        )
        .unwrap();
    // A default-stream query matching everything must not see `side`
    // events (they are on their own stream).
    engine
        .register("all_exits", "EVENT EXIT_READING e RETURN e.TagId")
        .unwrap();
    let out = engine
        .process_batch(&[ev(&registry, "EXIT_READING", 5, 9, 4)])
        .unwrap();
    assert_eq!(out.len(), 2); // producer + all_exits, nothing extra
}
