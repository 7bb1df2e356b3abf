//! Snapshot/restore round trips: an engine restored from a mid-stream
//! snapshot must finish the stream *exactly* like the uninterrupted
//! original — same emissions, same counters, same follow-up snapshot.
//!
//! This is the in-memory half of the durability story; `sase-store` adds
//! the on-disk encoding and `sase-system` the log replay around it.

use sase_core::engine::Engine;
use sase_core::event::{retail_registry, Event, SchemaRegistry};
use sase_core::snapshot::{EngineSnapshot, Place};
use sase_core::value::{Value, ValueType};

/// A query set covering every kind of runtime state: PAIS stacks, indexed
/// and flat negation buffers, unpartitioned stacks, and derived INTO
/// streams with a consumer.
const QUERIES: [(&str, &str); 5] = [
    (
        "shoplifting",
        "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
         WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 60 \
         RETURN x.TagId AS tag, z.AreaId AS area",
    ),
    (
        "moves_producer",
        "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
         WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 80 \
         RETURN y.TagId AS tag, y.AreaId AS area INTO Moves",
    ),
    (
        "moves_consumer",
        "FROM moves EVENT SEQ(MOVES a, MOVES b) WHERE a.tag = b.tag WITHIN 200 \
         RETURN b.tag AS t",
    ),
    (
        // No equality: one unpartitioned group of stacks.
        "unpartitioned_pairs",
        "EVENT SEQ(SHELF_READING p, EXIT_READING q) WHERE p.AreaId < q.AreaId \
         WITHIN 40 RETURN p.TagId AS tag",
    ),
    (
        // The partition does not cover `c`: a flat negation buffer.
        "flat_negation",
        "EVENT SEQ(SHELF_READING a, !(COUNTER_READING c), EXIT_READING b) \
         WHERE a.TagId = b.TagId AND a.AreaId = c.AreaId WITHIN 90 RETURN a.TagId AS t",
    ),
];

/// Same names, other shapes, each without a place the snapshot holds
/// events in: `unpartitioned_pairs` loses its second stack and
/// `flat_negation` its negation buffer.
const RESHAPED: [(&str, &str, Place); 2] = [
    (
        "unpartitioned_pairs",
        "EVENT SHELF_READING p RETURN p.TagId AS tag",
        Place::Stack(1),
    ),
    (
        "flat_negation",
        "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
         WHERE a.TagId = b.TagId WITHIN 90 RETURN a.TagId AS t",
        Place::Negation(0),
    ),
];

fn registry() -> SchemaRegistry {
    // `moves` is pre-registered so the consumer can plan before the first
    // derived emission; the producer then uses the user type.
    let reg = retail_registry();
    reg.register(
        "moves",
        &[("tag", ValueType::Int), ("area", ValueType::Int)],
    )
    .unwrap();
    reg
}

fn build_engine(reg: &SchemaRegistry) -> Engine {
    let mut engine = Engine::new(reg.clone());
    for (name, src) in QUERIES {
        engine.register(name, src).unwrap();
    }
    engine
}

/// Deterministic pseudo-random workload with enough tag collisions to keep
/// stacks, negation buffers, and derived streams all populated.
fn workload(n: usize) -> Vec<(String, u64, i64, i64)> {
    let mut out = Vec::with_capacity(n);
    let mut state = 0x9E3779B97F4A7C15u64;
    for k in 0..n as u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let ty = match state % 4 {
            0 | 3 => "SHELF_READING",
            1 => "COUNTER_READING",
            _ => "EXIT_READING",
        };
        let tag = ((state >> 16) % 5) as i64;
        let area = 1 + ((state >> 24) % 4) as i64;
        out.push((ty.to_string(), k + 1, tag, area));
    }
    out
}

fn events_for(reg: &SchemaRegistry, raw: &[(String, u64, i64, i64)]) -> Vec<Event> {
    raw.iter()
        .map(|(ty, ts, tag, area)| {
            reg.build_event(
                ty,
                *ts,
                vec![Value::Int(*tag), Value::str("p"), Value::Int(*area)],
            )
            .unwrap()
        })
        .collect()
}

fn render(out: &[sase_core::ComplexEvent]) -> Vec<String> {
    out.iter().map(|d| d.to_string()).collect()
}

#[test]
fn restored_engine_finishes_stream_identically() {
    let raw = workload(400);
    let cut = 230;

    // Uninterrupted reference.
    let ref_reg = registry();
    let mut reference = build_engine(&ref_reg);
    let ref_events = events_for(&ref_reg, &raw);
    let mut ref_out = Vec::new();
    for chunk in ref_events.chunks(37) {
        ref_out.extend(reference.process_batch(chunk).unwrap());
    }

    // Original run up to the cut, then snapshot.
    let orig_reg = registry();
    let mut original = build_engine(&orig_reg);
    let orig_events = events_for(&orig_reg, &raw);
    let mut live_out = Vec::new();
    for chunk in orig_events[..cut].chunks(37) {
        live_out.extend(original.process_batch(chunk).unwrap());
    }
    let snap = original.snapshot();
    assert!(snap.retained_events() > 0, "workload must retain state");
    assert_eq!(snap.queries.len(), QUERIES.len());
    let explain = |name| original.explain(name).unwrap();
    assert!(explain("unpartitioned_pairs").contains("SSC: unpartitioned"));
    assert!(explain("flat_negation").contains("indexed=false"));
    assert!(explain("shoplifting").contains("indexed=true"));

    // Restore protocol on a fresh registry + engine.
    let new_reg = registry();
    snap.preregister_derived(&new_reg).unwrap();
    let mut restored = build_engine(&new_reg);
    restored.restore(&snap).unwrap();

    // The restored engine's state image is indistinguishable.
    assert_eq!(restored.snapshot(), snap);

    // Both finish the stream; emissions and final snapshots agree.
    let rest_events = events_for(&new_reg, &raw);
    let mut orig_tail = Vec::new();
    let mut rest_tail = Vec::new();
    for (a, b) in orig_events[cut..]
        .chunks(23)
        .zip(rest_events[cut..].chunks(23))
    {
        orig_tail.extend(original.process_batch(a).unwrap());
        rest_tail.extend(restored.process_batch(b).unwrap());
    }
    assert_eq!(render(&orig_tail), render(&rest_tail));
    assert_eq!(original.snapshot(), restored.snapshot());

    // And the stitched run equals the uninterrupted reference.
    live_out.extend(rest_tail);
    assert_eq!(render(&ref_out), render(&live_out));
    assert!(!ref_out.is_empty(), "workload should produce emissions");

    // Counters came along too.
    for (name, _) in QUERIES {
        assert_eq!(
            reference.stats(name).unwrap(),
            restored.stats(name).unwrap(),
            "stats of `{name}`"
        );
    }
}

#[test]
fn snapshot_preserves_derived_stream_lifecycle() {
    // Producer emits into a derived stream, then leaves: the stream
    // becomes reusable. A snapshot taken now must carry that, so a new
    // producer after restore may redefine the schema exactly as the
    // original engine would allow.
    let reg = retail_registry();
    let mut engine = Engine::new(reg.clone());
    engine
        .register(
            "p1",
            "EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts",
        )
        .unwrap();
    let e = reg
        .build_event(
            "EXIT_READING",
            1,
            vec![Value::Int(7), Value::str("soap"), Value::Int(4)],
        )
        .unwrap();
    engine.process_batch(&[e]).unwrap();
    assert!(engine.unregister("p1"));
    let snap = engine.snapshot();
    assert_eq!(snap.derived_streams.len(), 1);
    assert!(snap.derived_streams[0].reusable);

    let new_reg = retail_registry();
    snap.preregister_derived(&new_reg).unwrap();
    let mut restored = Engine::new(new_reg.clone());
    restored.restore(&snap).unwrap();
    restored
        .register(
            "p2",
            "EVENT EXIT_READING z \
             RETURN z.ProductName AS product, z.AreaId AS area INTO alerts",
        )
        .unwrap();
    let e2 = new_reg
        .build_event(
            "EXIT_READING",
            2,
            vec![Value::Int(8), Value::str("soap"), Value::Int(4)],
        )
        .unwrap();
    restored.process_batch(&[e2]).unwrap();
    let schema = new_reg.schema_by_name("alerts").unwrap();
    assert_eq!(schema.arity(), 2, "new producer redefined the schema");
}

#[test]
fn restore_rejects_mismatched_engines() {
    let reg = registry();
    let mut engine = build_engine(&reg);
    let events = events_for(&reg, &workload(50));
    engine.process_batch(&events).unwrap();
    let snap = engine.snapshot();

    // Missing queries.
    let mut empty = Engine::new(registry());
    assert!(empty.restore(&snap).is_err());

    // Same queries, different registration order.
    let other_reg = registry();
    let mut reordered = Engine::new(other_reg.clone());
    for (name, src) in QUERIES.iter().rev() {
        reordered.register(name, src).unwrap();
    }
    assert!(reordered.restore(&snap).is_err());

    // Same names in the same order, but one query has another shape that
    // lacks a place holding events: its state does not fit the plan.
    for (reshaped, src, place) in RESHAPED {
        let query = snap.queries.iter().find(|q| q.name == reshaped).unwrap();
        assert!(query.entries.iter().any(|e| e.place == place), "{reshaped}");
        let mut other = Engine::new(registry());
        for (name, original) in QUERIES {
            let text = if name == reshaped { src } else { original };
            other.register(name, text).unwrap();
        }
        let err = other.restore(&snap).unwrap_err().to_string();
        assert!(err.contains("snapshot mismatch"), "{reshaped}: {err}");
        assert!(err.contains(&format!("no {place:?}")), "{reshaped}: {err}");
    }
}

#[test]
fn restore_requires_derived_types_preregistered() {
    let reg = retail_registry();
    let mut engine = Engine::new(reg.clone());
    engine
        .register(
            "p",
            "EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts",
        )
        .unwrap();
    let e = reg
        .build_event(
            "EXIT_READING",
            1,
            vec![Value::Int(7), Value::str("soap"), Value::Int(4)],
        )
        .unwrap();
    engine.process_batch(&[e]).unwrap();
    let snap = engine.snapshot();

    // Fresh registry without preregister_derived: restore must fail with a
    // typed engine error, not panic.
    let new_reg = retail_registry();
    let mut restored = Engine::new(new_reg);
    restored
        .register(
            "p",
            "EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts",
        )
        .unwrap();
    let err = restored.restore(&snap).unwrap_err();
    assert!(err.to_string().contains("preregister_derived"), "{err}");
}

/// `SEQ(A x, B y)` over the retail types, partitioned by tag.
const PAIR: &str = "EVENT SEQ(SHELF_READING x, EXIT_READING y) WHERE [TagId] WITHIN 100 \
                    RETURN x.Timestamp AS a, y.Timestamp AS b";

/// An engine running [`PAIR`] that has seen `readings` of tag 9.
fn pair_engine(reg: &SchemaRegistry, readings: &[(&str, u64)]) -> Engine {
    let mut engine = Engine::new(reg.clone());
    engine.register("pair", PAIR).unwrap();
    let events: Vec<Event> = readings
        .iter()
        .map(|&(ty, ts)| {
            reg.build_event(ty, ts, vec![Value::Int(9), Value::str("p"), Value::Int(1)])
                .unwrap()
        })
        .collect();
    engine.process_batch(&events).unwrap();
    engine
}

/// Restoring `snap` into a fresh [`PAIR`] engine fails with a typed
/// mismatch naming `what`, and leaves the engine as it was.
fn assert_restore_rejects(snap: &EngineSnapshot, what: &str) {
    let reg = retail_registry();
    let mut engine = pair_engine(&reg, &[]);
    let before = engine.snapshot();
    let err = engine.restore(snap).unwrap_err().to_string();
    assert!(err.contains("snapshot mismatch"), "{err}");
    assert!(err.contains(what), "{err}");
    assert_eq!(
        engine.snapshot(),
        before,
        "a rejected restore built nothing"
    );
}

#[test]
fn restore_rejects_stack_timestamps_that_go_backwards() {
    let reg = retail_registry();
    let mut engine = pair_engine(&reg, &[("SHELF_READING", 10), ("SHELF_READING", 50)]);
    let mut snap = engine.snapshot();
    // Restored as [A@50, A@10], the newest-first walk for B@115 would stop
    // at A@10 < 15 and never reach A@50.
    snap.queries[0].entries.swap(0, 1);
    assert_restore_rejects(&snap, "timestamps go backwards (10 after 50)");

    // The uninterrupted engine pairs A@50 with B@115.
    let exit = reg
        .build_event(
            "EXIT_READING",
            115,
            vec![Value::Int(9), Value::str("p"), Value::Int(1)],
        )
        .unwrap();
    let out = engine.process_batch(&[exit]).unwrap();
    assert_eq!(out.len(), 1);
    assert!(out[0].to_string().contains("{a: 50, b: 115}"), "{}", out[0]);
}

#[test]
fn restore_rejects_an_instance_its_component_cannot_bind() {
    let reg = retail_registry();
    let mut snap = pair_engine(&reg, &[("SHELF_READING", 10)]).snapshot();
    snap.events[0].type_name = "COUNTER_READING".into();
    assert_restore_rejects(
        &snap,
        "a `COUNTER_READING` event in Stack(0), whose component does not bind it",
    );
}

#[test]
fn restore_rejects_an_event_without_its_key_attribute() {
    // `a` reads `Tag` by name, at another position in each type. Once `B`
    // is redefined without it, a `B` event binds `a` but has no partition.
    let reg = SchemaRegistry::new();
    reg.register("A", &[("Tag", ValueType::Int), ("X", ValueType::Int)])
        .unwrap();
    reg.register("B", &[("X", ValueType::Int), ("Tag", ValueType::Int)])
        .unwrap();
    let engine = || {
        let mut engine = Engine::new(reg.clone());
        engine
            .register(
                "q",
                "EVENT SEQ(ANY(A, B) a, A z) WHERE a.Tag = z.Tag WITHIN 10",
            )
            .unwrap();
        engine
    };
    let mut original = engine();
    let b = reg
        .build_event("B", 1, vec![Value::Int(0), Value::Int(7)])
        .unwrap();
    original.process_batch(&[b]).unwrap();
    let snap = original.snapshot();
    assert_eq!(snap.queries[0].entries.len(), 1);

    let mut engine = engine();
    reg.redefine("B", &[("X", ValueType::Int), ("Other", ValueType::Int)])
        .unwrap();
    let before = engine.snapshot();
    let err = engine.restore(&snap).unwrap_err().to_string();
    assert!(err.contains("snapshot mismatch"), "{err}");
    assert!(
        err.contains("a `B` event in Stack(0) lacks its key attribute"),
        "{err}"
    );
    assert_eq!(
        engine.snapshot(),
        before,
        "a rejected restore built nothing"
    );
}

/// The churn workload: every tag is read a few times in a row, then not
/// again for thousands of ticks, so its groups, buckets and slot expire
/// and the periodic sweeps free slots for later tags to reuse.
fn churn(n: usize, tags: u64) -> Vec<(String, u64, i64, i64)> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..n as u64)
        .map(|k| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let ty = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"][(state % 3) as usize];
            let tag = (k / 5 % tags) as i64;
            let area = 1 + ((state >> 24) % 3) as i64;
            (ty.to_string(), k + 1, tag, area)
        })
        .collect()
}

#[test]
fn restore_remaps_churning_slots() {
    let raw = churn(3 * 4_096 + 1_000, 2_500);
    let reg = registry();
    let events = events_for(&reg, &raw);
    let chunks: Vec<&[Event]> = events.chunks(50).collect();

    // The uninterrupted run, with a snapshot at several cuts.
    let cuts = [20, 90, 170, 250];
    let mut reference = build_engine(&reg);
    let mut outputs = Vec::new();
    let mut snaps = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        if cuts.contains(&i) {
            snaps.push(reference.snapshot());
        }
        outputs.push(render(&reference.process_batch(chunk).unwrap()));
    }
    let last = reference.snapshot();
    assert!(outputs.iter().any(|o| !o.is_empty()), "workload emits");

    for (cut, snap) in cuts.iter().zip(&snaps) {
        // A fresh engine that has interned other keys first, so the
        // snapshot's keys land in other slots than the original's.
        let new_reg = registry();
        snap.preregister_derived(&new_reg).unwrap();
        let mut restored = build_engine(&new_reg);
        let prelude: Vec<(String, u64, i64, i64)> = churn(300, 60)
            .into_iter()
            .map(|(ty, ts, tag, area)| (ty, ts, 1_000_000 + tag, area))
            .collect();
        restored
            .process_batch(&events_for(&new_reg, &prelude))
            .unwrap();
        restored.restore(snap).unwrap();
        assert_eq!(&restored.snapshot(), snap, "cut at chunk {cut}");

        let tail = events_for(&new_reg, &raw);
        for (i, chunk) in tail.chunks(50).enumerate().skip(*cut) {
            let out = render(&restored.process_batch(chunk).unwrap());
            assert_eq!(out, outputs[i], "cut at chunk {cut}, chunk {i}");
        }
        assert_eq!(restored.snapshot(), last, "cut at chunk {cut}");
    }
}
