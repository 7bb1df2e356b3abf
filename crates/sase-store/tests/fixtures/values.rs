//! The values behind the committed golden bytes in this directory.
//!
//! `ingest_frame.bin`, `wal_segment.log` and `checkpoint.ckpt` were written
//! by commit b069870 — the last one with the bytewise CRC and the copying
//! codec — from exactly what these functions build. The format tests
//! (`codec_total` here and in `sase-server`) decode those bytes and
//! re-encode these values, and require both to agree with the files.
//! `checkpoint.ckpt` is checkpoint version 1, which wrote each runtime's
//! layout; it now only has to convert on read to what [`snapshot`]
//! returns. `checkpoint_v2.ckpt` pins version 2, which writes events and 9
//! counters: it must read as [`snapshot`], whose `eval_errors` are 0.
//! `checkpoint_v3.ckpt` pins version 3, which adds `eval_errors`: it must
//! decode to [`snapshot`] with 3 evaluation errors on its first query, and
//! re-encode identically.

use sase_core::engine::Engine;
use sase_core::event::{retail_registry, Event, SchemaRegistry};
use sase_core::snapshot::EngineSnapshot;
use sase_core::value::{Value, ValueType};

/// The retail types plus one with a mixed-case, non-ASCII name and a
/// float, a bool and a string attribute.
pub fn registry() -> SchemaRegistry {
    let reg = retail_registry();
    reg.register(
        "Tëmp_Probe",
        &[
            ("Grad°C", ValueType::Float),
            ("Ok", ValueType::Bool),
            ("Note", ValueType::Str),
        ],
    )
    .unwrap();
    reg
}

/// A batch that alternates between types and carries every value kind:
/// −0.0, NaN, an int widened to a float, empty and non-ASCII strings.
pub fn events(reg: &SchemaRegistry) -> Vec<Event> {
    let reading = |ty: &str, ts: u64, tag: i64, product: &str, area: i64| {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str(product), Value::Int(area)],
        )
        .unwrap()
    };
    let probe = |ts: u64, grad: Value, ok: bool, note: &str| {
        reg.build_event(
            "tëmp_probe",
            ts,
            vec![grad, Value::Bool(ok), Value::str(note)],
        )
        .unwrap()
    };
    vec![
        reading("SHELF_READING", 1, 7, "soap", 1),
        probe(2, Value::Float(-0.0), true, ""),
        reading("EXIT_READING", 3, 7, "soap", 4),
        probe(4, Value::Float(f64::NAN), false, "naïve ☃"),
        reading("COUNTER_READING", 5, -9, "", 2),
        probe(6, Value::Int(3), true, "x"),
    ]
}

/// Engine state with a live stack, a negation buffer and a derived
/// stream.
pub fn snapshot() -> EngineSnapshot {
    let reg = retail_registry();
    let mut engine = Engine::new(reg.clone());
    engine
        .register(
            "q1",
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100 \
             RETURN x.TagId AS tag INTO alerts",
        )
        .unwrap();
    for (ty, ts, tag) in [
        ("SHELF_READING", 1u64, 3i64),
        ("COUNTER_READING", 2, 4),
        ("SHELF_READING", 3, 4),
        ("EXIT_READING", 5, 3),
    ] {
        let e = reg
            .build_event(
                ty,
                ts,
                vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
            )
            .unwrap();
        engine.process_batch(&[e]).unwrap();
    }
    engine.snapshot()
}
