//! Robustness: malformed input must produce errors, never panics, and the
//! engine must stay usable after failures (failure injection).

use proptest::prelude::*;

use sase_core::engine::Engine;
use sase_core::error::SaseError;
use sase_core::event::retail_registry;
use sase_core::lang::{parse_query, tokenize};
use sase_core::value::Value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer never panics on arbitrary input.
    #[test]
    fn lexer_total_on_arbitrary_strings(s in ".*") {
        let _ = tokenize(&s);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total_on_arbitrary_strings(s in ".*") {
        let _ = parse_query(&s);
    }

    /// The parser never panics on *almost*-valid input: a valid query with
    /// a random mutation applied.
    #[test]
    fn parser_total_on_mutated_queries(pos in 0usize..200, c in any::<char>()) {
        let base = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                    WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours \
                    RETURN x.TagId, _f(z.AreaId)";
        let mut chars: Vec<char> = base.chars().collect();
        let idx = pos % chars.len();
        chars[idx] = c;
        let mutated: String = chars.into_iter().collect();
        let _ = parse_query(&mutated);
    }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

fn ev(engine: &Engine, ty: &str, ts: u64, tag: i64) -> sase_core::event::Event {
    engine
        .schemas()
        .build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
        )
        .unwrap()
}

/// A built-in that fails intermittently: the failure drops that match and
/// counts as the query's evaluation error, and the engine goes on.
#[test]
fn failing_builtin_does_not_poison_engine() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    let fail = Arc::new(AtomicBool::new(false));
    let f = fail.clone();
    engine
        .functions()
        .register_fn("_flaky", Some(1), move |args| {
            if f.load(Ordering::SeqCst) {
                Err(SaseError::Function {
                    name: "_flaky".into(),
                    message: "injected outage".into(),
                })
            } else {
                Ok(args[0].clone())
            }
        });
    engine
        .register("q", "EVENT EXIT_READING z RETURN _flaky(z.TagId) AS t")
        .unwrap();

    assert_eq!(
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 1, 5)])
            .unwrap()
            .len(),
        1
    );

    // The outage drops the match and counts; the batch succeeds.
    fail.store(true, std::sync::atomic::Ordering::SeqCst);
    let out = engine
        .process_batch(&[ev(&engine, "EXIT_READING", 2, 6)])
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(engine.stats("q").unwrap().eval_errors, 1);

    fail.store(false, std::sync::atomic::Ordering::SeqCst);
    let out = engine
        .process_batch(&[ev(&engine, "EXIT_READING", 3, 7)])
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].value("t"), Some(&Value::Int(7)));
}

/// Out-of-order events are rejected per query, and in-order processing can
/// resume afterwards.
#[test]
fn out_of_order_rejection_is_recoverable() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    engine
        .register("q", "EVENT EXIT_READING z RETURN z.TagId")
        .unwrap();
    engine
        .process_batch(&[ev(&engine, "EXIT_READING", 100, 1)])
        .unwrap();
    assert!(engine
        .process_batch(&[ev(&engine, "EXIT_READING", 50, 2)])
        .is_err());
    // Time moved on: accepted again.
    let out = engine
        .process_batch(&[ev(&engine, "EXIT_READING", 101, 3)])
        .unwrap();
    assert_eq!(out.len(), 1);
}

/// Compilation failures leave nothing half-registered.
#[test]
fn failed_registration_leaves_no_residue() {
    let registry = retail_registry();
    let mut engine = Engine::new(registry);
    assert!(engine
        .register("bad", "EVENT SEQ(!(SHELF_READING x), EXIT_READING z)")
        .is_err());
    assert!(engine.query_names().is_empty());
    // The name is free for a correct retry.
    engine
        .register("bad", "EVENT EXIT_READING z RETURN z.TagId")
        .unwrap();
    assert_eq!(engine.query_names(), vec!["bad"]);
}

/// A query over a huge stream with a tiny window holds memory flat.
#[test]
fn long_stream_memory_is_bounded_by_window() {
    use sase_core::functions::FunctionRegistry;
    use sase_core::plan::Planner;
    use sase_core::runtime::QueryRuntime;

    let registry = retail_registry();
    let planner = Planner::new(registry.clone(), FunctionRegistry::with_stdlib());
    let q = parse_query(
        "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
         WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 50",
    )
    .unwrap();
    let plan = planner.plan(&q).unwrap();
    let mut rt = QueryRuntime::new("mem", plan);
    let mut out = Vec::new();
    for k in 0..200_000u64 {
        let ty = match k % 3 {
            0 => "SHELF_READING",
            1 => "COUNTER_READING",
            _ => "EXIT_READING",
        };
        let e = registry
            .build_event(
                ty,
                k,
                vec![Value::Int((k % 7) as i64), Value::str("p"), Value::Int(1)],
            )
            .unwrap();
        rt.process(&e, &mut out).unwrap();
        out.clear();
    }
    let (instances, neg_candidates) = rt.retained_state();
    // Window 50 over 7 partitions: retained state stays in the hundreds,
    // not the hundreds of thousands.
    assert!(instances < 1_000, "instances: {instances}");
    assert!(
        neg_candidates < 1_000,
        "negation candidates: {neg_candidates}"
    );
    assert!(rt.stats().instances_pruned > 100_000);
}

/// Negation candidates under many distinct partition keys — each bucket
/// touched once and never again — are still released by the periodic
/// sweep, so buffered candidates stay bounded by the window.
#[test]
fn idle_negation_buckets_are_swept() {
    use sase_core::functions::FunctionRegistry;
    use sase_core::plan::Planner;
    use sase_core::runtime::QueryRuntime;

    let registry = retail_registry();
    let planner = Planner::new(registry.clone(), FunctionRegistry::with_stdlib());
    let q = parse_query(
        "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
         WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 50",
    )
    .unwrap();
    let plan = planner.plan(&q).unwrap();
    let mut rt = QueryRuntime::new("keys", plan);
    let mut out = Vec::new();
    // 10k distinct keys, then enough further events to cross a sweep
    // (every 4096 events processed).
    for k in 0..12_288u64 {
        let e = registry
            .build_event(
                "COUNTER_READING",
                k,
                vec![Value::Int(k as i64), Value::str("p"), Value::Int(1)],
            )
            .unwrap();
        rt.process(&e, &mut out).unwrap();
    }
    assert!(out.is_empty());
    let (_, neg_candidates) = rt.retained_state();
    assert!(
        neg_candidates <= 51,
        "negation candidates after a sweep: {neg_candidates}"
    );
    assert_eq!(rt.stats().negation_candidates_buffered, 12_288);
}
