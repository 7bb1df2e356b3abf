//! Counting-allocator proof that steady-state predicate evaluation — and
//! the whole per-event SSC/negation path around it — performs **zero heap
//! allocations** for the paper's representative Q1/Q2 queries; that an
//! emitted match costs exactly two allocations (its shared events and its
//! shared RETURN values), a match killed by negation none, and a clone of
//! an emission none; that a tick-sized batch of the retail demo's three
//! queries stays inside its stated budget; that building an event of up to
//! three attributes from a resolved type costs exactly one allocation plus
//! whatever made its strings; that decoding a frame costs one
//! allocation per event, one per distinct string, and a constant; and that
//! a scan cycle through the cleaning pipeline costs one allocation per
//! event it generates, plus the `Vec` that returns them.
//!
//! The test binary installs a global allocator that counts allocations
//! while a flag is up. Everything allocating (events, engines, warmup that
//! sizes the reusable scratch buffers and stabilizes ring-buffer
//! capacities) happens with the flag down; the measured sections then
//! assert an allocation count of exactly zero.
//!
//! This file holds a single `#[test]` so no concurrent test can pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sase_core::engine::Engine;
use sase_core::error::SaseError;
use sase_core::event::{retail_registry, Event, SchemaRegistry};
use sase_core::expr::SlotProbe;
use sase_core::functions::FunctionRegistry;
use sase_core::lang::parse_query;
use sase_core::plan::Planner;
use sase_core::processor::EventProcessor;
use sase_core::runtime::QueryRuntime;
use sase_core::value::{Value, ValueType};
use sase_obs::{MetricsRegistry, TraceKind, Tracer};
use sase_store::codec::{get_events, put_events, ByteReader, ByteWriter};
use sase_stream::{
    register_reading_schemas, CleaningConfig, CleaningPipeline, RawReading, RawTag, StaticOns,
};

struct CountingAlloc;

// Counting is scoped to the measuring thread: the libtest harness's main
// thread allocates concurrently (channel wakers, timing bookkeeping), so
// a process-global flag would pick up noise that has nothing to do with
// the section under measurement. The thread-local is const-initialized —
// reading it from inside the allocator never itself allocates.
thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn counting() -> bool {
    ENABLED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting enabled on this thread; returns the
/// allocation count.
fn counted(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.with(|e| e.set(true));
    f();
    ENABLED.with(|e| e.set(false));
    ALLOCS.load(Ordering::SeqCst)
}

fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> Event {
    reg.build_event(
        ty,
        ts,
        vec![Value::Int(tag), Value::str("soap"), Value::Int(area)],
    )
    .unwrap()
}

const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                  WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 50 \
                  RETURN x.TagId, x.ProductName, z.AreaId";

const Q2: &str = "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                  WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 50 \
                  RETURN y.TagId, y.AreaId, y.Timestamp";

#[test]
fn steady_state_predicate_evaluation_is_allocation_free() {
    let reg = retail_registry();
    let planner = Planner::new(reg.clone(), FunctionRegistry::with_stdlib());

    // ---- 1. Raw program evaluation: Q1/Q2 predicate shapes. --------------
    let q2_plan = planner.plan(&parse_query(Q2).unwrap()).unwrap();
    // Q2's inequality survives partition absorption as the construction
    // filter; evaluate it over a bound match.
    assert_eq!(q2_plan.construction_filters.len(), 1);
    let ineq = &q2_plan.construction_filters[0].expr;
    let shelf1 = ev(&reg, "SHELF_READING", 1, 7, 1);
    let shelf2 = ev(&reg, "SHELF_READING", 2, 7, 2);
    let binding: Vec<Option<Event>> = vec![Some(shelf1.clone()), Some(shelf2.clone())];
    // Warm the dynamic-resolution memo (none expected here, but harmless).
    assert!(ineq.eval_bool(&binding[..]).unwrap());
    let allocs = counted(|| {
        for _ in 0..10_000 {
            assert!(ineq.eval_bool(&binding[..]).unwrap());
        }
    });
    assert_eq!(allocs, 0, "Q2 construction filter eval must not allocate");

    // A pushed single-variable filter probe (Q1-style stack admission).
    let probe_plan = planner
        .plan(
            &parse_query(
                "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                 WHERE x.AreaId > 0 AND x.TagId != 9999 AND x.TagId = z.TagId WITHIN 50",
            )
            .unwrap(),
        )
        .unwrap();
    let filters = &probe_plan.element_filters[0];
    assert!(!filters.is_empty());
    let probe = SlotProbe {
        slot: 0,
        event: &shelf1,
    };
    for f in filters {
        assert!(f.eval_bool(&probe).unwrap());
    }
    let allocs = counted(|| {
        for _ in 0..10_000 {
            for f in filters {
                assert!(f.eval_bool(&probe).unwrap());
            }
        }
    });
    assert_eq!(allocs, 0, "stack-admission filter eval must not allocate");

    // ---- 2. The full per-event runtime path, Q1 (negation buffering,
    //         window pruning, stack admission — no emissions). ------------
    let q1_plan = planner.plan(&parse_query(Q1).unwrap()).unwrap();
    let mut rt = QueryRuntime::new("q1", q1_plan);
    // Fixed tag set so the partition map reaches its steady key set;
    // shelf + counter only, so sequence construction never completes (an
    // emission rightly allocates its output).
    let mut events: Vec<Event> = Vec::new();
    let mut ts = 0u64;
    for round in 0..400u64 {
        ts += 1;
        let tag = (round % 8) as i64;
        events.push(ev(&reg, "SHELF_READING", ts, tag, 1));
        ts += 1;
        events.push(ev(&reg, "COUNTER_READING", ts, tag, 3));
    }
    let mut out = Vec::new();
    // Warmup: fills stacks and negation buffers to their windowed steady
    // state, sizes every scratch buffer and ring-buffer capacity.
    for e in &events[..400] {
        rt.process(e, &mut out).unwrap();
    }
    assert!(out.is_empty());
    let allocs = counted(|| {
        for e in &events[400..] {
            rt.process(e, &mut out).unwrap();
        }
    });
    assert!(out.is_empty());
    assert_eq!(
        allocs, 0,
        "steady-state Q1 event processing (admission + negation buffering + \
         pruning) must not allocate"
    );

    // ---- 3. Q2 with construction running (and rejecting) every event. ---
    let q2_plan = planner.plan(&parse_query(Q2).unwrap()).unwrap();
    let mut rt2 = QueryRuntime::new("q2", q2_plan);
    // Same tag, same area: every arrival triggers backward construction,
    // and the inequality filter rejects every candidate — maximum
    // predicate work, zero emissions.
    let events2: Vec<Event> = (0..800u64)
        .map(|k| ev(&reg, "SHELF_READING", k + 1, 5, 1))
        .collect();
    for e in &events2[..400] {
        rt2.process(e, &mut out).unwrap();
    }
    assert!(out.is_empty());
    let allocs = counted(|| {
        for e in &events2[400..] {
            rt2.process(e, &mut out).unwrap();
        }
    });
    assert!(out.is_empty());
    assert!(rt2.stats().construction_filter_rejects > 0);
    assert_eq!(
        allocs, 0,
        "steady-state Q2 sequence construction must not allocate"
    );

    // ---- 3c. A dense partition whose stacks keep spilling and draining:
    //          one tag read in bursts of three ticks, each burst expiring
    //          the one before, so after each arrival stack x holds 1, 2, 3,
    //          then 1 again, and stack y 0, 1, 2, then 0. A stack's tail is
    //          allocated by its first spill and kept, so the cycle costs
    //          nothing. Construction runs and rejects every candidate.
    //          Fewer than 4,096 events in all, so no idle sweep drops the
    //          group between bursts.
    let spill_plan = planner
        .plan(
            &parse_query(
                "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                 WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 2",
            )
            .unwrap(),
        )
        .unwrap();
    let mut rt5 = QueryRuntime::new("spill", spill_plan);
    let bursts: Vec<Event> = (0..800u64)
        .map(|k| ev(&reg, "SHELF_READING", k / 3 * 10 + k % 3 + 1, 5, 1))
        .collect();
    for e in &bursts[..400] {
        rt5.process(e, &mut out).unwrap();
    }
    let allocs = counted(|| {
        for e in &bursts[400..] {
            rt5.process(e, &mut out).unwrap();
        }
    });
    assert!(out.is_empty());
    let stats = rt5.stats();
    assert!(stats.construction_filter_rejects > 0);
    assert_eq!(rt5.retained_state().0, 3, "the last burst: x holds 2, y 1");
    assert_eq!(
        allocs, 0,
        "a dense partition cycling its stacks through their tails must not allocate"
    );

    // ---- 3d. Emissions: Q1 over eight tags, each read on the shelf and
    //          later at the exit, and no counter reading, so every exit
    //          completes matches that negation lets through. An emission is
    //          exactly two allocations, its shared events and its shared
    //          RETURN values; cloning one is none, and the clone reads the
    //          same bodies.
    let mut rt6 = QueryRuntime::new("emit", planner.plan(&parse_query(Q1).unwrap()).unwrap());
    let exits: Vec<Event> = (0..800u64)
        .map(|k| {
            let ty = if k % 16 < 8 {
                "SHELF_READING"
            } else {
                "EXIT_READING"
            };
            ev(&reg, ty, k + 1, (k % 8) as i64, 1)
        })
        .collect();
    let mut emitted = Vec::new();
    for e in &exits[..400] {
        rt6.process(e, &mut emitted).unwrap();
    }
    emitted.clear();
    emitted.reserve(4 * 400);
    let before = rt6.stats().matches_emitted;
    let allocs = counted(|| {
        for e in &exits[400..] {
            rt6.process(e, &mut emitted).unwrap();
        }
    });
    let n = rt6.stats().matches_emitted - before;
    assert!(n >= 400, "every exit emits: {n}");
    assert_eq!(emitted.len() as u64, n);
    assert_eq!(
        allocs,
        2 * n,
        "an emitted match is two allocations: its events and its values"
    );
    let mut copies = Vec::with_capacity(emitted.len());
    let allocs = counted(|| copies.extend(emitted.iter().cloned()));
    assert_eq!(allocs, 0, "cloning an emission must not allocate");
    assert!(copies.iter().zip(&emitted).all(|(copy, original)| {
        Arc::ptr_eq(&copy.events, &original.events) && Arc::ptr_eq(&copy.values, &original.values)
    }));

    // ---- 3b. The other key shapes: a two-part key whose parts also bucket
    //          the negation, and an `ANY(...)` component whose key
    //          attribute sits at a different position in each candidate
    //          type (resolved per event type). ----------------------------
    let two_part = planner
        .plan(
            &parse_query(
                "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                 WHERE x.TagId = y.TagId AND x.TagId = z.TagId \
                 AND x.AreaId = y.AreaId AND x.AreaId = z.AreaId WITHIN 50",
            )
            .unwrap(),
        )
        .unwrap();
    assert_eq!(two_part.partition.as_ref().map(|p| p.parts.len()), Some(2));
    assert!(two_part.negations[0].partition_attrs.is_some());
    let mut rt3 = QueryRuntime::new("two_part", two_part);
    // §2's shelf + counter stream: stacks and buckets fill, nothing
    // completes.
    for e in &events[..400] {
        rt3.process(e, &mut out).unwrap();
    }
    let allocs = counted(|| {
        for e in &events[400..] {
            rt3.process(e, &mut out).unwrap();
        }
    });
    assert!(out.is_empty());
    assert!(rt3.stats().negation_candidates_buffered > 0);
    assert_eq!(
        allocs, 0,
        "steady-state two-part-key processing with negation buckets must not allocate"
    );

    let mixed = SchemaRegistry::new();
    for (name, attrs) in [
        ("A", [("TagId", ValueType::Int), ("AreaId", ValueType::Int)]),
        ("B", [("AreaId", ValueType::Int), ("TagId", ValueType::Int)]),
        ("C", [("TagId", ValueType::Int), ("AreaId", ValueType::Int)]),
    ] {
        mixed.register(name, &attrs).unwrap();
    }
    let any_plan = Planner::new(mixed.clone(), FunctionRegistry::with_stdlib())
        .plan(
            &parse_query("EVENT SEQ(ANY(A, B) a, C c) WHERE a.TagId = c.TagId WITHIN 50").unwrap(),
        )
        .unwrap();
    let mut rt4 = QueryRuntime::new("any", any_plan);
    // A and B alternate over eight tags and no C arrives: every event
    // enters a stack, nothing completes.
    let any_events: Vec<Event> = (0..800u64)
        .map(|k| {
            let tag = Value::Int((k % 8) as i64);
            let built = if k % 2 == 0 {
                mixed.build_event("A", k + 1, vec![tag, Value::Int(1)])
            } else {
                mixed.build_event("B", k + 1, vec![Value::Int(1), tag])
            };
            built.unwrap()
        })
        .collect();
    for e in &any_events[..400] {
        rt4.process(e, &mut out).unwrap();
    }
    let allocs = counted(|| {
        for e in &any_events[400..] {
            rt4.process(e, &mut out).unwrap();
        }
    });
    assert!(out.is_empty());
    assert_eq!(rt4.stats().instances_appended, 800);
    assert_eq!(
        allocs, 0,
        "steady-state ANY(...) processing with a per-type key must not allocate"
    );

    // ---- 4. Metrics primitives: recording through registry handles is
    //         wait-free and allocation-free. -----------------------------
    let registry = MetricsRegistry::new();
    let counter = registry.counter("sase_test_total", &[]);
    let gauge = registry.gauge("sase_test_depth", &[]);
    let histogram = registry.histogram("sase_test_latency_ns", &[]);
    let tracer = Tracer::disabled();
    let allocs = counted(|| {
        for i in 0..10_000u64 {
            counter.inc();
            counter.add(3);
            gauge.set(i as f64);
            histogram.record(i * 17);
            // The disabled tracer's begin is the single branch the hot
            // path pays when tracing is off.
            assert!(tracer.begin(TraceKind::BatchIngest, i, 1).is_none());
        }
    });
    assert_eq!(
        allocs, 0,
        "counter/gauge/histogram recording and disabled-tracer begin \
         must not allocate"
    );

    // ---- 5. The engine batch path with metrics ENABLED: per-batch
    //         counters, the batch-latency histogram, and router hit/miss
    //         accounting add zero allocations at steady state. -----------
    let mut engine = Engine::new(reg.clone());
    engine.enable_metrics(&MetricsRegistry::new());
    engine.register("q2", Q2).unwrap();
    // Same-tag same-area stream: construction runs and rejects every
    // candidate, no emissions — the all-work-no-output steady state.
    let batches: Vec<Vec<Event>> = (0..100u64)
        .map(|b| {
            (0..8u64)
                .map(|k| ev(&reg, "SHELF_READING", b * 8 + k + 1, 5, 1))
                .collect()
        })
        .collect();
    for batch in &batches[..50] {
        assert!(engine.process_batch(batch).unwrap().is_empty());
    }
    let allocs = counted(|| {
        for batch in &batches[50..] {
            assert!(engine.process_batch(batch).unwrap().is_empty());
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state engine batch ingest with metrics enabled must not \
         allocate"
    );
    let snap = engine.metrics_registry().unwrap().snapshot();
    assert_eq!(snap.counter("sase_ingest_events_total", &[]), 800);
    assert_eq!(snap.counter("sase_ingest_batches_total", &[]), 100);

    // The fan-in shape: 128 two-step queries over 128 types, 32 tags,
    // batches of 512, on the default stream and on a named stream spelled
    // in mixed case at ingest. Only even types arrive, so every event is
    // routed to two queries — a stack push in one, a predecessor-less skip
    // in the other — and nothing is ever emitted.
    let fanin = SchemaRegistry::new();
    for t in 0..128 {
        fanin
            .register(
                &format!("T{t}"),
                &[
                    ("TagId", sase_core::value::ValueType::Int),
                    ("ProductName", sase_core::value::ValueType::Str),
                    ("AreaId", sase_core::value::ValueType::Int),
                ],
            )
            .unwrap();
    }
    let names: Vec<String> = (0..128).map(|t| format!("T{t}")).collect();
    let fanin_batches: Vec<Vec<Event>> = (0..64u64)
        .map(|b| {
            (0..512u64)
                .map(|k| {
                    let i = b * 512 + k;
                    let ty = &names[((i * 37) % 64 * 2) as usize];
                    let attrs = vec![Value::Int((i % 32) as i64), Value::str("p"), Value::Int(1)];
                    fanin.build_event(ty, i + 1, attrs).unwrap()
                })
                .collect()
        })
        .collect();
    for (from, stream) in [("", None), ("FROM fanin ", Some("FanIn"))] {
        let mut engine = Engine::new(fanin.clone());
        engine.enable_metrics(&MetricsRegistry::new());
        for i in 0..128 {
            let (a, b) = (i, (i + 1) % 128);
            let src = format!(
                "{from}EVENT SEQ(T{a} x, T{b} y) WHERE x.TagId = y.TagId WITHIN 64 \
                 RETURN x.TagId AS tag"
            );
            engine.register(&format!("q{i}"), &src).unwrap();
        }
        let mut out = Vec::new();
        for batch in &fanin_batches[..32] {
            engine.ingest(stream, batch, &mut out, None).unwrap();
        }
        let allocs = counted(|| {
            for batch in &fanin_batches[32..] {
                engine.ingest(stream, batch, &mut out, None).unwrap();
            }
        });
        assert!(out.is_empty());
        assert_eq!(
            allocs, 0,
            "steady-state 128-query fan-in ingest on stream {stream:?} must not allocate"
        );
        let appended: u64 = (0..128)
            .map(|i| engine.stats(&format!("q{i}")).unwrap().instances_appended)
            .sum();
        assert_eq!(appended, 64 * 512, "every event entered one stack");
    }

    // ---- 5b. One key, many queries: an event's key is interned once per
    //          offer, and every routed query reaches its group (or
    //          negation bucket) by that slot. Eight tags cycle through
    //          `types`, one reading each, all in one area, in batches of 8.
    let cycle = |types: &[&str]| -> Vec<Vec<Event>> {
        let events: Vec<Event> = (0..1_600u64)
            .map(|k| {
                let ty = types[k as usize % types.len()];
                let tag = Value::Int((k / types.len() as u64 % 8) as i64);
                let attrs = vec![tag, Value::str("p"), Value::Int(1)];
                fanin.build_event(ty, k + 1, attrs).unwrap()
            })
            .collect();
        events.chunks(8).map(<[Event]>::to_vec).collect()
    };
    let shared_engine = |queries: &[&str]| {
        let mut engine = Engine::new(fanin.clone());
        for (i, src) in queries.iter().enumerate() {
            engine.register(&format!("s{i}"), src).unwrap();
        }
        engine
    };
    let constructed = |engine: &Engine, n: usize| -> u64 {
        (0..n)
            .map(|i| {
                engine
                    .stats(&format!("s{i}"))
                    .unwrap()
                    .sequences_constructed
            })
            .sum()
    };
    // A T1 reading binds `y` of the first query and `x` of the second
    // under one slot. Construction runs and the area inequality rejects
    // every candidate, so nothing is emitted.
    let mut engine = shared_engine(&[
        "EVENT SEQ(T0 x, T1 y) WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 50",
        "EVENT SEQ(T1 x, T2 y) WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 50",
    ]);
    let batches = cycle(&["T0", "T1", "T2"]);
    for batch in &batches[..100] {
        assert!(engine.process_batch(batch).unwrap().is_empty());
    }
    let allocs = counted(|| {
        for batch in &batches[100..] {
            assert!(engine.process_batch(batch).unwrap().is_empty());
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state ingest of two queries sharing one key must not allocate"
    );
    for i in 0..2 {
        let stats = engine.stats(&format!("s{i}")).unwrap();
        assert!(stats.construction_filter_rejects > 0 && stats.sequences_constructed == 0);
    }
    // A negation query beside it: the T3 counterexample lands in the
    // bucket of the slot T0 and T1 share with the other query, and kills
    // every match at the probe by the match's slot. A constructed match
    // waits in the runtime's reused match buffer, so one that negation
    // kills costs nothing, and neither does the slot path.
    let mut engine = shared_engine(&[
        "EVENT SEQ(T0 x, !(T3 n), T1 y) WHERE x.TagId = n.TagId AND x.TagId = y.TagId \
         WITHIN 50",
        "EVENT SEQ(T1 x, T2 y) WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 50",
    ]);
    let batches = cycle(&["T0", "T3", "T1", "T2"]);
    for batch in &batches[..100] {
        assert!(engine.process_batch(batch).unwrap().is_empty());
    }
    let dropped = |engine: &Engine| engine.stats("s0").unwrap().dropped_by_negation;
    let (constructed_before, dropped_before) = (constructed(&engine, 2), dropped(&engine));
    let allocs = counted(|| {
        for batch in &batches[100..] {
            assert!(engine.process_batch(batch).unwrap().is_empty());
        }
    });
    let matches = constructed(&engine, 2) - constructed_before;
    assert!(matches > 0);
    assert_eq!(dropped(&engine) - dropped_before, matches);
    assert_eq!(
        allocs, 0,
        "a match killed by a negation probe by the shared slot must not allocate"
    );

    // ---- 5c. The stated budget of a tick: the retail demo's three queries
    //          (shoplifting, location change, and the archive rule over
    //          the registry's three reading types), their database
    //          built-ins swapped for stdlib functions of the same arity, in
    //          batches of seven readings, about one tick of the demo. Eight
    //          tags cycle shelf, moved shelf, counter, exit; tag 7 skips
    //          the counter, so the shoplifting query fires for it. A batch
    //          costs two allocations per emission plus the growth of the
    //          `Vec` it returns, and nothing else: no allocation per event,
    //          per query, per constructed match or per stored instance.
    let mut engine = Engine::new(reg.clone());
    for (name, src) in [
        (
            "shoplifting",
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
             WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours \
             RETURN x.TagId, x.ProductName, z.AreaId, _abs(z.AreaId)",
        ),
        (
            "location_change",
            "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
             WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 1 hour \
             RETURN _max(y.TagId, y.AreaId, y.Timestamp)",
        ),
        (
            "archive_location",
            "EVENT ANY(SHELF_READING, COUNTER_READING, EXIT_READING) x \
             RETURN _max(x.TagId, x.AreaId, x.Timestamp)",
        ),
    ] {
        engine.register(name, src).unwrap();
    }
    let readings: Vec<Event> = (0..2_800u64)
        .map(|k| {
            let tag = (k % 8) as i64;
            let (ty, area) = match (k / 8 % 4, tag) {
                (0, _) => ("SHELF_READING", 1),
                (1, _) | (2, 7) => ("SHELF_READING", 2),
                (2, _) => ("COUNTER_READING", 3),
                _ => ("EXIT_READING", 4),
            };
            ev(&reg, ty, 300 * (k + 1), tag, area)
        })
        .collect();
    let ticks: Vec<&[Event]> = readings.chunks(7).collect();
    for batch in &ticks[..200] {
        engine.process_batch(batch).unwrap();
    }
    // Allocations a `Vec` makes growing by pushes to `len` elements: its
    // capacity doubles from 4.
    let growth = |len: usize| {
        let (mut cap, mut steps) = (0, 0);
        while cap < len {
            cap = (cap * 2).max(4);
            steps += 1;
        }
        steps
    };
    let (mut allocs, mut budget, mut emissions) = (0, 0, 0);
    for batch in &ticks[200..] {
        let mut out = Vec::new();
        allocs += counted(|| out = engine.process_batch(batch).unwrap());
        budget += 2 * out.len() as u64 + growth(out.len());
        emissions += out.len();
    }
    assert_eq!(allocs, budget, "a tick of the demo queries over budget");
    let per_query = |name: &str| engine.stats(name).unwrap();
    assert!(per_query("shoplifting").matches_emitted > 0);
    assert!(per_query("shoplifting").dropped_by_negation > 0);
    assert!(per_query("location_change").matches_emitted > 0);
    assert_eq!(per_query("archive_location").matches_emitted, 2_800);
    assert!(emissions > 1_400, "{emissions} emissions");
    assert_eq!(
        per_query("archive_location").instances_appended,
        0,
        "a single-component query stores nothing"
    );

    // ---- 6. The garbage budget of an event: building one of up to three
    //         attributes from a resolved type is exactly one allocation,
    //         the event, plus whatever made the strings handed in; nothing
    //         for the type name, nothing for the registry. ---------------
    reg.register(
        "LABELLED",
        &[
            ("Id", sase_core::value::ValueType::Int),
            ("A", sase_core::value::ValueType::Str),
            ("B", sase_core::value::ValueType::Str),
        ],
    )
    .unwrap();
    let shelf = reg.resolve("shelf_reading").unwrap();
    let labelled = reg.resolve("Labelled").unwrap();
    let soap = Value::str("soap");
    let mut built = Vec::with_capacity(4_000);
    let allocs = counted(|| {
        for ts in 0..1_000u64 {
            let e = shelf.build_event_with(ts, |i| {
                Ok::<_, SaseError>(match i {
                    0 => Value::Int(7),
                    1 => soap.clone(),
                    _ => Value::Int(1),
                })
            });
            built.push(e.unwrap());
        }
    });
    assert_eq!(
        allocs, 1_000,
        "an event built from values in hand is one allocation"
    );
    let allocs = counted(|| {
        for ts in 0..1_000u64 {
            let e = labelled.build_event_with(ts, |i| {
                Ok::<_, SaseError>(match i {
                    0 => Value::Int(7),
                    1 => Value::str("left"),
                    _ => Value::str("right"),
                })
            });
            built.push(e.unwrap());
        }
    });
    assert_eq!(
        allocs,
        1_000 * (1 + 2),
        "an event plus the two strings made for it is three allocations"
    );
    // Past three attributes they spill into an allocation of their own.
    reg.register(
        "WIDE",
        &[
            ("A", sase_core::value::ValueType::Int),
            ("B", sase_core::value::ValueType::Int),
            ("C", sase_core::value::ValueType::Int),
            ("D", sase_core::value::ValueType::Int),
        ],
    )
    .unwrap();
    let wide = reg.resolve("wide").unwrap();
    let mut wide_built = Vec::with_capacity(1_000);
    let allocs = counted(|| {
        for ts in 0..1_000u64 {
            let e = wide.build_event_with(ts, |i| Ok::<_, SaseError>(Value::Int(i as i64)));
            wide_built.push(e.unwrap());
        }
    });
    assert_eq!(
        allocs,
        1_000 * 2,
        "a four-attribute event is two allocations"
    );
    assert_eq!(wide_built[9].to_string(), "WIDE@9(A=0, B=1, C=2, D=3)");
    // The `Vec` wrapper adds only the caller's `Vec`.
    let allocs = counted(|| {
        for ts in 0..1_000u64 {
            let attrs = vec![Value::Int(7), soap.clone(), Value::Int(1)];
            built.push(shelf.build_event(ts, attrs).unwrap());
        }
    });
    assert_eq!(allocs, 1_000 * 2, "the event and the caller's `Vec`");
    // Rebasing an event onto another tick is one allocation, too.
    let allocs = counted(|| {
        for ts in 0..1_000u64 {
            built.push(built[ts as usize].with_timestamp(ts + 5_000));
        }
    });
    assert_eq!(allocs, 1_000, "a rebased event is one allocation");
    assert_eq!(
        built[0].to_string(),
        ev(&reg, "SHELF_READING", 0, 7, 1).to_string()
    );
    assert_eq!(
        built[3_000].to_string(),
        ev(&reg, "SHELF_READING", 5_000, 7, 1).to_string()
    );

    // Decoding a frame of `n` events carrying `d` distinct strings is
    // exactly `n + d + C` allocations: one per event, one per distinct
    // string (every repeat shares it), and `C` for the frame itself.
    const C: u64 = 2; // the frame's `Vec<Event>` and its string table
    let frame = |distinct: u64| {
        let events: Vec<Event> = (0..512u64)
            .map(|k| {
                let text = format!("product-{}", k % distinct);
                let attrs = vec![Value::Int(k as i64), Value::str(text), Value::Int(1)];
                fanin
                    .build_event(&names[(k % 128) as usize], k + 1, attrs)
                    .unwrap()
            })
            .collect();
        let mut w = ByteWriter::new();
        put_events(&mut w, &events);
        (events, w.into_bytes())
    };
    let decode = |bytes: &[u8]| {
        let mut r = ByteReader::new(bytes);
        let events = get_events(&mut r, &fanin).unwrap();
        r.expect_end().unwrap();
        events
    };
    for d in [1u64, 32, 512] {
        let (events, bytes) = frame(d);
        // Warm-up: the thread's hasher keys are made on first use.
        drop(decode(&bytes));
        let mut back = Vec::new();
        let allocs = counted(|| back = decode(&bytes));
        assert_eq!(
            allocs,
            512 + d + C,
            "a 512-event frame with {d} distinct strings"
        );
        let rendered = |evs: &[Event]| evs.iter().map(|e| e.to_string()).collect::<Vec<_>>();
        assert_eq!(rendered(&back), rendered(&events));
    }
    // A frame without strings has no string table: `C - 1`.
    reg.register("COUNT", &[("N", sase_core::value::ValueType::Int)])
        .unwrap();
    let numbers: Vec<Event> = (0..64u64)
        .map(|k| {
            reg.build_event("COUNT", k, vec![Value::Int(k as i64)])
                .unwrap()
        })
        .collect();
    let mut w = ByteWriter::new();
    put_events(&mut w, &numbers);
    let bytes = w.into_bytes();
    let allocs = counted(|| {
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_events(&mut r, &reg).unwrap().len(), 64);
    });
    assert_eq!(allocs, 64 + C - 1, "a frame without strings");

    // The resolved path validates exactly as the by-name path does.
    let too_few = vec![Value::Int(1)];
    let wrong_type = vec![Value::str("x"), Value::str("y"), Value::Int(1)];
    for (attrs, says) in [
        (too_few, "`SHELF_READING` expects 3 attributes, got 1"),
        (wrong_type, "attribute `TagId` of `SHELF_READING` expects"),
    ] {
        let resolved = shelf.build_event(5, attrs.clone()).unwrap_err().to_string();
        let by_name = reg
            .build_event("SHELF_READING", 5, attrs)
            .unwrap_err()
            .to_string();
        assert_eq!(resolved, by_name);
        assert!(resolved.contains(says), "{resolved}");
    }

    // ---- 7. Cleaning: a scan cycle of the retail demo's shape, through all
    //         five layers, is one allocation per generated event plus the
    //         returned `Vec` when any reading survives smoothing. Sixteen
    //         items lap shelf -> counter -> exit every 40 ticks, a quarter
    //         of their reads missed (smoothing fills them in) and some
    //         doubled (dedup drops them), beside ghost codes, truncated
    //         captures and two items the ONS does not know. -------------
    let cfg = CleaningConfig::retail_demo();
    let readings_reg = SchemaRegistry::new();
    register_reading_schemas(&readings_reg).unwrap();
    let mut ons = StaticOns::new();
    for item in 0..14 {
        ons.insert(
            cfg.make_tag(item),
            &format!("product-{item}"),
            "grocery",
            100,
        );
    }
    let mut pipeline = CleaningPipeline::new(cfg.clone(), readings_reg, Arc::new(ons));
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut roll = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let cycles: Vec<Vec<RawReading>> = (0..1_200u64)
        .map(|tick| {
            let mut cycle = Vec::new();
            for item in 0..16u64 {
                let reader = match (tick + item * 5) % 40 {
                    0..=29 => 1 + (item % 2) as u32,
                    30..=32 => 3,
                    33 => 4,
                    _ => continue,
                };
                for _ in 0..[0, 1, 1, 1, 1, 1, 1, 2][roll(8) as usize] {
                    cycle.push(RawReading::full(cfg.make_tag(item), reader, tick));
                }
            }
            if roll(4) == 0 {
                cycle.push(RawReading::full(0xBAD0_0000_0000_0001, 1, tick));
            }
            if roll(4) == 0 {
                let tag = RawTag::Truncated {
                    partial: 7,
                    bits: 8,
                };
                cycle.push(RawReading {
                    tag,
                    reader: 4,
                    tick,
                });
            }
            cycle
        })
        .collect();
    for (tick, cycle) in cycles[..600].iter().enumerate() {
        pipeline.process_tick(tick as u64, cycle).unwrap();
    }
    let (mut allocs, mut budget) = (0, 0);
    let before = pipeline.stats();
    for (tick, cycle) in cycles.iter().enumerate().skip(600) {
        let smoothed =
            |p: &CleaningPipeline| p.stats().smoothing.genuine + p.stats().smoothing.interpolated;
        let survivors = smoothed(&pipeline);
        let mut out = Vec::new();
        allocs += counted(|| out = pipeline.process_tick(tick as u64, cycle).unwrap());
        budget += out.len() as u64 + u64::from(smoothed(&pipeline) > survivors);
    }
    assert_eq!(allocs, budget, "a scan cycle of cleaning over budget");
    let after = pipeline.stats();
    let ticks = (cycles.len() - 600) as u64;
    let readings = after.anomaly.seen - before.anomaly.seen;
    let events = after.events.generated - before.events.generated;
    assert!(
        readings > 8 * ticks,
        "{readings} readings over {ticks} ticks"
    );
    assert!(events > 4 * ticks, "{events} events over {ticks} ticks");
    for (delta, what) in [
        (
            after.anomaly.dropped_spurious - before.anomaly.dropped_spurious,
            "ghost codes",
        ),
        (
            after.anomaly.dropped_truncated - before.anomaly.dropped_truncated,
            "truncated captures",
        ),
        (
            after.smoothing.interpolated - before.smoothing.interpolated,
            "interpolations",
        ),
        (
            after.dedup.suppressed - before.dedup.suppressed,
            "duplicates",
        ),
        (
            after.events.unknown_tag - before.events.unknown_tag,
            "unknown tags",
        ),
    ] {
        assert!(delta > 0, "no {what} in the measured ticks");
    }
}
