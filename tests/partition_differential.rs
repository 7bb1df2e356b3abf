//! Differential property tests for the sharded router, in both modes
//! ([`ShardingMode::ByPartitionKey`] and [`ShardingMode::ByQuery`]):
//! random streams with skewed partition-key distributions — a hot key
//! taking ~80% of the stream, uniform keys, and singleton keys unique per
//! event — plus events whose type carries no partition-key attribute at
//! all, are driven through 1/2/4/8 shards and must emit **byte for byte**
//! (provenance tags included) what the indexed single engine emits,
//! across a mid-stream unregister of a query and a late registration.
//!
//! A deterministic companion test locks in the heterogeneous-key routing
//! rule: a key attribute typed `Int` in one schema and `Float` in another
//! must hash `Int(3)` and `Float(3.0)` to the same shard (integral floats
//! normalize to integer keys, matching `=` coercion), so cross-type
//! equivalence matches survive distribution.

use proptest::prelude::*;

use sase::core::engine::{Emission, Engine, RoutingMode};
use sase::core::event::{Event, SchemaRegistry};
use sase::core::value::{Value, ValueType};
use sase::core::EventProcessor;
use sase::system::{ShardedEngineBuilder, ShardingMode};

/// `AUDITS` carries no `UserId`: its events are the "missing partition
/// key attribute" population and never route to a data shard.
fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    reg.register(
        "ORDERS",
        &[("UserId", ValueType::Int), ("Amount", ValueType::Int)],
    )
    .unwrap();
    reg.register(
        "SHIPMENTS",
        &[("UserId", ValueType::Int), ("Amount", ValueType::Int)],
    )
    .unwrap();
    reg.register("AUDITS", &[("Note", ValueType::Str)]).unwrap();
    reg
}

/// Initial query set: two distributable queries sharing the `UserId`
/// claim on `ORDERS`, and one pinned query with no partition key.
const QUERIES: [(&str, &str); 3] = [
    (
        "flow",
        "EVENT SEQ(ORDERS x, SHIPMENTS y) WHERE x.UserId = y.UserId \
         WITHIN 40 RETURN x.UserId AS u, y.Amount AS amt",
    ),
    (
        "big",
        "EVENT SEQ(ORDERS x, ORDERS y) WHERE x.UserId = y.UserId \
         AND x.Amount != y.Amount WITHIN 30 RETURN x.UserId AS u",
    ),
    ("audit", "EVENT AUDITS a RETURN a.Note AS note"),
];

/// Registered mid-stream, after `big` is unregistered. Its partition key
/// (`UserId`) does not cover the negated `AUDITS` slot, so the router
/// must pin it: counterexample events would otherwise miss the shard
/// holding the partial run.
const NEG_QUERY: (&str, &str) = (
    "neg",
    "EVENT SEQ(ORDERS a, !(AUDITS n), SHIPMENTS b) WHERE a.UserId = b.UserId \
     WITHIN 40 RETURN a.UserId AS u",
);

#[derive(Debug, Clone, Copy)]
enum Skew {
    /// ~80% of events land on key 0.
    Hot,
    /// Keys spread over 8 values.
    Uniform,
    /// Every event gets its own key.
    Singleton,
}

#[derive(Debug, Clone)]
struct RawEvent {
    ty: usize, // 0 = ORDERS, 1 = SHIPMENTS, 2 = AUDITS
    ts_gap: u64,
    user: i64,
    amount: i64,
}

fn arb_case() -> impl Strategy<Value = (Skew, usize, Vec<RawEvent>)> {
    (
        (0usize..3).prop_map(|i| [Skew::Hot, Skew::Uniform, Skew::Singleton][i]),
        (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        prop::collection::vec(
            (0usize..3, 0u64..3, 0i64..40, 0i64..5).prop_map(|(ty, ts_gap, user, amount)| {
                RawEvent {
                    ty,
                    ts_gap,
                    user,
                    amount,
                }
            }),
            0..64,
        ),
    )
}

fn materialize(reg: &SchemaRegistry, skew: Skew, raw: &[RawEvent]) -> Vec<Event> {
    let mut ts = 1u64; // ts_gap of 0 is legal: equal timestamps pass the clock
    raw.iter()
        .enumerate()
        .map(|(i, r)| {
            ts += r.ts_gap;
            let user = match skew {
                Skew::Hot => {
                    if r.user % 10 < 8 {
                        0
                    } else {
                        r.user
                    }
                }
                Skew::Uniform => r.user % 8,
                Skew::Singleton => i as i64,
            };
            match r.ty {
                0 => reg.build_event("ORDERS", ts, vec![Value::Int(user), Value::Int(r.amount)]),
                1 => reg.build_event(
                    "SHIPMENTS",
                    ts,
                    vec![Value::Int(user), Value::Int(r.amount)],
                ),
                _ => reg.build_event("AUDITS", ts, vec![Value::str("n")]),
            }
            .unwrap()
        })
        .collect()
}

fn render(e: &Emission) -> String {
    format!("{}|{}|{:?}|{}", e.input_index, e.depth, e.path, e.output)
}

/// Drive one chunk, asserting the order_key contract.
fn drive(p: &mut dyn EventProcessor, chunk: &[Event]) -> Vec<String> {
    let tagged = p.process_batch_tagged(None, chunk).unwrap();
    assert!(
        tagged
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key()),
        "emissions must arrive sorted by order_key"
    );
    tagged.iter().map(render).collect()
}

/// Mid-stream mutation: drop a distributed query, add a pinned one.
fn mutate(p: &mut dyn EventProcessor) {
    assert!(p.unregister("big"));
    p.register(NEG_QUERY.0, NEG_QUERY.1).unwrap();
}

/// Run the scripted workload: first half, mutation, second half,
/// chunked so batch boundaries fall at arbitrary stream offsets.
fn run_mutating(p: &mut dyn EventProcessor, events: &[Event]) -> Vec<String> {
    let mut out = Vec::new();
    let (first, second) = events.split_at(events.len() / 2);
    for chunk in first.chunks(7) {
        out.extend(drive(p, chunk));
    }
    mutate(p);
    for chunk in second.chunks(7) {
        out.extend(drive(p, chunk));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both sharding modes share one router; each is byte-identical to
    /// the indexed single engine under every skew, shard count, and
    /// mid-stream mutation.
    #[test]
    fn by_partition_key_matches_indexed_engine(case in arb_case()) {
        let (skew, shards, raw) = case;
        let events = materialize(&registry(), skew, &raw);

        let mut reference = Engine::new(registry());
        for (name, src) in QUERIES {
            reference.register(name, src).unwrap();
        }
        let expected = run_mutating(&mut reference, &events);

        for mode in [ShardingMode::ByPartitionKey, ShardingMode::ByQuery] {
            let mut builder = ShardedEngineBuilder::new(registry());
            builder.set_sharding(mode);
            for (name, src) in QUERIES {
                builder.register(name, src).unwrap();
            }
            let mut sharded = builder.build(shards).unwrap();
            let keyed = mode == ShardingMode::ByPartitionKey;
            prop_assert_eq!(sharded.shard_count(), shards + usize::from(keyed));
            if keyed {
                prop_assert_eq!(sharded.shard_of("flow"), None);
                prop_assert_eq!(sharded.shard_of("big"), None);
                prop_assert_eq!(sharded.shard_of("audit"), Some(shards));
            }

            let got = run_mutating(&mut sharded, &events);
            if keyed {
                // The uncovered negated slot pins the late registration.
                prop_assert_eq!(sharded.shard_of("neg"), Some(shards));
            }
            prop_assert_eq!(
                &got, &expected,
                "{:?}({}) diverged under {:?} skew", mode, shards, skew
            );
        }
    }
}

/// The heterogeneous-key routing rule, pinned deterministically: the same
/// logical key appearing as `Int(3)` on `HOT_A` and `Float(3.0)` on
/// `HOT_B` must land on the same data shard, so the cross-type `=` match
/// (which coerces numerically) survives distribution. Non-integral floats
/// stay distinct keys and must not match.
#[test]
fn heterogeneous_key_types_route_together() {
    let registry = || {
        let reg = SchemaRegistry::new();
        reg.register("HOT_A", &[("Key", ValueType::Int)]).unwrap();
        reg.register("HOT_B", &[("Key", ValueType::Float)]).unwrap();
        reg
    };
    const QUERY: (&str, &str) = (
        "mix",
        "EVENT SEQ(HOT_A x, HOT_B y) WHERE x.Key = y.Key WITHIN 10 \
         RETURN x.Key AS k",
    );
    let reg = registry();
    let events = vec![
        reg.build_event("HOT_A", 1, vec![Value::Int(3)]).unwrap(),
        reg.build_event("HOT_B", 2, vec![Value::Float(3.5)])
            .unwrap(),
        reg.build_event("HOT_B", 3, vec![Value::Float(3.0)])
            .unwrap(),
        reg.build_event("HOT_A", 4, vec![Value::Int(0)]).unwrap(),
        reg.build_event("HOT_B", 5, vec![Value::Float(-0.0)])
            .unwrap(),
    ];

    let run_single = |mode: RoutingMode| {
        let mut engine = Engine::new(registry());
        engine.set_routing(mode);
        engine.register(QUERY.0, QUERY.1).unwrap();
        drive(&mut engine, &events)
    };
    let naive = run_single(RoutingMode::ScanAll);
    let indexed = run_single(RoutingMode::Indexed);
    assert_eq!(naive, indexed);
    assert_eq!(
        naive.len(),
        2,
        "Int(3)=Float(3.0) and Int(0)=Float(-0.0) must match: {naive:?}"
    );

    let mut builder = ShardedEngineBuilder::new(registry());
    builder.set_sharding(ShardingMode::ByPartitionKey);
    builder.register(QUERY.0, QUERY.1).unwrap();
    let mut sharded = builder.build(4).unwrap();
    assert_eq!(sharded.shard_of("mix"), None, "mix must distribute");
    assert_eq!(drive(&mut sharded, &events), naive);
}
