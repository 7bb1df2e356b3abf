//! Partition-key sharding in the differential harness (`tests/scenarios`):
//! keyed scenarios on `ShardingMode::ByPartitionKey` at every shard count,
//! where each query runs, and keys of two value types that must meet on
//! one shard.

mod oracle;
mod scenarios;

use sase::core::value::Value;
use sase::system::{ShardedEngine, ShardedEngineBuilder};
use sase::ShardingMode::{self, ByPartitionKey, ByQuery};

use scenarios::{keyed, play, property, registry, row, Column, Draw, Shape, ALL};

fn build(mode: ShardingMode, shards: usize, queries: &[(&str, usize)]) -> ShardedEngine {
    let mut builder = ShardedEngineBuilder::new(registry());
    builder.set_sharding(mode);
    for &(name, t) in queries {
        builder.register(name, &keyed(t, 40, 0)).unwrap();
    }
    builder.build(shards).unwrap()
}

/// Keyed streams — a hot key, uniform keys, one key per event, keyless
/// `AUDITS` events, `Int` and `Float` keys — on `ByPartitionKey` with 1, 2,
/// 4 and 8 shards and on `ByQuery` at one of those counts; the random
/// scenarios of `tests/differential.rs` take keyed streams to the other
/// columns. Placement: queries keyed on `UserId`
/// distribute over the data workers; the keyless one, and a late negation
/// whose key misses its negated slot, are pinned to the extra worker.
#[test]
fn by_partition_key_matches_indexed_engine() {
    let queries = [("flow", 0), ("big", 1), ("audit", 2)];
    for shards in [1, 2, 4, 8] {
        assert_eq!(build(ByQuery, shards, &queries).shard_count(), shards);
        let mut sharded = build(ByPartitionKey, shards, &queries);
        assert_eq!(sharded.shard_count(), shards + 1);
        assert!(sharded.unregister("big"));
        sharded.register("neg", &keyed(3, 40, 0)).unwrap();
        let pinned = Some(shards);
        for (name, shard) in [("flow", None), ("audit", pinned), ("neg", pinned)] {
            assert_eq!(sharded.shard_of(name), shard, "{name} at {shards} shards");
        }
    }

    let draw = Draw {
        shape: Some(Shape::Keyed),
        ..Draw::default()
    };
    let counts = [1, 2, 4, 8];
    let by_key = counts.map(|n| Column::Sharded(ByPartitionKey, n));
    let name = "by_partition_key_matches_indexed_engine";
    let tally = property(name, 24, draw, |case, s| {
        s.columns = by_key.to_vec();
        s.columns.push(Column::Sharded(ByQuery, counts[case % 4]));
    });
    assert!(tally.judged > 0, "the oracle judged no match");
}

/// `Int(3)` and `Float(3.0)` are one key and must meet on one shard, while
/// a non-integral float stays a key of its own.
#[test]
fn heterogeneous_key_types_route_together() {
    let sharded = build(ByPartitionKey, 4, &[("mix", 4)]);
    assert_eq!(sharded.shard_of("mix"), None, "mix must distribute");
    drop(sharded);
    let reg = registry();
    let events = [
        ("HOT_A", 1, Value::Int(3)),
        ("HOT_B", 2, Value::Float(3.5)),
        ("HOT_B", 3, Value::Float(3.0)),
        ("HOT_A", 4, Value::Int(0)),
        ("HOT_B", 5, Value::Float(-0.0)),
    ]
    .map(|(ty, ts, key)| reg.build_event(ty, ts, vec![key]).unwrap());
    let played = play(&row(
        &[("mix", keyed(4, 10, 0))],
        vec![events.to_vec()],
        &ALL,
    ));
    assert_eq!(
        played.out.len(),
        2,
        "Int(3)=Float(3.0) and Int(0)=Float(-0.0)"
    );
}
