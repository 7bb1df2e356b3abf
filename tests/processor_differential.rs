//! Every deployment behind `dyn EventProcessor` in the differential harness
//! (`tests/scenarios`): one scripted retail workload — a derivation chain,
//! negation, a mid-run unregistration and late registration, a snapshot
//! and a crash — on each group of columns.

mod oracle;
mod scenarios;

use sase::system::ShardedEngineBuilder;
use sase::ShardingMode;
use sase::ShardingMode::{ByPartitionKey as ByKey, ByQuery};

use scenarios::{play, registry, retail, row, xorshift_batches, Column, Step, ALL};

fn queries() -> [(&'static str, String); 5] {
    [
        ("producer", retail(17, 100, 0)),
        ("mover", retail(22, 0, 0)),
        ("exits", retail(23, 0, 0)),
        ("guarded", retail(15, 60, 0)),
        ("pairs", retail(14, 50, 0)),
    ]
}

/// Play the scripted workload on `columns`.
fn scripted(columns: &[Column]) {
    let mut s = row(
        &queries(),
        xorshift_batches(0x9E37_79B9_7F4A_7C15, 24, 12),
        columns,
    );
    // Batch b is script step 5 + b; later insertions go first.
    let late = "EVENT COUNTER_READING c RETURN c.TagId AS t".to_string();
    s.script.insert(5 + 15, Step::Crash(0));
    s.script.insert(5 + 10, Step::Snapshot);
    s.script.insert(5 + 4, Step::Register("late".into(), late));
    s.script.insert(5 + 4, Step::Unregister("exits".into()));
    let played = play(&s);
    assert!(
        played.out.iter().any(|l| l.starts_with("[mover@")),
        "the derived stream is consumed"
    );
    assert!(
        played.out.iter().any(|l| l.starts_with("[late@")),
        "the late query fires"
    );
    assert_eq!(
        played.engine.query_names(),
        ["producer", "mover", "guarded", "pairs", "late"]
    );
}

/// The scan-all engine, the facade plain and sharded both ways, both
/// sharding modes, and the durable engine over an engine and over a
/// query-parallel sharded engine.
#[test]
fn engine_sharded_and_durable_emit_identically_through_dyn_processor() {
    scripted(&ALL);
}

/// `ByPartitionKey` at every shard count, and durable over it: the `INTO`
/// producer, its `FROM` consumer and the `WHERE`-less query are pinned to
/// the extra worker, while the two keyed queries distribute.
#[test]
fn by_partition_key_and_durable_emit_identically() {
    let mut builder = ShardedEngineBuilder::new(registry());
    builder.set_sharding(ShardingMode::ByPartitionKey);
    for (name, src) in &queries() {
        builder.register(name, src).unwrap();
    }
    let sharded = builder.build(4).unwrap();
    for (name, shard) in [
        ("producer", Some(4)),
        ("mover", Some(4)),
        ("exits", Some(4)),
        ("guarded", None),
        ("pairs", None),
    ] {
        assert_eq!(sharded.shard_of(name), shard, "{name}");
    }
    drop(sharded);
    scripted(&[
        Column::Sharded(ByKey, 1),
        Column::Sharded(ByKey, 2),
        Column::Sharded(ByKey, 8),
        Column::Durable(Some((ByKey, 4))),
        Column::Durable(Some((ByKey, 2))),
    ]);
}

/// The `Sase` facade at every sharding shape the builder offers.
#[test]
fn facade_backend_is_differentially_identical() {
    scripted(&[
        Column::Facade(None),
        Column::Facade(Some((ByQuery, 2))),
        Column::Facade(Some((ByQuery, 3))),
        Column::Facade(Some((ByKey, 1))),
        Column::Facade(Some((ByKey, 4))),
    ]);
}
