//! Every deployment behind `dyn EventProcessor` in the differential harness
//! (`tests/scenarios`): one scripted retail workload — a derivation chain,
//! negation, a mid-run unregistration and late registration, a snapshot
//! and a crash — on each group of columns.

mod oracle;
mod scenarios;

use sase::system::ShardedEngineBuilder;
use sase::ShardingMode;
use sase::ShardingMode::{ByPartitionKey as ByKey, ByQuery};

use scenarios::{play, reading, registry, retail, row, xorshift_batches, Column, Step, ALL};

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

/// A stranded instance: a touch at 12 prunes `a@1` and keeps `b@5`, which
/// then sits in its stack with an empty stack before it. Offered again,
/// `b` would not be appended (it has no predecessor), so a snapshot records
/// where it sits. After the restore, `c@13` still runs the `(b, c)` filter
/// against it and `a@16` still prunes it, so every column's counters equal
/// the reference's. `b@5` is also a counterexample buffered by `guarded`,
/// which kills `x@1`'s matches on both sides of the snapshot.
#[test]
fn a_stranded_instance_survives_restore() {
    let queries = [
        (
            "stranded",
            "EVENT SEQ(SHELF_READING a, COUNTER_READING b, EXIT_READING c) \
             WHERE a.TagId = b.TagId AND a.TagId = c.TagId AND b.AreaId < c.AreaId \
             WITHIN 10"
                .to_string(),
        ),
        ("guarded", retail(1, 20, 0)),
    ];
    // `reading(k, ..)` is a shelf, counter or exit reading for k = 0, 1, 2.
    let batches = vec![
        vec![
            reading(0, 1, 1, 1),
            reading(1, 5, 1, 3),
            reading(2, 12, 1, 1),
        ],
        vec![reading(2, 13, 1, 1), reading(0, 16, 1, 1)],
    ];
    let mut s = row(&queries, batches, &ALL);
    s.script.insert(3, Step::Snapshot);
    let played = play(&s);
    assert!(played.out.is_empty(), "{:?}", played.out);
    let stranded = played.engine.stats("stranded").unwrap();
    assert_eq!(
        (
            stranded.construction_filter_rejects,
            stranded.instances_pruned
        ),
        (2, 2)
    );
    assert_eq!(
        played.engine.stats("guarded").unwrap().dropped_by_negation,
        2
    );
}
