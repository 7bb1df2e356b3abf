//! Metrics in the differential harness (`tests/scenarios`): every column's
//! counters conserve ground truth, findings are counted by severity, and
//! sharded registries merge deterministically.

mod oracle;
mod scenarios;

use sase::core::functions::FunctionRegistry;
use sase::core::lang::parse_query;
use sase::core::value::Value;
use sase::core::Event;
use sase::system::ShardedEngineBuilder;
use sase::ShardingMode::{ByPartitionKey as ByKey, ByQuery};
use sase::{render_prometheus, EventProcessor};

use scenarios::{keyed, play, property, registry, row, Column, Draw, ALL, SEVERITIES};

/// Every in-process deployment shape in every scenario. At each snapshot,
/// crash and at the end the runner checks emissions, events and batches
/// ingested, findings by severity, WAL appends, events replayed, per-query
/// counters and matches; on sharded columns, that the workers ingest what
/// the router sends, that each worker is sent what the routing rules
/// predict (a `ByQuery` worker hosting a query gets every event, the
/// pinned `ByPartitionKey` worker too, and each event of a claimed type
/// goes to one data worker), that queues are drained, and that the
/// imbalance ratio is at least 1.
#[test]
fn metrics_conserve_ground_truth_across_deployments() {
    let every = [
        Column::ScanAll,
        Column::Facade(Some((ByKey, 4))),
        Column::Sharded(ByQuery, 3),
        Column::Sharded(ByKey, 4),
        Column::Durable(None),
        Column::Durable(Some((ByKey, 2))),
    ];
    let draw = Draw {
        named: Some(false),
        ..Draw::default()
    };
    let name = "metrics_conserve_ground_truth_across_deployments";
    property(name, 16, draw, |_, s| s.columns = every.to_vec());
}

/// Orders, shipments and audits, with keys and amounts in small cycles.
fn orders(n: i64) -> Vec<Event> {
    let events = (0..n).map(|i| {
        let (ty, attrs) = match i % 3 {
            0 => ("ORDERS", vec![Value::Int(i % 5), Value::Int(i % 4)]),
            1 => ("SHIPMENTS", vec![Value::Int(i % 5), Value::Int(i % 4)]),
            _ => ("AUDITS", vec![Value::str("n")]),
        };
        registry().build_event(ty, i as u64 + 1, attrs).unwrap()
    });
    events.collect()
}

/// Registration findings land in `sase_diagnostics_emitted_total` by
/// severity, once per registration, as the analyzer reports them; the
/// runner holds every column's counters to the reference's, and renders
/// every column's metrics twice to check that worker registries merge
/// deterministically.
#[test]
fn registration_diagnostics_are_counted_by_severity() {
    use sase::core::analyze::analyze_with;
    let queries = [("dead", keyed(5, 0, 5)), ("flow", keyed(0, 40, 0))];
    let mut expected = [0u64; 3];
    for (_, src) in &queries {
        let query = parse_query(src).unwrap();
        let functions = FunctionRegistry::with_stdlib();
        for d in analyze_with(&query, &registry(), &functions, Default::default()) {
            expected[d.severity as usize] += 1;
        }
    }
    assert!(
        expected[2] >= 1,
        "the dead query must produce an error lint"
    );
    let events = orders(40);
    let played = play(&row(
        &queries,
        events.chunks(7).map(<[Event]>::to_vec).collect(),
        &ALL,
    ));
    let snap = EventProcessor::metrics(&played.engine);
    for (severity, want) in SEVERITIES.iter().zip(expected) {
        let label = [("severity", *severity)];
        assert_eq!(
            snap.counter("sase_diagnostics_emitted_total", &label),
            want,
            "{severity}"
        );
    }
}

/// A quiescent sharded deployment renders the same metrics twice, with the
/// routing and per-query series of every worker merged in; the runner
/// renders each sharded column twice as well.
#[test]
fn sharded_snapshot_merge_is_deterministic() {
    let queries: Vec<(&str, String)> = (0..4)
        .map(|t| (["a", "b", "c", "d"][t], keyed(t, 30, 0)))
        .collect();
    let batches: Vec<Vec<Event>> = orders(40).chunks(8).map(<[Event]>::to_vec).collect();
    let columns = [
        Column::Sharded(ByKey, 4),
        Column::Sharded(ByQuery, 3),
        Column::Facade(Some((ByKey, 4))),
        Column::Durable(Some((ByKey, 4))),
    ];
    play(&row(&queries, batches.clone(), &columns));

    let mut builder = ShardedEngineBuilder::new(registry());
    builder.set_sharding(ByKey);
    builder.set_metrics(true);
    for (name, src) in &queries {
        builder.register(name, src).unwrap();
    }
    let mut sharded = builder.build(4).unwrap();
    for batch in &batches {
        sharded.ingest(None, batch, &mut Vec::new(), None).unwrap();
    }
    let a = render_prometheus(&EventProcessor::metrics(&sharded));
    let b = render_prometheus(&EventProcessor::metrics(&sharded));
    assert_eq!(a, b, "quiescent snapshots must merge deterministically");
    assert!(a.contains("sase_shard_events_routed_total"));
    assert!(a.contains("sase_query_events_processed_total"));
}
