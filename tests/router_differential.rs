//! Query routing in the differential harness (`tests/scenarios`): the
//! indexed router against `RoutingMode::ScanAll`, which every scenario
//! plays, over named streams and derived `INTO`/`FROM` streams.

mod oracle;
mod scenarios;

use sase::core::event::Event;

use scenarios::{
    play, property, reading, retail, row, Column, Draw, Scenario, Step, ALL, RETAIL, STREAMS,
};

/// The routing templates of `RETAIL`: returns, a `FROM` on a mixed-case
/// named stream, the `moves` producer and its consumers, the two-hop
/// chain, and the `pairs` producer.
const ROUTING: [usize; 11] = [14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24];

/// Every routing template registered at once, batches spread over the
/// default and the mixed-case named streams, on the scan-all engine; the
/// random scenarios of `tests/differential.rs` take named streams to the
/// other columns.
#[test]
fn indexed_routing_matches_scan_all() {
    assert!(ROUTING.iter().all(|&t| t < RETAIL.len()));
    let draw = Draw {
        named: Some(true),
        templates: Some(&ROUTING),
        ..Draw::default()
    };
    let name = "indexed_routing_matches_scan_all";
    property(name, 96, draw, |_, s| s.columns = vec![Column::ScanAll]);
}

/// The routing templates over a dense per-event script across the default
/// and mixed-case named streams, with an unregistration in the middle; and
/// the same script with no queries at all.
#[test]
fn all_templates_dense_script_anchor() {
    let mut script: Vec<Step> = (14..22)
        .map(|t| Step::Register(format!("q{}", t - 14), retail(t, 100, 0)))
        .collect();
    for k in 0..60u64 {
        if k == 30 {
            script.push(Step::Unregister("q2".into()));
        }
        let event = reading(k, k + 1, k % 3, 1 + k / 3 % 3);
        script.push(Step::Batch(STREAMS[(k % 4) as usize], vec![event]));
    }
    let columns = ALL[..6].to_vec();
    let played = play(&Scenario {
        script: script.clone(),
        columns: columns.clone(),
    });
    assert!(
        played.out.iter().any(|l| l.starts_with("[q7@")),
        "the two-hop chain fires"
    );
    script.retain(|s| matches!(s, Step::Batch(..)));
    assert!(play(&Scenario { script, columns }).out.is_empty());
}

/// One batch and the same events one at a time emit the same sequence.
#[test]
fn batch_matches_per_event_under_both_modes() {
    let queries: Vec<(&str, String)> = [("a", 14), ("b", 15), ("c", 17), ("d", 19)]
        .map(|(n, t)| (n, retail(t, 100, 0)))
        .into();
    let events: Vec<Event> = (0..40)
        .map(|k| reading(k, k + 1, k % 4, 1 + k % 3))
        .collect();
    let batched = play(&row(&queries, vec![events.clone()], &ALL)).out;
    let per_event = events.chunks(1).map(<[Event]>::to_vec).collect();
    assert!(!batched.is_empty());
    assert_eq!(batched, play(&row(&queries, per_event, &ALL)).out);
}
