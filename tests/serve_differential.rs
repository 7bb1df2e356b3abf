//! The wire in the differential harness (`tests/scenarios`): a client
//! against a served `Sase` must see what the embedded engine emits, and a
//! served durable deployment must keep every batch it acknowledged.

mod oracle;
mod scenarios;

use scenarios::{play, property, retail, row, xorshift_batches, Column, Draw, Step};

/// Random scenarios on a served column: emissions, registration findings,
/// query lists, stats and `EXPLAIN` over the wire must render as the
/// reference's.
#[test]
fn wire_matches_embedded_byte_for_byte() {
    let name = "wire_matches_embedded_byte_for_byte";
    let tally = property(name, 16, Draw::default(), |_, s| {
        s.columns = vec![Column::Wire];
    });
    assert_eq!(tally.count(|c| *c == Column::Wire), 16);
}

/// Every batch a served durable deployment acknowledged survives a
/// graceful shutdown and replays at recovery, which then finishes the
/// stream exactly as an uninterrupted run.
#[test]
fn acknowledged_batches_survive_shutdown_and_recover() {
    let queries = [
        ("pairs", retail(14, 50, 0)),
        ("guarded", retail(15, 60, 0)),
        ("exits", retail(23, 0, 0)),
    ];
    let batches = xorshift_batches(0x2545_F491_4F6C_DD1D, 12, 8);
    let mut s = row(&queries, batches, &[Column::WireDurable]);
    s.script.insert(3 + 7, Step::Crash(0));
    assert!(!play(&s).out.is_empty());
}
