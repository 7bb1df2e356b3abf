//! Crash-point property tests: the log must recover from a crash at *any*
//! byte offset — a torn tail is truncated and the committed prefix
//! resumes cleanly; content damage is a typed [`StoreError`]; nothing ever
//! panics or silently reorders records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use sase_core::event::{retail_registry, Event, SchemaRegistry};
use sase_core::value::Value;
use sase_store::{EventLog, LogOptions, StoreError};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sase-crash-{}-{label}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ev(reg: &SchemaRegistry, ts: u64, tag: i64) -> Event {
    reg.build_event(
        "SHELF_READING",
        ts,
        vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
    )
    .unwrap()
}

/// Canonical rendering of the log contents for prefix comparison.
fn contents(log: &mut EventLog, reg: &SchemaRegistry) -> Vec<String> {
    log.replay_from(reg, 0)
        .unwrap()
        .map(|r| {
            let r = r.unwrap();
            format!(
                "{}@{}:{:?}",
                r.seq,
                r.tick,
                r.events.iter().map(|e| e.to_string()).collect::<Vec<_>>()
            )
        })
        .collect()
}

/// Write a small multi-segment log from the scripted batches; returns the
/// canonical contents.
fn build_log(dir: &PathBuf, reg: &SchemaRegistry, batches: &[(u64, u8)]) -> Vec<String> {
    let mut log = EventLog::open(dir, LogOptions { segment_bytes: 192 }).unwrap();
    let mut tick = 0u64;
    let mut ts = 0u64;
    for (step, n) in batches {
        tick += step;
        let events: Vec<Event> = (0..*n)
            .map(|k| {
                ts += 1;
                ev(reg, ts, k as i64 % 3)
            })
            .collect();
        log.append(tick, &events).unwrap();
    }
    log.commit().unwrap();
    contents(&mut log, reg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Truncating the newest segment at any byte offset loses at most the
    /// torn tail: reopen succeeds, yields a prefix of the original
    /// records, and the log accepts appends again.
    #[test]
    fn truncation_recovers_a_clean_prefix(
        batches in proptest::collection::vec((0u64..3, 1u8..5), 3..12),
        cut_back in 1u64..400,
    ) {
        let reg = retail_registry();
        let dir = tmp_dir("trunc");
        let full = build_log(&dir, &reg, &batches);

        // Truncate the newest segment file by `cut_back` bytes (clamped).
        let log = EventLog::open(&dir, LogOptions { segment_bytes: 192 }).unwrap();
        let seg = log.segments().last().unwrap().clone();
        drop(log);
        let new_len = seg.bytes.saturating_sub(cut_back);
        let f = std::fs::OpenOptions::new().write(true).open(&seg.path).unwrap();
        f.set_len(new_len).unwrap();
        drop(f);

        let mut log = EventLog::open(&dir, LogOptions { segment_bytes: 192 }).unwrap();
        let after = contents(&mut log, &reg);
        prop_assert!(after.len() <= full.len());
        prop_assert_eq!(&full[..after.len()], &after[..], "must be a prefix");
        prop_assert_eq!(log.next_seq(), after.len() as u64);

        // The log is writable again and the new record lands after the
        // surviving prefix.
        let resume_tick = log.last_tick().unwrap_or(0) + 1;
        let seq = log.append(resume_tick, &[ev(&reg, 10_000, 1)]).unwrap();
        prop_assert_eq!(seq, after.len() as u64);
        log.commit().unwrap();
        drop(log);
        let mut log = EventLog::open(&dir, LogOptions { segment_bytes: 192 }).unwrap();
        prop_assert_eq!(log.next_seq(), after.len() as u64 + 1);
        let _ = contents(&mut log, &reg);
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any byte of any segment never panics: reopen either
    /// reports typed corruption or yields a prefix of the original
    /// records (a flip in a record's length field is indistinguishable
    /// from a torn tail, so the tail may be dropped — but never
    /// reordered, never fabricated).
    #[test]
    fn byte_flips_fail_typed_or_keep_a_prefix(
        batches in proptest::collection::vec((0u64..3, 1u8..5), 3..10),
        victim in (0usize..64, 0u64..100_000),
    ) {
        let reg = retail_registry();
        let dir = tmp_dir("flip");
        let full = build_log(&dir, &reg, &batches);

        let log = EventLog::open(&dir, LogOptions { segment_bytes: 192 }).unwrap();
        let segs: Vec<_> = log.segments().to_vec();
        drop(log);
        let seg = &segs[victim.0 % segs.len()];
        let mut bytes = std::fs::read(&seg.path).unwrap();
        let at = (victim.1 % bytes.len() as u64) as usize;
        bytes[at] ^= 0x20;
        std::fs::write(&seg.path, &bytes).unwrap();

        match EventLog::open(&dir, LogOptions { segment_bytes: 192 }) {
            Err(StoreError::Corrupt { .. }) => {} // typed, expected
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(mut log) => {
                let after = contents(&mut log, &reg);
                prop_assert!(after.len() <= full.len());
                prop_assert_eq!(&full[..after.len()], &after[..], "must be a prefix");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Exhaustive single-segment truncation sweep: every possible cut offset
/// of a small log recovers to a clean prefix (the deterministic anchor for
/// the property above).
#[test]
fn every_truncation_offset_recovers() {
    let reg = retail_registry();
    let dir = tmp_dir("sweep");
    let batches: Vec<(u64, u8)> = vec![(1, 2), (1, 1), (1, 3), (1, 2)];
    let full = build_log(&dir, &reg, &batches);
    let log = EventLog::open(&dir, LogOptions { segment_bytes: 192 }).unwrap();
    let seg = log.segments().last().unwrap().clone();
    let base = std::fs::read(&seg.path).unwrap();
    drop(log);

    for cut in 0..base.len() {
        std::fs::write(&seg.path, &base[..cut]).unwrap();
        let mut log = EventLog::open(&dir, LogOptions { segment_bytes: 192 })
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let after = contents(&mut log, &reg);
        assert!(after.len() <= full.len(), "cut at {cut}");
        assert_eq!(&full[..after.len()], &after[..], "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flipping bytes in a checkpoint file makes recovery fall back, never
/// panic (the checkpoint-level counterpart, exercised end to end in
/// `sase-system`).
#[test]
fn checkpoint_flip_sweep_never_panics() {
    use sase_core::engine::Engine;
    use sase_store::{load_latest_checkpoint, write_checkpoint, Checkpoint};

    let reg = retail_registry();
    let mut engine = Engine::new(reg.clone());
    engine
        .register(
            "q",
            "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
             WHERE x.TagId = z.TagId WITHIN 50 RETURN x.TagId AS tag",
        )
        .unwrap();
    for ts in 1..=6u64 {
        engine.process_batch(&[ev(&reg, ts, 1)]).unwrap();
    }
    let dir = tmp_dir("ckptflip");
    let path = write_checkpoint(
        &dir,
        &Checkpoint {
            replay_from_seq: 3,
            engines: vec![engine.snapshot()],
        },
    )
    .unwrap();
    let base = std::fs::read(&path).unwrap();
    for at in 0..base.len() {
        let mut bytes = base.clone();
        bytes[at] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
        assert!(loaded.is_none(), "flip at {at} must not validate");
        assert_eq!(corrupt.len(), 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
