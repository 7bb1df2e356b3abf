//! The checksum and the codec are total and unchanged.
//!
//! * `crc32` is the IEEE CRC-32 at every length and alignment: known
//!   vectors, and a differential against the bytewise loop it replaced.
//! * The log and checkpoint formats did not move: bytes written before the
//!   byte path was rebuilt decode, and re-encode identically; version-1
//!   and version-2 checkpoints convert to what this build snapshots.
//! * A damaged log record is a typed error or the committed prefix, never
//!   a panic; a retired sequence-snapshot tag is a typed error. (Damage to
//!   a version-3 snapshot frame is measured in `sase-server`'s
//!   `codec_total`, under its allocator hook.)
//! * `decode ∘ encode = id` over every kind of event a batch can hold and
//!   both layouts an event can take, and over engine snapshots; equal
//!   strings within a batch decode to one shared `Arc<str>`, and an event
//!   prints exactly its attributes.
//! * A batch decodes under one registry read while other threads redefine
//!   and register types.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;

use sase_core::engine::Engine;
use sase_core::event::{retail_registry, Event, SchemaRegistry};
use sase_core::snapshot::EngineSnapshot;
use sase_core::value::{Value, ValueType};
use sase_store::checkpoint::CKPT_MAGIC;
use sase_store::codec::{
    crc32, get_engine_snapshot, get_events, put_engine_snapshot, put_events, ByteReader, ByteWriter,
};
use sase_store::{
    load_latest_checkpoint, write_checkpoint, Checkpoint, EventLog, LogOptions, Record, StoreError,
};

#[path = "fixtures/values.rs"]
mod values;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sase-codec-total-{}-{label}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// The one-table, one-byte-per-step loop `crc32` used to be: the reference
/// the sliced kernel must agree with on every input.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn crc32_known_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every length 0..=64 at every start offset 0..8: all combinations of
    /// unaligned head, whole 8-byte steps and a 1–7 byte tail.
    #[test]
    fn crc32_matches_bytewise_at_every_short_length(
        bytes in prop::collection::vec(any::<u8>(), 72..73),
    ) {
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    /// Random windows of buffers up to 64 KiB.
    #[test]
    fn crc32_matches_bytewise_on_long_slices(
        bytes in prop::collection::vec(any::<u8>(), 0..65_537),
        start in 0usize..4096,
        trim in 0usize..4096,
    ) {
        let start = start.min(bytes.len());
        let end = bytes.len().saturating_sub(trim).max(start);
        let slice = &bytes[start..end];
        prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
    }
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

fn rendered(events: &[Event]) -> Vec<String> {
    events.iter().map(|e| e.to_string()).collect()
}

fn encoded(events: &[Event]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_events(&mut w, events);
    w.into_bytes()
}

#[test]
fn golden_wal_segment_decodes_and_reencodes_identically() {
    let golden = fixture("wal_segment.log");
    let reg = values::registry();
    let events = values::events(&reg);

    // Decode: the parent's segment opens and replays to the same batches.
    let dir = tmp_dir("golden-read");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-0000000000000000.log"), &golden).unwrap();
    let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
    assert_eq!(log.next_seq(), 2);
    let records: Vec<Record> = log
        .replay_from(&reg, 0)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!((records[0].seq, records[0].tick), (0, 6));
    assert_eq!(rendered(&records[0].events), rendered(&events));
    assert_eq!(encoded(&records[0].events), encoded(&events));
    assert_eq!((records[1].seq, records[1].tick), (1, 6));
    assert!(records[1].events.is_empty());
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();

    // Re-encode: the same appends write the same file.
    let dir = tmp_dir("golden-write");
    let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
    log.append(6, &events).unwrap();
    log.append(6, &[]).unwrap();
    log.commit().unwrap();
    let written = std::fs::read(&log.segments()[0].path).unwrap();
    assert_eq!(written, golden, "the log format moved");
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// This build's snapshot of the fixture run, with evaluation errors
/// counted so the golden bytes pin that counter too.
fn snapshot_v3() -> Checkpoint {
    let mut engine = values::snapshot();
    engine.queries[0].stats.eval_errors = 3;
    Checkpoint {
        replay_from_seq: 42,
        engines: vec![engine],
    }
}

/// The version-3 checkpoint format did not move: the golden file decodes
/// to this build's snapshot of the fixture run and re-encodes identically.
#[test]
fn golden_checkpoint_decodes_and_reencodes_identically() {
    let golden = fixture("checkpoint_v3.ckpt");
    assert_eq!(golden[4..6], [0, 3], "the fixture is version 3");
    let want = snapshot_v3();

    let dir = tmp_dir("golden-ckpt-read");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ckpt-000000000000002a.ckpt"), &golden).unwrap();
    let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
    assert!(corrupt.is_empty(), "{corrupt:?}");
    assert_eq!(loaded.unwrap(), want);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = tmp_dir("golden-ckpt-write");
    let path = write_checkpoint(&dir, &want).unwrap();
    assert_eq!(
        std::fs::read(path).unwrap(),
        golden,
        "the checkpoint format moved"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version-2 checkpoint, which kept 9 counters, reads as this build's
/// snapshot of the fixture run with no evaluation errors.
#[test]
fn golden_v2_checkpoint_reads_with_no_eval_errors() {
    let golden = fixture("checkpoint_v2.ckpt");
    assert_eq!(golden[4..6], [0, 2], "the fixture is version 2");
    let dir = tmp_dir("golden-v2");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ckpt-000000000000002a.ckpt"), &golden).unwrap();
    let want = Checkpoint {
        replay_from_seq: 42,
        engines: vec![values::snapshot()],
    };
    let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
    assert!(corrupt.is_empty(), "{corrupt:?}");
    assert_eq!(loaded, Some(want));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version-1 checkpoint, which wrote each runtime's layout (stacks with
/// RIPs and bases, keyed partitions and buckets, 11 counters), converts on
/// read to exactly what this build snapshots for the same run.
#[test]
fn golden_v1_checkpoint_converts_to_this_builds_snapshot() {
    let golden = fixture("checkpoint.ckpt");
    assert_eq!(golden[4..6], [0, 1], "the fixture is version 1");
    let dir = tmp_dir("golden-v1");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ckpt-000000000000002a.ckpt"), &golden).unwrap();
    let want = Checkpoint {
        replay_from_seq: 42,
        engines: vec![values::snapshot()],
    };
    let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
    assert!(corrupt.is_empty());
    assert_eq!(loaded, Some(want));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Damage
// ---------------------------------------------------------------------------

/// Open a directory holding `bytes` as its only segment and replay it.
fn open_and_replay(bytes: &[u8], reg: &SchemaRegistry) -> Result<Vec<Record>, StoreError> {
    let dir = tmp_dir("damage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-0000000000000000.log"), bytes).unwrap();
    let outcome = EventLog::open(&dir, LogOptions::default())
        .and_then(|mut log| log.replay_from(reg, 0)?.collect::<Result<Vec<_>, _>>());
    std::fs::remove_dir_all(&dir).unwrap();
    outcome
}

/// Every truncation and every single-bit flip of the golden segment is the
/// committed prefix or a typed error — `open_and_replay` returning at all
/// is the "never a panic" half.
#[test]
fn damaged_wal_records_are_typed_errors_or_the_committed_prefix() {
    let golden = fixture("wal_segment.log");
    let reg = values::registry();
    let whole = open_and_replay(&golden, &reg).unwrap();
    let same_prefix = |got: &[Record]| {
        got.len() <= whole.len()
            && got.iter().zip(&whole).all(|(g, w)| {
                (g.seq, g.tick) == (w.seq, w.tick) && rendered(&g.events) == rendered(&w.events)
            })
    };

    for cut in 0..golden.len() {
        match open_and_replay(&golden[..cut], &reg) {
            // A torn tail is truncated away: a strict prefix survives.
            Ok(records) => assert!(
                records.len() < whole.len() && same_prefix(&records),
                "cut at {cut} invented records"
            ),
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => panic!("cut at {cut}: unexpected error class {other}"),
        }
    }
    for bit in 0..golden.len() * 8 {
        let mut bytes = golden.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        match open_and_replay(&bytes, &reg) {
            // A flipped length can make the tail look torn; what is left
            // must still be a prefix of what was written.
            Ok(records) => assert!(same_prefix(&records), "bit {bit} changed a record"),
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => panic!("bit {bit}: unexpected error class {other}"),
        }
    }
}

/// A version-1 engine snapshot of one query, written field by field so
/// that its sequence snapshot can carry any tag: `tag`, then what `body`
/// writes.
fn one_query_snapshot(tag: u8, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(1); // queries
    w.str("q");
    w.u32(11); // stat counters
    for _ in 0..11 {
        w.u64(0);
    }
    w.u8(0); // no query clock
    w.u8(tag);
    body(&mut w);
    w.u32(0); // negation buffers
    w.u32(0); // stream clocks
    w.u32(0); // derived streams
    w.into_bytes()
}

/// Make a version-1 checkpoint holding `blob` as its one engine snapshot
/// the only file in `dir`, and load the newest valid checkpoint: `Ok` the
/// converted checkpoint, or `Err` when the file was skipped as corrupt.
fn load_v1(dir: &Path, blob: &[u8]) -> Result<Checkpoint, ()> {
    let mut w = ByteWriter::new();
    w.u32(CKPT_MAGIC);
    w.u16(1);
    w.u64(9);
    w.u32(1);
    w.len_prefixed(|b| b.raw(blob));
    w.u32(crc32(w.as_slice()));
    let path = dir.join("ckpt-0000000000000009.ckpt");
    std::fs::write(&path, w.into_bytes()).unwrap();
    match load_latest_checkpoint(dir).unwrap() {
        (Some(ckpt), corrupt) if corrupt.is_empty() => Ok(ckpt),
        (None, corrupt) if corrupt == [path] => Err(()),
        other => panic!("one file, loaded and skipped: {other:?}"),
    }
}

/// Tag 1 was the sequence snapshot of a runtime that is gone. A version-1
/// checkpoint holding one is a typed error at every length, so recovery
/// skips the file as corrupt (the converter's message is checked by
/// `codec`'s `a_retired_v1_sequence_tag_is_named`); tag 0 written the same
/// way converts.
#[test]
fn a_retired_sequence_snapshot_tag_is_a_typed_error() {
    let dir = tmp_dir("retired-tag");
    std::fs::create_dir_all(&dir).unwrap();
    let ssc = one_query_snapshot(0, |w| {
        w.u64(0); // events since the last sweep
        w.u32(0); // partitions
    });
    let converted = load_v1(&dir, &ssc).unwrap();
    assert_eq!(converted.engines[0].queries[0].name, "q");

    // The retired layout: runs, each a list of event snapshots.
    let retired = one_query_snapshot(1, |w| {
        w.u32(1);
        w.u32(1);
        w.str("SHELF_READING");
        w.u64(3);
        w.u32(0);
    });
    assert_eq!(load_v1(&dir, &retired), Err(()));
    for cut in 0..retired.len() {
        assert_eq!(load_v1(&dir, &retired[..cut]), Err(()), "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn decode_snapshot(bytes: &[u8]) -> Result<EngineSnapshot, StoreError> {
    let mut r = ByteReader::new(bytes);
    let snap = get_engine_snapshot(&mut r)?;
    r.expect_end()?;
    Ok(snap)
}

fn encode_snapshot(snap: &EngineSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_engine_snapshot(&mut w, snap);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

/// Queries holding every kind of place: PAIS and unpartitioned stacks, an
/// `ANY` component, indexed and flat negation buffers, and a derived
/// stream with a consumer.
const SNAPSHOT_QUERIES: [&str; 5] = [
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 20 RETURN x.TagId AS tag INTO alerts",
    "FROM alerts EVENT SEQ(ALERTS a, ALERTS b) WHERE a.tag = b.tag WITHIN 40",
    "EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) a, EXIT_READING b) \
     WHERE a.AreaId < b.AreaId WITHIN 15",
    "EVENT SEQ(SHELF_READING a, !(COUNTER_READING c), EXIT_READING b) \
     WHERE a.TagId = b.TagId AND a.AreaId = c.AreaId WITHIN 25",
    "EVENT SEQ(SHELF_READING a, COUNTER_READING b, EXIT_READING c) WHERE [TagId] WITHIN 30",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `decode ∘ encode = id` on snapshots of engines that ran a random
    /// retail stream, and the bytes re-encode identically.
    #[test]
    fn snapshots_round_trip(
        picks in prop::collection::vec((0usize..3, 0i64..4, 0i64..3), 0..120),
    ) {
        let reg = retail_registry();
        reg.register("alerts", &[("tag", ValueType::Int)]).unwrap();
        let mut engine = Engine::new(reg.clone());
        for (i, src) in SNAPSHOT_QUERIES.iter().enumerate() {
            engine.register(&format!("q{i}"), src).unwrap();
        }
        for (k, (ty, tag, area)) in picks.iter().enumerate() {
            let ty = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"][*ty];
            let attrs = vec![Value::Int(*tag), Value::str("p"), Value::Int(*area)];
            let e = reg.build_event(ty, k as u64 + 1, attrs).unwrap();
            engine.process_batch(&[e]).unwrap();
        }
        let snap = engine.snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(encode_snapshot(&back), bytes);
    }
}

fn decoded(bytes: &[u8], reg: &SchemaRegistry) -> Result<Vec<Event>, StoreError> {
    let mut r = ByteReader::new(bytes);
    let events = get_events(&mut r, reg)?;
    r.expect_end()?;
    Ok(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batches drawn over the fixture registry: mixed-case and non-ASCII
    /// type names in any spelling, arbitrary (possibly empty) strings,
    /// floats from raw bits (NaN payloads, −0.0, infinities), and long
    /// runs alternating between two types.
    #[test]
    fn decode_inverts_encode(
        picks in prop::collection::vec(
            (0u8..4, any::<u64>(), any::<i64>(), any::<String>(), any::<bool>()),
            0..48,
        ),
    ) {
        let reg = values::registry();
        let mut ts = 0u64;
        let events: Vec<Event> = picks
            .iter()
            .map(|(kind, bits, int, text, flag)| {
                ts += 1;
                match kind {
                    0 => reg.build_event(
                        "Shelf_Reading",
                        ts,
                        vec![Value::Int(*int), Value::str(text), Value::Int(1)],
                    ),
                    1 => reg.build_event(
                        "exit_reading",
                        ts,
                        vec![Value::Int(*int), Value::str(""), Value::Int(-1)],
                    ),
                    2 => reg.build_event(
                        "TëMP_PROBE",
                        ts,
                        vec![
                            Value::Float(f64::from_bits(*bits)),
                            Value::Bool(*flag),
                            Value::str(text),
                        ],
                    ),
                    _ => reg.build_event(
                        "Tëmp_Probe",
                        ts,
                        vec![Value::Float(-0.0), Value::Bool(*flag), Value::str(text)],
                    ),
                }
                .unwrap()
            })
            .collect();

        let bytes = encoded(&events);
        let back = decoded(&bytes, &reg).unwrap();
        prop_assert_eq!(back.len(), events.len());
        for (b, e) in back.iter().zip(&events) {
            prop_assert_eq!(b.type_id(), e.type_id());
            prop_assert_eq!(b.timestamp(), e.timestamp());
        }
        // Bit-exact, floats included: the re-encoding is the same bytes.
        prop_assert_eq!(encoded(&back), bytes);
    }
}

#[test]
fn a_batch_alternating_between_two_types_round_trips() {
    let reg = values::registry();
    let events: Vec<Event> = (0..512u64)
        .map(|ts| {
            if ts % 2 == 0 {
                reg.build_event(
                    "SHELF_READING",
                    ts,
                    vec![Value::Int(ts as i64), Value::str("soap"), Value::Int(1)],
                )
            } else {
                reg.build_event(
                    "Tëmp_Probe",
                    ts,
                    vec![Value::Float(0.5), Value::Bool(true), Value::str("ok")],
                )
            }
            .unwrap()
        })
        .collect();
    let bytes = encoded(&events);
    let back = decoded(&bytes, &reg).unwrap();
    assert_eq!(rendered(&back), rendered(&events));
    assert_eq!(encoded(&back), bytes);
}

#[test]
fn an_unknown_type_mid_batch_is_a_typed_error_naming_it() {
    let reg = values::registry();
    let mut events = values::events(&reg);
    let other = SchemaRegistry::new();
    other
        .register("VANISHED", &[("A", sase_core::value::ValueType::Int)])
        .unwrap();
    events.insert(
        3,
        other
            .build_event("VANISHED", 9, vec![Value::Int(1)])
            .unwrap(),
    );
    match decoded(&encoded(&events), &reg) {
        Err(StoreError::Core(e)) => assert!(e.to_string().contains("`VANISHED`"), "{e}"),
        other => panic!("expected a schema error naming the type, got {other:?}"),
    }
    // A known type whose bytes disagree with its schema is typed too, and
    // is refused before room for the claimed attributes is reserved.
    let mut w = ByteWriter::new();
    w.u32(1);
    w.str("SHELF_READING");
    w.u64(1);
    w.u32(2);
    w.raw(&[3, 1, 3, 0]); // two bools
    match decoded(&w.into_bytes(), &reg) {
        Err(StoreError::Core(e)) => {
            assert!(e.to_string().contains("expects 3 attributes, got 2"), "{e}")
        }
        other => panic!("expected an arity error, got {other:?}"),
    }
}

/// Arities on both sides of the inline layout's three slots: padded,
/// exactly full, and spilled at several widths.
const TIER_ARITIES: [usize; 9] = [0, 1, 2, 3, 4, 8, 9, 17, 40];

const TYPES: [ValueType; 4] = [
    ValueType::Str,
    ValueType::Float,
    ValueType::Int,
    ValueType::Bool,
];

/// One type per tier, `W<arity>`, its attributes `a0, a1, …` cycling
/// through every value type.
fn tier_registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    for n in TIER_ARITIES {
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let attrs: Vec<(&str, ValueType)> = names
            .iter()
            .zip(TYPES.iter().cycle())
            .map(|(name, ty)| (name.as_str(), *ty))
            .collect();
        reg.register(&format!("W{n}"), &attrs).unwrap();
    }
    reg
}

/// Strings every batch repeats: empty, ASCII and non-ASCII.
const REPEATED: [&str; 3] = ["", "soap", "naïve ☃"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batches of events of every tier whose strings repeat (within an
    /// event, across events, and the empty string), are distinct, or are
    /// arbitrary; floats from raw bits.
    #[test]
    fn every_layout_tier_round_trips_with_shared_strings(
        picks in prop::collection::vec(
            (0..TIER_ARITIES.len(), any::<u64>(), any::<String>(), any::<u8>()),
            0..16,
        ),
    ) {
        let reg = tier_registry();
        let mut events = Vec::new();
        let mut given = Vec::new();
        for (k, (tier, bits, text, pick)) in picks.iter().enumerate() {
            let n = TIER_ARITIES[*tier];
            let attrs: Vec<Value> = (0..n)
                .map(|i| {
                    let r = *pick as usize + i;
                    match TYPES[i % 4] {
                        ValueType::Str => match r % 5 {
                            0..=2 => Value::str(REPEATED[r % 3]),
                            3 => Value::str(text),
                            _ => Value::str(format!("{text}#{k}.{i}")),
                        },
                        ValueType::Float => Value::Float(f64::from_bits(bits.rotate_left(i as u32))),
                        ValueType::Int => Value::Int(bits.rotate_right(i as u32) as i64),
                        ValueType::Bool => Value::Bool((bits >> (i % 64)) & 1 == 1),
                    }
                })
                .collect();
            events.push(reg.build_event(&format!("W{n}"), k as u64, attrs.clone()).unwrap());
            given.push(attrs);
        }

        let bytes = encoded(&events);
        let back = decoded(&bytes, &reg).unwrap();
        // Bit-exact, floats included: the re-encoding is the same bytes.
        prop_assert_eq!(encoded(&back), bytes);

        let mut shared: HashMap<&str, &Arc<str>> = HashMap::new();
        for ((b, e), attrs) in back.iter().zip(&events).zip(&given) {
            prop_assert_eq!(b.type_id(), e.type_id());
            prop_assert_eq!(b.attrs().len(), attrs.len());
            // Exactly the attributes, whatever the layout pads them to.
            let debug = format!(
                "Event {{ type: {:?}, timestamp: {}, attrs: {:?} }}",
                e.type_name(),
                e.timestamp(),
                attrs
            );
            prop_assert_eq!(format!("{b:?}"), debug);
            let shown: Vec<String> = e
                .schema()
                .attributes
                .iter()
                .zip(attrs)
                .map(|(decl, v)| format!("{}={v}", decl.name))
                .collect();
            let display = format!("{}@{}({})", e.type_name(), e.timestamp(), shown.join(", "));
            prop_assert_eq!(b.to_string(), display);
            // Equal strings within the batch are one `Arc`.
            for v in b.attrs() {
                if let Value::Str(s) = v {
                    let first = shared.entry(&**s).or_insert(s);
                    prop_assert!(Arc::ptr_eq(first, s), "{s:?} decoded twice");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One registry read per batch
// ---------------------------------------------------------------------------

/// A batch is decoded under one read of the registry, while another
/// thread redefines the batch's type back and forth and registers new
/// types. No sleeps: the two threads start together and each runs a fixed
/// number of rounds. Both finish; every decoded batch's events share the
/// one schema they were validated against, and keep it whatever the type
/// is redefined to afterwards.
#[test]
fn batches_decode_under_one_read_while_types_change() {
    const ROUNDS: usize = 300;
    let shapes: [[(&str, ValueType); 2]; 2] = [
        [("Tag", ValueType::Int), ("Note", ValueType::Str)],
        [("Id", ValueType::Int), ("Label", ValueType::Str)],
    ];
    let reg = SchemaRegistry::new();
    reg.register("FLIP", &shapes[0]).unwrap();
    let events: Vec<Event> = (0..64u64)
        .map(|k| {
            let note = if k % 2 == 0 { "even" } else { "odd" };
            reg.build_event("FLIP", k, vec![Value::Int(k as i64), Value::str(note)])
                .unwrap()
        })
        .collect();
    let bytes = encoded(&events);

    let start = Arc::new(Barrier::new(2));
    let (done, finished) = mpsc::channel();
    let writer = {
        let (reg, start, done) = (reg.clone(), Arc::clone(&start), done.clone());
        std::thread::spawn(move || {
            start.wait();
            for k in 1..=ROUNDS {
                reg.redefine("FLIP", &shapes[k % 2]).unwrap();
                reg.register(&format!("NEW{k}"), &[("X", ValueType::Int)])
                    .unwrap();
            }
            done.send(()).unwrap();
        })
    };
    let reader = {
        let reg = reg.clone();
        std::thread::spawn(move || {
            start.wait();
            let kept: Vec<Vec<Event>> = (0..ROUNDS)
                .map(|_| decoded(&bytes, &reg).unwrap())
                .collect();
            done.send(()).unwrap();
            kept
        })
    };
    for _ in 0..2 {
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("decoding and registry writes both finish");
    }
    writer.join().unwrap();
    let kept = reader.join().unwrap();
    assert_eq!(reg.len(), 1 + ROUNDS);

    for batch in &kept {
        let schema = batch[0].schema();
        let names: Vec<&str> = schema.attributes.iter().map(|a| &*a.name).collect();
        assert!(
            names == ["Tag", "Note"] || names == ["Id", "Label"],
            "{names:?}"
        );
        for (e, original) in batch.iter().zip(&events) {
            assert!(Arc::ptr_eq(e.schema(), schema), "one batch, one schema");
            let (tag, note) = (&original.attrs()[0], &original.attrs()[1]);
            assert_eq!(
                e.to_string(),
                format!(
                    "FLIP@{}({}={tag}, {}={note})",
                    e.timestamp(),
                    names[0],
                    names[1]
                )
            );
        }
    }
}
