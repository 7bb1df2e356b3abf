//! The durable, segmented, append-only event log.
//!
//! Events are appended one *record* (= one engine ingest batch, one scan
//! cycle's worth) at a time into fixed-size segment files:
//!
//! ```text
//! <dir>/seg-0000000000000000.log      records 0..n
//! <dir>/seg-000000000000n.log         records n..m
//! ...
//! ```
//!
//! ## Segment layout (big-endian)
//!
//! ```text
//! header    magic u32 (SASL) · version u16 · first_seq u64
//! records   repeated {
//!   magic   u16  0xEC0D
//!   seq     u64  record sequence number (log-wide, contiguous)
//!   tick    u64  scan cycle of the batch (non-decreasing)
//!   len     u32  payload byte length
//!   payload count u32 · count × event frame (see `codec`)
//!   crc     u32  CRC-32 over magic..payload
//! }
//! ```
//!
//! Appends are buffered; [`EventLog::commit`] flushes and fsyncs once for
//! the whole batch (fsync-on-commit batching). On reopen, a *torn tail* —
//! a final record cut short by a crash mid-write — is truncated away
//! silently; any other invalidity (bad magic, CRC mismatch, sequence gap)
//! is a typed [`StoreError::Corrupt`], never a panic: torn tails are the
//! expected crash artifact, everything else means the file was damaged and
//! silently dropping committed records would be data loss.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sase_core::event::{Event, SchemaRegistry};
use sase_core::time::Timestamp;

use crate::codec::{crc32, get_events, put_events, ByteReader, ByteWriter};
use crate::error::{Result, StoreError};

/// Segment file magic ("SASL": SASE log).
pub const SEG_MAGIC: u32 = 0x5341_534C;
/// Record frame magic.
pub const REC_MAGIC: u16 = 0xEC0D;
/// On-disk format version.
pub const LOG_VERSION: u16 = 1;
/// Segment header length in bytes.
const SEG_HEADER: u64 = 4 + 2 + 8;
/// Fixed record overhead: magic + seq + tick + len + crc.
const REC_OVERHEAD: u64 = 2 + 8 + 8 + 4 + 4;

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct LogOptions {
    /// Roll to a new segment file once the current one reaches this many
    /// bytes (a record never spans segments, so files exceed it by at most
    /// one record).
    pub segment_bytes: u64,
}

impl Default for LogOptions {
    fn default() -> Self {
        LogOptions {
            segment_bytes: 4 << 20,
        }
    }
}

/// The per-segment index entry: where a segment's records start, how many
/// there are, and the ticks they span (`append` refuses a tick below the
/// last one).
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Backing file.
    pub path: PathBuf,
    /// Sequence number of the segment's first record.
    pub first_seq: u64,
    /// Number of records in the segment.
    pub records: u64,
    /// Tick of the first record, if any.
    pub first_tick: Option<Timestamp>,
    /// Tick of the last record, if any.
    pub last_tick: Option<Timestamp>,
    /// Valid bytes (header + whole records).
    pub bytes: u64,
}

impl SegmentInfo {
    /// Sequence number one past the segment's last record.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.records
    }
}

/// One decoded log record: a batch of events ingested at one tick.
#[derive(Debug, Clone)]
pub struct Record {
    /// Log-wide record sequence number.
    pub seq: u64,
    /// The batch's scan cycle.
    pub tick: Timestamp,
    /// The batch's events, in ingest order.
    pub events: Vec<Event>,
}

fn segment_file_name(first_seq: u64) -> String {
    format!("seg-{first_seq:016x}.log")
}

fn sync_dir(dir: &Path) -> Result<()> {
    // Persist directory entries (new segment files, renames). Directories
    // open read-only on the platforms this targets.
    let d = File::open(dir).map_err(|e| StoreError::io(dir, "open dir", e))?;
    d.sync_all()
        .map_err(|e| StoreError::io(dir, "fsync dir", e))
}

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
    records: u64,
    first_tick: Option<Timestamp>,
    last_tick: Option<Timestamp>,
    /// Bytes covered by the header plus whole valid records.
    valid_len: u64,
    /// True when trailing bytes past `valid_len` form an incomplete record
    /// (crash artifact), as opposed to the buffer ending exactly at a
    /// record boundary.
    torn_tail: bool,
}

/// Validate a segment's header and scan its records.
///
/// `strict_tail` rejects a torn tail (non-last segments can only end torn
/// if the file was damaged).
fn scan_segment(
    path: &Path,
    bytes: &[u8],
    expect_first_seq: u64,
    mut last_tick: Option<Timestamp>,
    strict_tail: bool,
) -> Result<SegmentScan> {
    let corrupt = |offset: u64, detail: String| StoreError::corrupt(path, offset, detail);
    if bytes.len() < SEG_HEADER as usize {
        return Err(corrupt(0, "segment shorter than its header".into()));
    }
    let mut r = ByteReader::new(&bytes[..SEG_HEADER as usize]);
    let magic = r.u32().expect("header length checked");
    if magic != SEG_MAGIC {
        return Err(corrupt(0, format!("bad segment magic {magic:#010x}")));
    }
    let version = r.u16().expect("header length checked");
    if version != LOG_VERSION {
        return Err(corrupt(4, format!("unsupported log version {version}")));
    }
    let first_seq = r.u64().expect("header length checked");
    if first_seq != expect_first_seq {
        return Err(corrupt(
            6,
            format!("segment claims first seq {first_seq}, expected {expect_first_seq}"),
        ));
    }

    let mut pos = SEG_HEADER as usize;
    let mut records = 0u64;
    let mut first_tick = None;
    loop {
        if pos == bytes.len() {
            return Ok(SegmentScan {
                records,
                first_tick,
                last_tick,
                valid_len: pos as u64,
                torn_tail: false,
            });
        }
        let remaining = bytes.len() - pos;
        let torn = |detail: &str| -> Result<SegmentScan> {
            if strict_tail {
                Err(corrupt(pos as u64, format!("torn record ({detail})")))
            } else {
                Ok(SegmentScan {
                    records,
                    first_tick,
                    last_tick,
                    valid_len: pos as u64,
                    torn_tail: true,
                })
            }
        };
        if (remaining as u64) < REC_OVERHEAD {
            return torn("incomplete frame header");
        }
        let mut r = ByteReader::new(&bytes[pos..]);
        let magic = r.u16().expect("length checked");
        if magic != REC_MAGIC {
            return Err(corrupt(
                pos as u64,
                format!("bad record magic {magic:#06x}"),
            ));
        }
        let seq = r.u64().expect("length checked");
        let tick = r.u64().expect("length checked");
        let len = r.u32().expect("length checked") as u64;
        let total = REC_OVERHEAD + len;
        if (remaining as u64) < total {
            return torn("payload cut short");
        }
        let body = &bytes[pos..pos + (total - 4) as usize];
        let stored_crc = u32::from_be_bytes(
            bytes[pos + (total - 4) as usize..pos + total as usize]
                .try_into()
                .expect("length checked"),
        );
        if crc32(body) != stored_crc {
            return Err(corrupt(pos as u64, "record CRC mismatch".into()));
        }
        let expect_seq = expect_first_seq + records;
        if seq != expect_seq {
            return Err(corrupt(
                pos as u64,
                format!("record seq {seq}, expected {expect_seq}"),
            ));
        }
        if let Some(last) = last_tick {
            if tick < last {
                return Err(corrupt(
                    pos as u64,
                    format!("tick {tick} regresses below {last}"),
                ));
            }
        }
        first_tick.get_or_insert(tick);
        last_tick = Some(tick);
        records += 1;
        pos += total as usize;
    }
}

/// Pre-resolved WAL metric handles (`sase_wal_*` series): append and
/// fsync latency histograms, batch-size distribution, and byte/record
/// counters. Resolve once with [`WalMetrics::new`] and attach via
/// [`EventLog::set_metrics`]; after that the append/commit paths record
/// through the handles without touching the registry.
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Records appended (`sase_wal_append_total`).
    pub appends: sase_obs::Counter,
    /// Events across all appended records (`sase_wal_append_events_total`).
    pub appended_events: sase_obs::Counter,
    /// Encoded bytes written (`sase_wal_append_bytes_total`).
    pub appended_bytes: sase_obs::Counter,
    /// Wall-clock ns per append (`sase_wal_append_latency_ns`).
    pub append_latency_ns: sase_obs::Histogram,
    /// Events per appended record (`sase_wal_append_batch_events`).
    pub batch_events: sase_obs::Histogram,
    /// Commits — flush + fsync (`sase_wal_fsync_total`).
    pub fsyncs: sase_obs::Counter,
    /// Wall-clock ns per commit (`sase_wal_fsync_latency_ns`).
    pub fsync_latency_ns: sase_obs::Histogram,
}

impl WalMetrics {
    /// Resolve the `sase_wal_*` series in `registry`.
    pub fn new(registry: &sase_obs::MetricsRegistry) -> Self {
        WalMetrics {
            appends: registry.counter("sase_wal_append_total", &[]),
            appended_events: registry.counter("sase_wal_append_events_total", &[]),
            appended_bytes: registry.counter("sase_wal_append_bytes_total", &[]),
            append_latency_ns: registry.histogram("sase_wal_append_latency_ns", &[]),
            batch_events: registry.histogram("sase_wal_append_batch_events", &[]),
            fsyncs: registry.counter("sase_wal_fsync_total", &[]),
            fsync_latency_ns: registry.histogram("sase_wal_fsync_latency_ns", &[]),
        }
    }
}

/// The durable, segmented, append-only event log.
pub struct EventLog {
    dir: PathBuf,
    opts: LogOptions,
    segments: Vec<SegmentInfo>,
    writer: BufWriter<File>,
    next_seq: u64,
    uncommitted: u64,
    metrics: Option<WalMetrics>,
}

impl EventLog {
    /// Open (or create) the log in `dir`, validating every segment. A torn
    /// tail on the last segment — the normal artifact of a crash between
    /// `append` and `commit` — is truncated away; any other damage is a
    /// typed [`StoreError::Corrupt`].
    pub fn open(dir: impl Into<PathBuf>, opts: LogOptions) -> Result<EventLog> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, "create dir", e))?;

        let mut firsts: Vec<u64> = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, "read dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&dir, "read dir", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                let first = u64::from_str_radix(hex, 16).map_err(|_| {
                    StoreError::corrupt(entry.path(), 0, "unparseable segment file name")
                })?;
                firsts.push(first);
            }
        }
        firsts.sort_unstable();

        if firsts.is_empty() {
            let info = create_segment(&dir, 0)?;
            sync_dir(&dir)?;
            let writer = open_for_append(&info.path, info.bytes)?;
            return Ok(EventLog {
                dir,
                opts,
                segments: vec![info],
                writer,
                next_seq: 0,
                uncommitted: 0,
                metrics: None,
            });
        }

        let mut segments = Vec::with_capacity(firsts.len());
        let mut expect_seq = firsts[0];
        if expect_seq != 0 {
            let path = dir.join(segment_file_name(firsts[0]));
            return Err(StoreError::corrupt(
                path,
                0,
                format!("log starts at seq {expect_seq}, segment files are missing"),
            ));
        }
        let mut last_tick = None;
        let mut truncate_to: Option<u64> = None;
        let last_idx = firsts.len() - 1;
        for (i, first) in firsts.iter().enumerate() {
            let path = dir.join(segment_file_name(*first));
            if *first != expect_seq {
                return Err(StoreError::corrupt(
                    &path,
                    0,
                    format!("segment starts at seq {first}, expected {expect_seq}"),
                ));
            }
            let mut bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, "read", e))?;
            if i == last_idx && bytes.len() < SEG_HEADER as usize {
                // A crash during segment creation can leave a partial
                // header; the header is fully determined by the file name,
                // so rewrite it rather than reporting corruption.
                let mut header = ByteWriter::new();
                header.u32(SEG_MAGIC);
                header.u16(LOG_VERSION);
                header.u64(*first);
                bytes = header.into_bytes();
                std::fs::write(&path, &bytes).map_err(|e| StoreError::io(&path, "write", e))?;
            }
            let scan = scan_segment(&path, &bytes, *first, last_tick, i != last_idx)?;
            if scan.torn_tail {
                truncate_to = Some(scan.valid_len);
            }
            last_tick = scan.last_tick.or(last_tick);
            expect_seq = first + scan.records;
            segments.push(SegmentInfo {
                path,
                first_seq: *first,
                records: scan.records,
                first_tick: scan.first_tick,
                last_tick: scan.last_tick,
                bytes: scan.valid_len,
            });
        }

        let last = segments.last().expect("at least one segment");
        if let Some(valid) = truncate_to {
            let f = OpenOptions::new()
                .write(true)
                .open(&last.path)
                .map_err(|e| StoreError::io(&last.path, "open", e))?;
            f.set_len(valid)
                .map_err(|e| StoreError::io(&last.path, "truncate", e))?;
            f.sync_all()
                .map_err(|e| StoreError::io(&last.path, "fsync", e))?;
        }
        let writer = open_for_append(&last.path, last.bytes)?;
        Ok(EventLog {
            dir,
            opts,
            next_seq: expect_seq,
            segments,
            writer,
            uncommitted: 0,
            metrics: None,
        })
    }

    /// Attach pre-resolved WAL metric handles: every subsequent
    /// [`EventLog::append`] / [`EventLog::commit`] records its latency,
    /// sizes, and counts through them.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// The directory backing this log.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next appended record will get (= total records
    /// ever appended).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The segment index, oldest first.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// Tick of the most recent record, if any.
    pub fn last_tick(&self) -> Option<Timestamp> {
        self.segments.iter().rev().find_map(|s| s.last_tick)
    }

    /// Records appended since the last [`EventLog::commit`].
    pub fn uncommitted(&self) -> u64 {
        self.uncommitted
    }

    /// Append one batch of events as a record. Ticks must be
    /// non-decreasing across appends (batches arrive in scan-cycle order).
    /// Returns the record's sequence number.
    ///
    /// The record is buffered; it is durable only after
    /// [`EventLog::commit`] returns.
    pub fn append(&mut self, tick: Timestamp, events: &[Event]) -> Result<u64> {
        let t0 = self.metrics.as_ref().map(|_| std::time::Instant::now());
        if let Some(last) = self.last_tick() {
            if tick < last {
                return Err(StoreError::InvalidArgument(format!(
                    "tick {tick} regresses below the log's last tick {last}"
                )));
            }
        }
        let current = self.segments.last().expect("log always has a segment");
        if current.records > 0 && current.bytes >= self.opts.segment_bytes {
            self.roll()?;
        }

        // Header, payload and CRC are built in one buffer.
        let mut rec = ByteWriter::new();
        rec.u16(REC_MAGIC);
        rec.u64(self.next_seq);
        rec.u64(tick);
        rec.len_prefixed(|payload| put_events(payload, events));
        rec.u32(crc32(rec.as_slice()));
        let bytes = rec.into_bytes();

        let current = self.segments.last_mut().expect("log always has a segment");
        self.writer
            .write_all(&bytes)
            .map_err(|e| StoreError::io(&current.path, "write", e))?;
        current.bytes += bytes.len() as u64;
        current.records += 1;
        current.first_tick.get_or_insert(tick);
        current.last_tick = Some(tick);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.uncommitted += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.appended_events.add(events.len() as u64);
            m.appended_bytes.add(bytes.len() as u64);
            m.batch_events.record(events.len() as u64);
            if let Some(t0) = t0 {
                m.append_latency_ns.record_duration(t0.elapsed());
            }
        }
        Ok(seq)
    }

    /// Flush buffered records and fsync the current segment: everything
    /// appended so far is durable when this returns. One fsync covers any
    /// number of appends (fsync-on-commit batching).
    pub fn commit(&mut self) -> Result<()> {
        let t0 = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let path = &self.segments.last().expect("always a segment").path;
        self.writer
            .flush()
            .map_err(|e| StoreError::io(path, "flush", e))?;
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| StoreError::io(path, "fsync", e))?;
        self.uncommitted = 0;
        if let Some(m) = &self.metrics {
            m.fsyncs.inc();
            if let Some(t0) = t0 {
                m.fsync_latency_ns.record_duration(t0.elapsed());
            }
        }
        Ok(())
    }

    /// Close the current segment and start a new one at the current
    /// sequence number.
    fn roll(&mut self) -> Result<()> {
        self.commit()?;
        let info = create_segment(&self.dir, self.next_seq)?;
        sync_dir(&self.dir)?;
        self.writer = open_for_append(&info.path, info.bytes)?;
        self.segments.push(info);
        Ok(())
    }

    /// Replay every record with `seq >= from_seq`, in order. Buffered
    /// appends are flushed first so the iterator sees them (they may still
    /// be undurable until [`EventLog::commit`]).
    pub fn replay_from(&mut self, registry: &SchemaRegistry, from_seq: u64) -> Result<LogIter> {
        self.flush_for_read()?;
        let files = self
            .segments
            .iter()
            .filter(|s| s.end_seq() > from_seq)
            .map(|s| (s.path.clone(), s.first_seq))
            .collect();
        Ok(LogIter::new(registry.clone(), files, from_seq))
    }

    fn flush_for_read(&mut self) -> Result<()> {
        let path = &self.segments.last().expect("always a segment").path;
        self.writer
            .flush()
            .map_err(|e| StoreError::io(path, "flush", e))
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("next_seq", &self.next_seq)
            .field("uncommitted", &self.uncommitted)
            .finish()
    }
}

fn create_segment(dir: &Path, first_seq: u64) -> Result<SegmentInfo> {
    let path = dir.join(segment_file_name(first_seq));
    let mut header = ByteWriter::new();
    header.u32(SEG_MAGIC);
    header.u16(LOG_VERSION);
    header.u64(first_seq);
    let mut f = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| StoreError::io(&path, "create", e))?;
    f.write_all(&header.into_bytes())
        .map_err(|e| StoreError::io(&path, "write", e))?;
    f.sync_all()
        .map_err(|e| StoreError::io(&path, "fsync", e))?;
    Ok(SegmentInfo {
        path,
        first_seq,
        records: 0,
        first_tick: None,
        last_tick: None,
        bytes: SEG_HEADER,
    })
}

fn open_for_append(path: &Path, at: u64) -> Result<BufWriter<File>> {
    let mut f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io(path, "open", e))?;
    f.seek(SeekFrom::Start(at))
        .map_err(|e| StoreError::io(path, "seek", e))?;
    Ok(BufWriter::new(f))
}

/// Ordered iterator over log records; each item re-validates its frame, so
/// damage that appeared after open is still surfaced as a typed error.
pub struct LogIter {
    registry: SchemaRegistry,
    files: VecDeque<(PathBuf, u64)>,
    from_seq: u64,
    current: Option<(PathBuf, Vec<u8>, usize, u64)>,
    failed: bool,
}

impl LogIter {
    fn new(registry: SchemaRegistry, files: VecDeque<(PathBuf, u64)>, from_seq: u64) -> LogIter {
        LogIter {
            registry,
            files,
            from_seq,
            current: None,
            failed: false,
        }
    }

    fn next_record(&mut self) -> Result<Option<Record>> {
        loop {
            if self.current.is_none() {
                let Some((path, first_seq)) = self.files.pop_front() else {
                    return Ok(None);
                };
                let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, "read", e))?;
                if bytes.len() < SEG_HEADER as usize {
                    return Err(StoreError::corrupt(&path, 0, "segment shorter than header"));
                }
                self.current = Some((path, bytes, SEG_HEADER as usize, first_seq));
            }
            let (path, bytes, pos, _) = self.current.as_mut().expect("set above");
            if *pos >= bytes.len() {
                self.current = None;
                continue;
            }
            let at = *pos as u64;
            let mut r = ByteReader::new(&bytes[*pos..]);
            let frame = (|| -> Result<(u64, u64, u64)> {
                let magic = r.u16()?;
                if magic != REC_MAGIC {
                    return Err(StoreError::Decode(format!("bad record magic {magic:#06x}")));
                }
                let seq = r.u64()?;
                let tick = r.u64()?;
                let len = r.u32()? as u64;
                Ok((seq, tick, len))
            })();
            let (seq, tick, len) = match frame {
                Ok(t) => t,
                Err(e) => return Err(StoreError::corrupt(&*path, at, e.to_string())),
            };
            let total = (REC_OVERHEAD + len) as usize;
            if bytes.len() - *pos < total {
                return Err(StoreError::corrupt(&*path, at, "record cut short"));
            }
            let body = &bytes[*pos..*pos + total - 4];
            let stored_crc =
                u32::from_be_bytes(bytes[*pos + total - 4..*pos + total].try_into().unwrap());
            if crc32(body) != stored_crc {
                return Err(StoreError::corrupt(&*path, at, "record CRC mismatch"));
            }
            let payload = &bytes[*pos + (REC_OVERHEAD as usize - 4)..*pos + total - 4];
            *pos += total;

            if seq < self.from_seq {
                continue;
            }
            let mut pr = ByteReader::new(payload);
            let decoded = get_events(&mut pr, &self.registry)
                .and_then(|events| pr.expect_end().map(|()| events));
            let events = match decoded {
                Ok(events) => events,
                Err(StoreError::Core(e)) => return Err(StoreError::Core(e)),
                Err(e) => return Err(StoreError::corrupt(&*path, at, e.to_string())),
            };
            return Ok(Some(Record { seq, tick, events }));
        }
    }
}

impl Iterator for LogIter {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::event::retail_registry;
    use sase_core::value::Value;

    fn tmp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sase-store-log-{}-{label}", std::process::id()));
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

    #[test]
    fn append_commit_replay_round_trip() {
        let dir = tmp_dir("roundtrip");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.next_seq(), 0);
        for tick in 0..10u64 {
            let batch = vec![ev(&reg, tick * 2, 1), ev(&reg, tick * 2 + 1, 2)];
            let seq = log.append(tick, &batch).unwrap();
            assert_eq!(seq, tick);
        }
        log.commit().unwrap();
        assert_eq!(log.uncommitted(), 0);

        let records: Vec<Record> = log
            .replay_from(&reg, 0)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[3].seq, 3);
        assert_eq!(records[3].tick, 3);
        assert_eq!(records[3].events.len(), 2);
        assert_eq!(records[3].events[0].timestamp(), 6);

        // Partial replay.
        let tail: Vec<Record> = log
            .replay_from(&reg, 7)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].seq, 7);

        // Reopen sees the same contents.
        drop(log);
        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.next_seq(), 10);
        assert_eq!(log.last_tick(), Some(9));
        let records: Vec<Record> = log
            .replay_from(&reg, 0)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_index_tracks_ticks() {
        let dir = tmp_dir("roll");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions { segment_bytes: 256 }).unwrap();
        for tick in 0..40u64 {
            log.append(tick, &[ev(&reg, tick, 1)]).unwrap();
        }
        log.commit().unwrap();
        assert!(log.segments().len() > 1, "256-byte segments must roll");
        for w in log.segments().windows(2) {
            assert_eq!(w[0].end_seq(), w[1].first_seq);
            assert!(w[0].last_tick <= w[1].first_tick);
        }
        let total: u64 = log.segments().iter().map(|s| s.records).sum();
        assert_eq!(total, 40);

        drop(log);
        let log = EventLog::open(&dir, LogOptions { segment_bytes: 256 }).unwrap();
        assert_eq!(log.next_seq(), 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tick_regression_rejected() {
        let dir = tmp_dir("tickreg");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        log.append(5, &[ev(&reg, 5, 1)]).unwrap();
        let err = log.append(4, &[ev(&reg, 6, 1)]).unwrap_err();
        assert!(matches!(err, StoreError::InvalidArgument(_)));
        // Equal ticks are fine (several batches per scan cycle).
        log.append(5, &[ev(&reg, 7, 1)]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tmp_dir("torn");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        for tick in 0..5u64 {
            log.append(tick, &[ev(&reg, tick, 1)]).unwrap();
        }
        log.commit().unwrap();
        let path = log.segments()[0].path.clone();
        let full = log.segments()[0].bytes;
        drop(log);

        // Cut 3 bytes into the last record.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.next_seq(), 4, "the torn record is gone");
        let records: Vec<Record> = log
            .replay_from(&reg, 0)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 4);

        // And the log keeps working: the next append reuses seq 4.
        let seq = log.append(9, &[ev(&reg, 9, 1)]).unwrap();
        assert_eq!(seq, 4);
        log.commit().unwrap();
        drop(log);
        let log = EventLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.next_seq(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        for tick in 0..5u64 {
            log.append(tick, &[ev(&reg, tick, 1)]).unwrap();
        }
        log.commit().unwrap();
        let path = log.segments()[0].path.clone();
        drop(log);

        // Flip one payload byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let err = EventLog::open(&dir, LogOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_middle_segment_is_detected() {
        let dir = tmp_dir("gap");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions { segment_bytes: 128 }).unwrap();
        for tick in 0..30u64 {
            log.append(tick, &[ev(&reg, tick, 1)]).unwrap();
        }
        log.commit().unwrap();
        assert!(log.segments().len() >= 3);
        let victim = log.segments()[1].path.clone();
        drop(log);
        std::fs::remove_file(&victim).unwrap();
        let err = EventLog::open(&dir, LogOptions { segment_bytes: 128 }).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_batches_are_valid_records() {
        let dir = tmp_dir("empty");
        let reg = retail_registry();
        let mut log = EventLog::open(&dir, LogOptions::default()).unwrap();
        log.append(1, &[]).unwrap();
        log.append(2, &[ev(&reg, 2, 1)]).unwrap();
        log.commit().unwrap();
        let records: Vec<Record> = log
            .replay_from(&reg, 0)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert!(records[0].events.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
