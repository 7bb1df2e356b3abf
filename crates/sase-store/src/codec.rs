//! Hand-rolled binary codec for events and engine snapshots.
//!
//! The same framing discipline as `sase-rfid::wire` — length-prefixed
//! big-endian frames, no self-describing metadata, strict rejection of
//! trailing bytes — extended to the richer payloads the store persists:
//! [`Value`]s, events, and complete [`EngineSnapshot`]s. There is no serde
//! in this workspace (the vendor shims do not include it); every layout
//! here is explicit and versioned by the containing file format.
//!
//! All integers are big-endian. Collections are `u32`-count-prefixed;
//! strings are UTF-8 with a `u32` byte length.

use std::collections::HashSet; // input-keyed: std hasher
use std::sync::Arc;

use sase_core::event::{Event, RegistryRead, SchemaRegistry};
use sase_core::runtime::RuntimeStats;
use sase_core::snapshot::{
    DerivedStreamSnapshot, EngineSnapshot, EntrySnapshot, EventSnapshot, Place, QuerySnapshot,
};
use sase_core::value::{Value, ValueKey, ValueType};

use crate::error::{Result, StoreError};

/// Slicing-by-8 tables for CRC-32 (IEEE 802.3), built at compile time.
/// `CRC_TABLES[0]` is the classic one-byte table; `CRC_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which is what lets
/// eight input bytes be folded in with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of a byte slice: the IEEE 802.3 / zlib checksum — polynomial
/// `0x04C11DB7` processed reflected (`0xEDB88320`), initial value and final
/// XOR `0xFFFFFFFF`, check value `crc32(b"123456789") == 0xCBF43926`.
///
/// Every frame, log record and checkpoint is summed with it, so it runs
/// over each byte that crosses a socket or reaches the log. The kernel is
/// slicing-by-8: eight bytes are folded per step through eight
/// compile-time tables whose lookups do not depend on one another, in
/// place of the bytewise loop's one dependent lookup per byte; the 0..=7
/// byte tail takes the bytewise step. It stays safe Rust — `chunks_exact`
/// hands the compiler the lengths, the table indices are `u8`-ranged — so
/// it runs identically on every target the workspace builds for, with no
/// intrinsics and no feature detection to get wrong.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Make room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Write what `body` writes behind a big-endian `u32` holding its
    /// encoded length. The prefix is filled in once the body is there, so
    /// prefix, body and whatever follows share this one buffer — no body
    /// is encoded into a `Vec` of its own to learn its length.
    pub fn len_prefixed(&mut self, body: impl FnOnce(&mut ByteWriter)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes (no prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked byte source for decoding; every underrun is a typed
/// [`StoreError::Decode`], never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fail unless every byte has been consumed — the store's equivalent
    /// of `WireError::TrailingBytes`.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Decode(format!(
                "{} trailing bytes after frame",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Decode(format!(
                "unexpected end of frame: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a big-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer
    /// (validated in place, nothing copied).
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StoreError::Decode("string is not valid UTF-8".into()))
    }

    /// Read a length-prefixed UTF-8 string into an owned `String`.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// A collection count, sanity-bounded by the bytes actually available
    /// (each element needs at least one byte) so a corrupt count cannot
    /// trigger a huge allocation.
    pub fn count(&mut self) -> Result<usize> {
        self.count_of(1)
    }

    /// A count of elements that each occupy at least `min_bytes` encoded
    /// bytes: the tighter bound for elements with a fixed-size header, so
    /// the `Vec` reserved for them stays within the size of the input.
    pub fn count_of(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_bytes {
            return Err(StoreError::Decode(format!(
                "collection count {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Values and events
// ---------------------------------------------------------------------------

/// Encode one [`Value`] (1-byte tag + payload). Shared by the store's
/// snapshot codec and the `sase-server` wire protocol, which reuses this
/// framing discipline for its own payloads.
pub fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Float(x) => {
            w.u8(1);
            w.u64(x.to_bits());
        }
        Value::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(3);
            w.u8(u8::from(*b));
        }
    }
}

/// Decode one [`Value`] written by [`put_value`].
pub fn get_value(r: &mut ByteReader<'_>) -> Result<Value> {
    get_value_with(r, Arc::from)
}

/// [`get_value`], with `string` turning a string value's bytes, borrowed
/// from `r`'s buffer, into its `Arc<str>`.
fn get_value_with<'a>(
    r: &mut ByteReader<'a>,
    string: impl FnOnce(&'a str) -> Arc<str>,
) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Int(r.i64()?),
        1 => Value::Float(f64::from_bits(r.u64()?)),
        2 => Value::Str(string(r.str_ref()?)),
        3 => Value::Bool(r.u8()? != 0),
        t => return Err(StoreError::Decode(format!("unknown value tag {t}"))),
    })
}

fn get_value_key(r: &mut ByteReader<'_>) -> Result<ValueKey> {
    Ok(match r.u8()? {
        0 => ValueKey::Int(r.i64()?),
        1 => ValueKey::Float(r.u64()?),
        2 => ValueKey::Str(r.str_ref()?.into()),
        3 => ValueKey::Bool(r.u8()? != 0),
        t => return Err(StoreError::Decode(format!("unknown value-key tag {t}"))),
    })
}

fn put_value_type(w: &mut ByteWriter, t: ValueType) {
    w.u8(match t {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    });
}

fn get_value_type(r: &mut ByteReader<'_>) -> Result<ValueType> {
    Ok(match r.u8()? {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Str,
        3 => ValueType::Bool,
        t => return Err(StoreError::Decode(format!("unknown value-type tag {t}"))),
    })
}

/// Fewest bytes one encoded event can occupy: name length, timestamp,
/// attribute count.
const EVENT_MIN_BYTES: usize = 4 + 8 + 4;

/// Encode one live event (by type name, so the frame is portable across
/// process restarts).
pub fn put_event(w: &mut ByteWriter, e: &Event) {
    w.str(e.type_name());
    w.u64(e.timestamp());
    w.u32(e.attrs().len() as u32);
    for v in e.attrs() {
        put_value(w, v);
    }
}

/// Encode a batch of events as `count u32 · count × event` — the body of
/// an ingest frame and the payload of a log record — reserving once for
/// the whole batch from the size of its first event.
pub fn put_events(w: &mut ByteWriter, events: &[Event]) {
    w.u32(events.len() as u32);
    let Some((first, rest)) = events.split_first() else {
        return;
    };
    let before = w.len();
    put_event(w, first);
    w.reserve((w.len() - before) * rest.len());
    for e in rest {
        put_event(w, e);
    }
}

/// Decode one event written by [`put_event`], resolving its type against
/// `registry`: a batch of one, decoded as [`get_events`] decodes each
/// event of a batch.
///
/// Nothing is copied out of the payload that the event does not keep: the
/// type name is read as a `&str` borrowed from `r`'s buffer and only
/// looked up, and a string attribute goes from the borrowed slice straight
/// into its `Arc<str>`. The attribute count is checked against the
/// schema's arity before any value is read, and each value is read
/// straight into its slot in the event
/// ([`ResolvedType::build_event_with`](sase_core::event::ResolvedType::build_event_with)),
/// which validates arity and attribute types exactly as
/// `SchemaRegistry::build_event` does; an unregistered type is a
/// [`StoreError::Core`] naming it. An event of up to three attributes is
/// one allocation (a wider one, two), plus one per string attribute whose
/// text the frame has not carried before.
///
/// Types are not remembered from one event of a frame to the next: a map
/// from the names a frame has used to their resolved types was measured
/// on `serve_wire` (128 types over 512-event batches, each named about
/// four times) and made no difference to any end-to-end metric. What a
/// frame does share is the registry *read*: [`get_events`] takes the read
/// lock once for the whole frame ([`SchemaRegistry::read`]) and resolves
/// every name under it, instead of taking the lock once per event. Each
/// name is still looked up, so there is no cache to fill, to miss, or to
/// go stale; the saving is the per-event lock traffic and the per-event
/// reference count of the resolved schema, not the lookup.
pub fn get_event(r: &mut ByteReader<'_>, registry: &SchemaRegistry) -> Result<Event> {
    Frame::new(registry.read(), 1, r).event(r)
}

/// Decode a batch written by [`put_events`]: the body of an ingest frame
/// and of a log record.
///
/// The whole batch is decoded under one read of `registry` (see
/// [`get_event`]; nothing here calls back into the registry while the read
/// is held, which [`RegistryRead`] requires), and a string value that
/// repeats within the batch is one `Arc<str>` shared by every event that
/// carries it. So a batch of `n` events of up to three attributes carrying
/// `d` distinct strings costs `n + d` allocations for its events, plus the
/// batch's `Vec` and, if it holds a string, its string table: one
/// allocation, with room for a distinct string per event (or per 48 bytes
/// of the batch, if that is fewer), grown only by a batch that carries
/// more.
pub fn get_events(r: &mut ByteReader<'_>, registry: &SchemaRegistry) -> Result<Vec<Event>> {
    let n = r.count_of(EVENT_MIN_BYTES)?;
    let mut frame = Frame::new(registry.read(), n, r);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(frame.event(r)?);
    }
    Ok(events)
}

/// Bytes of batch that pay for one slot of its string table when the table
/// is first reserved. A slot is one `Arc<str>` and a control byte, and
/// rounding up to a power of two at most doubles the slots, so a table
/// reserved at this rate stays within the bytes that sized it (bar the
/// smallest table, 84 bytes), whatever count a damaged batch claims; and a
/// batch whose events average 48 bytes or more (a three-attribute reading
/// is about 55) still gets room for a distinct string in every event.
const STRING_SLOT_BYTES: usize = 48;

/// What the events of one batch share while it is decoded: one registry
/// read, and the batch's distinct string values.
struct Frame<'r> {
    types: RegistryRead<'r>,
    /// Empty until the batch's first string, then reserved for `slots`.
    /// Its keys are bytes from outside the program, so it keeps std's
    /// keyed hasher: under FxHash, strings crafted to collide would make
    /// their batch's decode quadratic. (Measured against FxHash: no slower.)
    strings: HashSet<Arc<str>>, // input-keyed: std hasher
    slots: usize,
}

impl<'r> Frame<'r> {
    /// A batch of `events` events, whose bytes are what `r` has left.
    fn new(types: RegistryRead<'r>, events: usize, r: &ByteReader<'_>) -> Self {
        Frame {
            types,
            strings: HashSet::new(),
            slots: events.min(r.remaining() / STRING_SLOT_BYTES),
        }
    }

    fn event(&mut self, r: &mut ByteReader<'_>) -> Result<Event> {
        let ty = self.types.resolve(r.str_ref()?)?;
        let ts = r.u64()?;
        ty.check_arity(r.count()?)?;
        let (strings, slots) = (&mut self.strings, self.slots);
        ty.build_event_with(ts, |_| {
            get_value_with(r, |s| {
                if let Some(shared) = strings.get(s) {
                    return Arc::clone(shared);
                }
                if strings.capacity() == 0 {
                    strings.reserve(slots);
                }
                let shared: Arc<str> = Arc::from(s);
                strings.insert(Arc::clone(&shared));
                shared
            })
        })
    }
}

fn put_event_snapshot(w: &mut ByteWriter, e: &EventSnapshot) {
    w.str(&e.type_name);
    w.u64(e.timestamp);
    w.u32(e.attrs.len() as u32);
    for v in &e.attrs {
        put_value(w, v);
    }
}

/// Fewest bytes one encoded value can occupy: a tag and a `bool`.
const VALUE_MIN_BYTES: usize = 2;

fn get_event_snapshot(r: &mut ByteReader<'_>) -> Result<EventSnapshot> {
    let type_name = r.str()?;
    let timestamp = r.u64()?;
    let n = r.count_of(VALUE_MIN_BYTES)?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        attrs.push(get_value(r)?);
    }
    Ok(EventSnapshot {
        type_name,
        timestamp,
        attrs,
    })
}

// ---------------------------------------------------------------------------
// Engine snapshots
// ---------------------------------------------------------------------------

/// Number of counter fields in [`RuntimeStats`]; bump alongside the struct
/// and the checkpoint version.
const STATS_FIELDS: u32 = 10;

/// The counter count of a version-2 checkpoint, which kept no
/// `eval_errors`.
const V2_STATS_FIELDS: u32 = 9;

/// Encode a query's [`RuntimeStats`]: the counter count, then each counter
/// in declaration order. Checkpoints and the server's Stats frame share it.
pub fn put_stats(w: &mut ByteWriter, s: &RuntimeStats) {
    w.u32(STATS_FIELDS);
    for v in [
        s.events_processed,
        s.instances_appended,
        s.instances_pruned,
        s.sequences_constructed,
        s.construction_filter_rejects,
        s.dropped_by_negation,
        s.negation_candidates_buffered,
        s.matches_emitted,
        s.partitions,
        s.eval_errors,
    ] {
        w.u64(v);
    }
}

/// Decode what [`put_stats`] wrote; a counter count other than this
/// build's is a decode error.
pub fn get_stats(r: &mut ByteReader<'_>) -> Result<RuntimeStats> {
    get_stats_of(r, STATS_FIELDS)
}

/// Decode a counter count that must be `fields`, then that many counters
/// in declaration order; the counters an older format lacks read as 0.
fn get_stats_of(r: &mut ByteReader<'_>, fields: u32) -> Result<RuntimeStats> {
    let n = r.u32()?;
    if n != fields {
        return Err(StoreError::Decode(format!(
            "{n} stat counters, expected {fields}"
        )));
    }
    let mut c = [0; STATS_FIELDS as usize];
    for v in &mut c[..n as usize] {
        *v = r.u64()?;
    }
    Ok(stats_of(c))
}

/// The counters in declaration order as [`RuntimeStats`].
fn stats_of(c: [u64; STATS_FIELDS as usize]) -> RuntimeStats {
    RuntimeStats {
        events_processed: c[0],
        instances_appended: c[1],
        instances_pruned: c[2],
        sequences_constructed: c[3],
        construction_filter_rejects: c[4],
        dropped_by_negation: c[5],
        negation_candidates_buffered: c[6],
        matches_emitted: c[7],
        partitions: c[8],
        eval_errors: c[9],
    }
}

fn get_opt_ts(r: &mut ByteReader<'_>) -> Result<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(StoreError::Decode(format!("unknown option tag {t}"))),
    }
}

/// Fewest bytes one encoded entry occupies: event index, place tag and
/// place index.
const ENTRY_MIN_BYTES: usize = 4 + 1 + 4;

/// Fewest bytes one encoded query with `fields` counters occupies: name
/// length, stats, clock tag, sweep phase and entry count.
const fn query_min_bytes(fields: u32) -> usize {
    4 + 4 + 8 * fields as usize + 1 + 8 + 4
}

/// Encode a complete engine snapshot into `w`: the event table, the
/// queries with their entries, the stream clocks and the derived streams.
pub fn put_engine_snapshot(w: &mut ByteWriter, snap: &EngineSnapshot) {
    w.u32(snap.events.len() as u32);
    for e in &snap.events {
        put_event_snapshot(w, e);
    }
    w.u32(snap.queries.len() as u32);
    for q in &snap.queries {
        w.str(&q.name);
        put_stats(w, &q.stats);
        match q.last_ts {
            None => w.u8(0),
            Some(ts) => {
                w.u8(1);
                w.u64(ts);
            }
        }
        w.u64(q.events_since_sweep);
        w.u32(q.entries.len() as u32);
        for entry in &q.entries {
            w.u32(entry.event);
            let (tag, i) = match entry.place {
                Place::Stack(i) => (0, i),
                Place::Negation(i) => (1, i),
            };
            w.u8(tag);
            w.u32(i);
        }
    }
    w.u32(snap.stream_clocks.len() as u32);
    for (stream, ts) in &snap.stream_clocks {
        match stream {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                w.str(s);
            }
        }
        w.u64(*ts);
    }
    w.u32(snap.derived_streams.len() as u32);
    for d in &snap.derived_streams {
        w.str(&d.type_name);
        w.u32(d.attrs.len() as u32);
        for (name, ty) in &d.attrs {
            w.str(name);
            put_value_type(w, *ty);
        }
        w.u8(u8::from(d.engine_registered));
        w.u8(u8::from(d.reusable));
    }
}

/// Decode a complete engine snapshot written by [`put_engine_snapshot`].
pub fn get_engine_snapshot(r: &mut ByteReader<'_>) -> Result<EngineSnapshot> {
    get_engine_snapshot_of(r, STATS_FIELDS)
}

/// Decode a version-2 engine snapshot: this build's format with one
/// counter fewer, so every query's `eval_errors` reads as 0.
pub(crate) fn get_engine_snapshot_v2(r: &mut ByteReader<'_>) -> Result<EngineSnapshot> {
    get_engine_snapshot_of(r, V2_STATS_FIELDS)
}

fn get_engine_snapshot_of(r: &mut ByteReader<'_>, fields: u32) -> Result<EngineSnapshot> {
    let ne = r.count_of(EVENT_MIN_BYTES)?;
    let mut events = Vec::with_capacity(ne);
    for _ in 0..ne {
        events.push(get_event_snapshot(r)?);
    }
    let nq = r.count_of(query_min_bytes(fields))?;
    let mut queries = Vec::with_capacity(nq);
    for _ in 0..nq {
        let name = r.str()?;
        let stats = get_stats_of(r, fields)?;
        let last_ts = get_opt_ts(r)?;
        let events_since_sweep = r.u64()?;
        let n = r.count_of(ENTRY_MIN_BYTES)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let event = r.u32()?;
            let place = match (r.u8()?, r.u32()?) {
                (0, i) => Place::Stack(i),
                (1, i) => Place::Negation(i),
                (t, _) => return Err(StoreError::Decode(format!("unknown place tag {t}"))),
            };
            entries.push(EntrySnapshot { event, place });
        }
        queries.push(QuerySnapshot {
            name,
            stats,
            last_ts,
            events_since_sweep,
            entries,
        });
    }
    let (stream_clocks, derived_streams) = get_clocks_and_derived(r)?;
    Ok(EngineSnapshot {
        events,
        queries,
        stream_clocks,
        derived_streams,
    })
}

/// The tail both snapshot versions share: stream clocks, then derived
/// streams.
#[allow(clippy::type_complexity)]
fn get_clocks_and_derived(
    r: &mut ByteReader<'_>,
) -> Result<(Vec<(Option<String>, u64)>, Vec<DerivedStreamSnapshot>)> {
    let nc = r.count_of(1 + 8)?;
    let mut stream_clocks = Vec::with_capacity(nc);
    for _ in 0..nc {
        let stream = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            t => return Err(StoreError::Decode(format!("unknown option tag {t}"))),
        };
        stream_clocks.push((stream, r.u64()?));
    }
    let nd = r.count_of(4 + 4 + 2)?;
    let mut derived_streams = Vec::with_capacity(nd);
    for _ in 0..nd {
        let type_name = r.str()?;
        let na = r.count_of(4 + 1)?;
        let mut attrs = Vec::with_capacity(na);
        for _ in 0..na {
            let name = r.str()?;
            let ty = get_value_type(r)?;
            attrs.push((name, ty));
        }
        let engine_registered = r.u8()? != 0;
        let reusable = r.u8()? != 0;
        derived_streams.push(DerivedStreamSnapshot {
            type_name,
            attrs,
            engine_registered,
            reusable,
        });
    }
    Ok((stream_clocks, derived_streams))
}

/// Decode a version-1 engine snapshot, which wrote each query's layout:
/// PAIS partitions of AIS stacks (with pruning bases and RIPs) and keyed
/// negation buckets, each event once per place. It becomes this build's
/// format: every place's event is a table entry of its own, ordered as a
/// snapshot orders entries; the two counters version 1 kept always 0 are
/// dropped, and so are RIPs, bases and keys. A single-component query's
/// instances are dropped too: such a query keeps no stacks.
pub(crate) fn get_engine_snapshot_v1(r: &mut ByteReader<'_>) -> Result<EngineSnapshot> {
    const V1_STATS_FIELDS: u32 = 11;
    /// One place of the query being read: (timestamp, key, place, position)
    /// and the event.
    type Held = ((u64, Vec<ValueKey>, Place, usize), EventSnapshot);
    fn get_keyed_events(
        r: &mut ByteReader<'_>,
        key: &[ValueKey],
        place: Place,
        held: &mut Vec<Held>,
    ) -> Result<()> {
        for at in 0..r.count_of(EVENT_MIN_BYTES)? {
            let e = get_event_snapshot(r)?;
            held.push(((e.timestamp, key.to_vec(), place, at), e));
        }
        Ok(())
    }
    fn get_key(r: &mut ByteReader<'_>) -> Result<Vec<ValueKey>> {
        (0..r.count_of(2)?).map(|_| get_value_key(r)).collect()
    }

    let (mut events, mut queries) = (Vec::new(), Vec::new());
    for _ in 0..r.count()? {
        let name = r.str()?;
        if r.u32()? != V1_STATS_FIELDS {
            return Err(StoreError::Decode(format!(
                "a version-1 snapshot has {V1_STATS_FIELDS} stat counters"
            )));
        }
        let c: Vec<u64> = (0..V1_STATS_FIELDS)
            .map(|_| r.u64())
            .collect::<Result<_>>()?;
        // Version 1's counters 5 and 9, `dropped_by_window` and
        // `partial_runs_peak`, were always 0; it kept no `eval_errors`.
        let stats = stats_of([c[0], c[1], c[2], c[3], c[4], c[6], c[7], c[8], c[10], 0]);
        let last_ts = get_opt_ts(r)?;
        let mut held: Vec<Held> = Vec::new();
        // The sequence operator: tag 0 is SSC. Tag 1 is retired: no
        // runtime writes it, and none can read it.
        let tag = r.u8()?;
        if tag != 0 {
            return Err(StoreError::Decode(format!(
                "unknown sequence-snapshot tag {tag}"
            )));
        }
        let events_since_sweep = r.u64()?;
        for _ in 0..r.count()? {
            let key = get_key(r)?;
            let stacks = r.count()?;
            for i in 0..stacks {
                let _base = r.u64()?;
                let place = Place::Stack(i as u32);
                for at in 0..r.count_of(EVENT_MIN_BYTES + 8)? {
                    let e = get_event_snapshot(r)?;
                    let _rip = r.u64()?;
                    if stacks > 1 {
                        held.push(((e.timestamp, key.clone(), place, at), e));
                    }
                }
            }
        }
        for ni in 0..r.count()? {
            let place = Place::Negation(ni as u32);
            for _ in 0..r.count()? {
                let key = get_key(r)?;
                get_keyed_events(r, &key, place, &mut held)?;
            }
            get_keyed_events(r, &[], place, &mut held)?;
        }
        held.sort_by(|a, b| a.0.cmp(&b.0));
        let entries = (held.into_iter())
            .map(|((.., place, _), e)| {
                events.push(e);
                EntrySnapshot {
                    event: (events.len() - 1) as u32,
                    place,
                }
            })
            .collect();
        queries.push(QuerySnapshot {
            name,
            stats,
            last_ts,
            events_since_sweep,
            entries,
        });
    }
    let (stream_clocks, derived_streams) = get_clocks_and_derived(r)?;
    Ok(EngineSnapshot {
        events,
        queries,
        stream_clocks,
        derived_streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::event::retail_registry;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_underrun_and_trailing() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u32().is_err());
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn count_bounds_allocation() {
        // A corrupt count of u32::MAX must not try to allocate.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.count().is_err());
    }

    #[test]
    fn values_round_trip_including_nan() {
        let values = [
            Value::Int(-7),
            Value::Float(3.25),
            Value::Float(f64::NAN),
            Value::str("milk"),
            Value::Bool(true),
        ];
        let mut w = ByteWriter::new();
        for v in &values {
            put_value(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            let back = get_value(&mut r).unwrap();
            // Bit-exact for floats (NaN included), semantic for the rest.
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert!(v.sase_eq(&back), "{v:?} vs {back:?}"),
            }
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn events_round_trip() {
        let reg = retail_registry();
        let e = reg
            .build_event(
                "EXIT_READING",
                44,
                vec![Value::Int(9), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        let mut w = ByteWriter::new();
        put_event(&mut w, &e);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_event(&mut r, &reg).unwrap();
        assert_eq!(back.to_string(), e.to_string());
        r.expect_end().unwrap();
    }

    #[test]
    fn unknown_event_type_is_typed_error() {
        let reg = retail_registry();
        let mut w = ByteWriter::new();
        w.str("VANISHED");
        w.u64(1);
        w.u32(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        match get_event(&mut r, &reg) {
            Err(StoreError::Core(e)) => assert!(e.to_string().contains("`VANISHED`"), "{e}"),
            other => panic!("expected a schema error naming the type, got {other:?}"),
        }
    }

    #[test]
    fn engine_snapshot_round_trips() {
        use sase_core::engine::Engine;
        let reg = retail_registry();
        let mut engine = Engine::new(reg.clone());
        engine
            .register(
                "q1",
                "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                 WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100 \
                 RETURN x.TagId AS tag INTO alerts",
            )
            .unwrap();
        for (ty, ts, tag) in [
            ("SHELF_READING", 1u64, 3i64),
            ("COUNTER_READING", 2, 4),
            ("SHELF_READING", 3, 4),
            ("EXIT_READING", 5, 3),
        ] {
            let e = reg
                .build_event(
                    ty,
                    ts,
                    vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
                )
                .unwrap();
            engine.process_batch(&[e]).unwrap();
        }
        let snap = engine.snapshot();
        assert!(snap.retained_events() > 0);
        assert!(!snap.derived_streams.is_empty());

        let mut w = ByteWriter::new();
        put_engine_snapshot(&mut w, &snap);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_engine_snapshot(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, snap);

        // Determinism: encoding twice yields identical bytes.
        let mut w2 = ByteWriter::new();
        put_engine_snapshot(&mut w2, &engine.snapshot());
        assert_eq!(bytes, w2.into_bytes());
    }

    /// Tag 1 of a version-1 snapshot was the sequence snapshot of a
    /// runtime that is gone: the converter names it in a typed error.
    #[test]
    fn a_retired_v1_sequence_tag_is_named() {
        let mut w = ByteWriter::new();
        w.u32(1); // queries
        w.str("q");
        w.u32(11); // stat counters
        for _ in 0..11 {
            w.u64(0);
        }
        w.u8(0); // no query clock
        w.u8(1); // the retired tag
        let bytes = w.into_bytes();
        match get_engine_snapshot_v1(&mut ByteReader::new(&bytes)) {
            Err(StoreError::Decode(d)) => {
                assert!(d.contains("unknown sequence-snapshot tag 1"), "{d}")
            }
            other => panic!("expected a typed decode error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        for bytes in [&[][..], &[0xFF; 3][..], &[0, 0, 0, 9][..]] {
            let mut r = ByteReader::new(bytes);
            assert!(get_engine_snapshot(&mut r).is_err());
        }
    }
}
