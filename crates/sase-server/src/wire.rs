//! The line protocol: length-prefixed, CRC-checked binary frames over
//! TCP, reusing the `sase-store` codec primitives ([`ByteWriter`] /
//! [`ByteReader`]) and its framing discipline — typed faults for every
//! kind of damage and strict rejection of trailing bytes.
//!
//! ## Frame layout
//!
//! ```text
//! u32  payload length (big-endian, <= MAX_FRAME)
//! [..] payload: u8 opcode, then the opcode's body
//! u32  CRC-32 (IEEE) of the payload
//! ```
//!
//! A frame that fails any check — oversized length, short read, CRC
//! mismatch, unknown opcode, undecodable body, or bytes left over after
//! the body — is a typed [`WireFault`]. The server answers with an
//! `Error` frame when the stream is still writable and then tears down
//! *that connection*; the listener and every other session keep running.
//!
//! Requests carry explicit timestamps by default. An ingest may instead
//! ask for **server-assigned ticks** (`tick_mode = 1`): the ingesting
//! thread rebases each event onto the target stream's monotonic clock,
//! which is what concurrent ingesters want (client-side timestamps from
//! multiple unsynchronized connections would trip the engine's per-stream
//! monotonicity check). A batch that would carry the clock past
//! `u64::MAX` is refused with an `Engine` error and changes nothing.

use std::fmt;
use std::io::{Read, Write};

use sase_core::analyze::{Diagnostic, Severity};
use sase_core::error::Span;
use sase_core::event::{Event, SchemaRegistry};
use sase_core::output::ComplexEvent;
use sase_core::runtime::RuntimeStats;
use sase_core::value::Value;
use sase_store::codec::{
    crc32, get_events, get_stats, get_value, put_events, put_stats, put_value, ByteReader,
    ByteWriter,
};
use sase_store::StoreError;

use crate::{Result, ServerError};

/// Hard cap on one frame's payload, bounding what a corrupt or hostile
/// length prefix can make the server allocate.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Typed framing/decoding faults, mirroring `sase-store`'s discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The stream ended mid-frame.
    Truncated,
    /// The payload does not match its CRC.
    Crc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The opcode byte is not a known request/response.
    UnknownOpcode(u8),
    /// The body decoded structurally but not semantically (bad tag, bad
    /// UTF-8, count overrun, ...).
    Decode(String),
    /// Bytes were left over after the declared body — the same strict
    /// rejection the store applies to its frames.
    TrailingBytes(usize),
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireFault::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME}"),
            WireFault::Truncated => write!(f, "stream ended mid-frame"),
            WireFault::Crc { expected, actual } => {
                write!(f, "payload CRC {actual:#010x} != declared {expected:#010x}")
            }
            WireFault::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireFault::Decode(m) => write!(f, "undecodable frame body: {m}"),
            WireFault::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
        }
    }
}

impl From<StoreError> for WireFault {
    fn from(e: StoreError) -> Self {
        WireFault::Decode(e.to_string())
    }
}

/// How an ingest batch's timestamps are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickMode {
    /// Events carry their own timestamps; the engine enforces per-stream
    /// monotonicity and rejects regressions.
    #[default]
    Explicit,
    /// The ingesting thread rebases each event onto the stream's
    /// monotonic clock (one tick per event, in arrival order). Safe for
    /// many concurrent ingesters. A batch the clock cannot fit below
    /// `u64::MAX` is refused with an `Engine` error.
    ServerAssigned,
}

/// A client request frame.
///
/// (No `PartialEq`: [`Event`] is intentionally opaque about identity;
/// tests compare `Debug` renderings.)
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Process a batch of events on a stream (`None` = default input).
    Ingest {
        /// Target stream.
        stream: Option<String>,
        /// Timestamp interpretation.
        ticks: TickMode,
        /// The batch.
        events: Vec<Event>,
    },
    /// Register a continuous query; the response carries the analyzer's
    /// diagnostics.
    Register {
        /// Query name (unique per deployment).
        name: String,
        /// Query source text.
        src: String,
    },
    /// Delete a query this session registered.
    Unregister {
        /// Query name.
        name: String,
    },
    /// Statically analyze query text without registering it.
    Check {
        /// Query source text.
        src: String,
    },
    /// Runtime counters of a query.
    Stats {
        /// Query name.
        name: String,
    },
    /// Prometheus text exposition of the deployment + server series.
    Metrics,
    /// Names of registered queries, in registration order.
    Queries,
    /// EXPLAIN output of a query's plan.
    Explain {
        /// Query name.
        name: String,
    },
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Emissions produced by an ingest batch, in canonical order.
    Ingested(Vec<WireComplexEvent>),
    /// Registration succeeded; the analyzer's findings (most severe
    /// first, possibly empty).
    Registered(Vec<WireDiagnostic>),
    /// Whether the unregistered query existed.
    Unregistered(bool),
    /// Analyzer findings for a [`Request::Check`].
    Checked(Vec<WireDiagnostic>),
    /// Runtime counters.
    Stats(RuntimeStats),
    /// Prometheus text exposition.
    Metrics(String),
    /// Registered query names.
    Queries(Vec<String>),
    /// EXPLAIN text.
    Explain(String),
    /// The request failed; `code` is [`ServerError::code`].
    Error {
        /// Stable error code.
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

// Opcodes. Requests have the high bit clear, responses set.
const OP_PING: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_REGISTER: u8 = 0x03;
const OP_UNREGISTER: u8 = 0x04;
const OP_CHECK: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_QUERIES: u8 = 0x08;
const OP_EXPLAIN: u8 = 0x09;
const OP_PONG: u8 = 0x81;
const OP_INGESTED: u8 = 0x82;
const OP_REGISTERED: u8 = 0x83;
const OP_UNREGISTERED: u8 = 0x84;
const OP_CHECKED: u8 = 0x85;
const OP_STATS_OK: u8 = 0x86;
const OP_METRICS_OK: u8 = 0x87;
const OP_QUERIES_OK: u8 = 0x88;
const OP_EXPLAIN_OK: u8 = 0x89;
const OP_ERROR: u8 = 0xFF;

// ---------------------------------------------------------------------------
// Mirror types: what the client decodes without needing a schema registry
// ---------------------------------------------------------------------------

/// One constituent event inside a [`WireComplexEvent`]: the event with
/// its attribute names resolved server-side, so clients render it without
/// a schema registry.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    /// Event type name.
    pub type_name: String,
    /// Event timestamp.
    pub timestamp: u64,
    /// `(attribute name, value)` pairs in schema order.
    pub attrs: Vec<(String, Value)>,
}

impl fmt::Display for WireEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}(", self.type_name, self.timestamp)?;
        for (i, (n, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, ")")
    }
}

/// A [`ComplexEvent`] as decoded from the wire. `Display` reproduces the
/// embedded type's rendering byte-for-byte — the wire-vs-embedded
/// differential pins this.
#[derive(Debug, Clone, PartialEq)]
pub struct WireComplexEvent {
    /// Name of the emitting query.
    pub query: String,
    /// Positive-component variable names, in order.
    pub variables: Vec<String>,
    /// The matched events, one per variable.
    pub events: Vec<WireEvent>,
    /// RETURN projection, in clause order.
    pub values: Vec<(String, Value)>,
    /// Detection timestamp.
    pub detected_at: u64,
    /// Output stream (`INTO`), if declared.
    pub into: Option<String>,
}

impl WireComplexEvent {
    /// Look up a RETURN column by name (case-insensitive), mirroring
    /// [`ComplexEvent::value`].
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

impl fmt::Display for WireComplexEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}@{}]", self.query, self.detected_at)?;
        if !self.values.is_empty() {
            write!(f, " {{")?;
            for (i, (n, v)) in self.values.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{n}: {v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, " <-")?;
        for (var, e) in self.variables.iter().zip(&self.events) {
            write!(f, " {var}={e}")?;
        }
        Ok(())
    }
}

/// A [`Diagnostic`] as decoded from the wire; `Display` mirrors the
/// analyzer's rendering byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Stable lint code (`SA0xx`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Byte range into the query source, when known.
    pub span: Option<(u32, u32)>,
    /// Suggested fix, when the analyzer has one.
    pub suggestion: Option<String>,
}

impl fmt::Display for WireDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some((start, end)) = self.span {
            write!(f, " [bytes {start}..{end}]")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Build one complete frame — length prefix, the payload `body` writes,
/// CRC — in a single buffer, so no payload is encoded into one `Vec` and
/// copied into another.
fn frame(body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len_prefixed(body);
    debug_assert!(w.len() - 4 <= MAX_FRAME as usize);
    w.u32(crc32(&w.as_slice()[4..]));
    w.into_bytes()
}

/// Wrap an already-encoded payload in the `len | payload | crc` frame and
/// write it with one `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(|f| {
        f.reserve(payload.len() + 4);
        f.raw(payload);
    }))
}

/// Read one frame's payload, validating length and CRC. `Ok(None)` means
/// the peer closed cleanly *between* frames; mid-frame EOF is
/// [`WireFault::Truncated`]. Payload and CRC are read together, so a frame
/// costs two reads of `r` — fewer through a `BufReader`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => return Err(WireFault::Truncated.into()),
        ReadOutcome::Full => {}
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireFault::FrameTooLarge(len).into());
    }
    let len = len as usize;
    let mut payload = vec![0u8; len + 4];
    if !matches!(read_exact_or_eof(r, &mut payload)?, ReadOutcome::Full) {
        return Err(WireFault::Truncated.into());
    }
    let expected = u32::from_be_bytes(payload[len..].try_into().expect("four CRC bytes"));
    payload.truncate(len);
    let actual = crc32(&payload);
    if expected != actual {
        return Err(WireFault::Crc { expected, actual }.into());
    }
    Ok(Some(payload))
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes clean EOF (no bytes) from a torn read.
/// Interrupts are retried; any other error, a read timeout included, ends
/// the read.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

fn put_opt_str(w: &mut ByteWriter, s: Option<&str>) {
    match s {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.str(s);
        }
    }
}

fn get_opt_str(r: &mut ByteReader<'_>) -> std::result::Result<Option<String>, WireFault> {
    match r.u8().map_err(WireFault::from)? {
        0 => Ok(None),
        1 => Ok(Some(r.str().map_err(WireFault::from)?)),
        t => Err(WireFault::Decode(format!("unknown option tag {t}"))),
    }
}

fn put_ingest(w: &mut ByteWriter, stream: Option<&str>, ticks: TickMode, events: &[Event]) {
    w.u8(OP_INGEST);
    put_opt_str(w, stream);
    w.u8(match ticks {
        TickMode::Explicit => 0,
        TickMode::ServerAssigned => 1,
    });
    put_events(w, events);
}

fn put_request(w: &mut ByteWriter, req: &Request) {
    match req {
        Request::Ping => w.u8(OP_PING),
        Request::Ingest {
            stream,
            ticks,
            events,
        } => put_ingest(w, stream.as_deref(), *ticks, events),
        Request::Register { name, src } => {
            w.u8(OP_REGISTER);
            w.str(name);
            w.str(src);
        }
        Request::Unregister { name } => {
            w.u8(OP_UNREGISTER);
            w.str(name);
        }
        Request::Check { src } => {
            w.u8(OP_CHECK);
            w.str(src);
        }
        Request::Stats { name } => {
            w.u8(OP_STATS);
            w.str(name);
        }
        Request::Metrics => w.u8(OP_METRICS),
        Request::Queries => w.u8(OP_QUERIES),
        Request::Explain { name } => {
            w.u8(OP_EXPLAIN);
            w.str(name);
        }
    }
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_request(&mut w, req);
    w.into_bytes()
}

/// A request as a complete frame, ready for one `write_all`.
pub(crate) fn request_frame(req: &Request) -> Vec<u8> {
    frame(|w| put_request(w, req))
}

/// An ingest request as a complete frame, encoded from the caller's
/// events where they lie.
pub(crate) fn ingest_frame(stream: Option<&str>, ticks: TickMode, events: &[Event]) -> Vec<u8> {
    frame(|w| put_ingest(w, stream, ticks, events))
}

/// Decode a request frame payload. Events are rebuilt against `registry`;
/// an unknown event type is a [`WireFault::Decode`].
pub fn decode_request(
    payload: &[u8],
    registry: &SchemaRegistry,
) -> std::result::Result<Request, WireFault> {
    let mut r = ByteReader::new(payload);
    let op = r.u8().map_err(WireFault::from)?;
    let req = match op {
        OP_PING => Request::Ping,
        OP_INGEST => {
            let stream = get_opt_str(&mut r)?;
            let ticks = match r.u8().map_err(WireFault::from)? {
                0 => TickMode::Explicit,
                1 => TickMode::ServerAssigned,
                t => return Err(WireFault::Decode(format!("unknown tick mode {t}"))),
            };
            let events = get_events(&mut r, registry)?;
            Request::Ingest {
                stream,
                ticks,
                events,
            }
        }
        OP_REGISTER => Request::Register {
            name: r.str().map_err(WireFault::from)?,
            src: r.str().map_err(WireFault::from)?,
        },
        OP_UNREGISTER => Request::Unregister {
            name: r.str().map_err(WireFault::from)?,
        },
        OP_CHECK => Request::Check {
            src: r.str().map_err(WireFault::from)?,
        },
        OP_STATS => Request::Stats {
            name: r.str().map_err(WireFault::from)?,
        },
        OP_METRICS => Request::Metrics,
        OP_QUERIES => Request::Queries,
        OP_EXPLAIN => Request::Explain {
            name: r.str().map_err(WireFault::from)?,
        },
        other => return Err(WireFault::UnknownOpcode(other)),
    };
    if r.remaining() != 0 {
        return Err(WireFault::TrailingBytes(r.remaining()));
    }
    Ok(req)
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

/// Encode one emission server-side: attribute names are resolved from the
/// event schemas here so clients can render without a registry.
pub fn put_complex_event(w: &mut ByteWriter, ce: &ComplexEvent) {
    w.str(&ce.query);
    w.u32(ce.variables.len() as u32);
    for v in ce.variables.iter() {
        w.str(v);
    }
    w.u32(ce.events.len() as u32);
    for e in ce.events.iter() {
        w.str(e.type_name());
        w.u64(e.timestamp());
        w.u32(e.attrs().len() as u32);
        for (decl, v) in e.schema().attributes.iter().zip(e.attrs()) {
            w.str(&decl.name);
            put_value(w, v);
        }
    }
    w.u32(ce.values.len() as u32);
    for (n, v) in ce.values.iter() {
        w.str(n);
        put_value(w, v);
    }
    w.u64(ce.detected_at);
    put_opt_str(w, ce.into.as_deref());
}

fn get_complex_event(r: &mut ByteReader<'_>) -> std::result::Result<WireComplexEvent, WireFault> {
    let query = r.str().map_err(WireFault::from)?;
    let nv = r.count().map_err(WireFault::from)?;
    let mut variables = Vec::with_capacity(nv);
    for _ in 0..nv {
        variables.push(r.str().map_err(WireFault::from)?);
    }
    let ne = r.count().map_err(WireFault::from)?;
    let mut events = Vec::with_capacity(ne);
    for _ in 0..ne {
        let type_name = r.str().map_err(WireFault::from)?;
        let timestamp = r.u64().map_err(WireFault::from)?;
        let na = r.count().map_err(WireFault::from)?;
        let mut attrs = Vec::with_capacity(na);
        for _ in 0..na {
            let name = r.str().map_err(WireFault::from)?;
            let value = get_value(r).map_err(WireFault::from)?;
            attrs.push((name, value));
        }
        events.push(WireEvent {
            type_name,
            timestamp,
            attrs,
        });
    }
    let nval = r.count().map_err(WireFault::from)?;
    let mut values = Vec::with_capacity(nval);
    for _ in 0..nval {
        let name = r.str().map_err(WireFault::from)?;
        let value = get_value(r).map_err(WireFault::from)?;
        values.push((name, value));
    }
    let detected_at = r.u64().map_err(WireFault::from)?;
    let into = get_opt_str(r)?;
    Ok(WireComplexEvent {
        query,
        variables,
        events,
        values,
        detected_at,
        into,
    })
}

fn put_severity(w: &mut ByteWriter, s: Severity) {
    w.u8(match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    });
}

fn get_severity(r: &mut ByteReader<'_>) -> std::result::Result<Severity, WireFault> {
    Ok(match r.u8().map_err(WireFault::from)? {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Error,
        t => return Err(WireFault::Decode(format!("unknown severity tag {t}"))),
    })
}

/// Encode the analyzer's findings.
pub fn put_diagnostics(w: &mut ByteWriter, diags: &[Diagnostic]) {
    w.u32(diags.len() as u32);
    for d in diags {
        put_severity(w, d.severity);
        w.str(d.code);
        w.str(&d.message);
        match &d.span {
            None => w.u8(0),
            Some(span) => {
                w.u8(1);
                w.u32(span.start);
                w.u32(span.end);
            }
        }
        put_opt_str(w, d.suggestion.as_deref());
    }
}

fn get_diagnostics(r: &mut ByteReader<'_>) -> std::result::Result<Vec<WireDiagnostic>, WireFault> {
    let n = r.count().map_err(WireFault::from)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let severity = get_severity(r)?;
        let code = r.str().map_err(WireFault::from)?;
        let message = r.str().map_err(WireFault::from)?;
        let span = match r.u8().map_err(WireFault::from)? {
            0 => None,
            1 => Some((
                r.u32().map_err(WireFault::from)?,
                r.u32().map_err(WireFault::from)?,
            )),
            t => return Err(WireFault::Decode(format!("unknown option tag {t}"))),
        };
        let suggestion = get_opt_str(r)?;
        out.push(WireDiagnostic {
            severity,
            code,
            message,
            span,
            suggestion,
        });
    }
    Ok(out)
}

/// Reconstruct a `Diagnostic`-shaped wire mirror from the real thing —
/// used by tests to prove the mirror renders identically.
pub fn mirror_diagnostic(d: &Diagnostic) -> WireDiagnostic {
    WireDiagnostic {
        severity: d.severity,
        code: d.code.to_string(),
        message: d.message.clone(),
        span: d.span.as_ref().map(|s: &Span| (s.start, s.end)),
        suggestion: d.suggestion.clone(),
    }
}

fn put_response(w: &mut ByteWriter, resp: &ResponseParts<'_>) {
    match resp {
        ResponseParts::Pong => w.u8(OP_PONG),
        ResponseParts::Ingested(emissions) => {
            w.u8(OP_INGESTED);
            w.u32(emissions.len() as u32);
            for ce in emissions.iter() {
                put_complex_event(w, ce);
            }
        }
        ResponseParts::Registered(diags) => {
            w.u8(OP_REGISTERED);
            put_diagnostics(w, diags);
        }
        ResponseParts::Unregistered(existed) => {
            w.u8(OP_UNREGISTERED);
            w.u8(u8::from(*existed));
        }
        ResponseParts::Checked(diags) => {
            w.u8(OP_CHECKED);
            put_diagnostics(w, diags);
        }
        ResponseParts::Stats(s) => {
            w.u8(OP_STATS_OK);
            put_stats(w, s);
        }
        ResponseParts::Metrics(text) => {
            w.u8(OP_METRICS_OK);
            w.str(text);
        }
        ResponseParts::Queries(names) => {
            w.u8(OP_QUERIES_OK);
            w.u32(names.len() as u32);
            for n in names.iter() {
                w.str(n);
            }
        }
        ResponseParts::Explain(text) => {
            w.u8(OP_EXPLAIN_OK);
            w.str(text);
        }
        ResponseParts::Error { code, message } => {
            w.u8(OP_ERROR);
            w.u16(*code);
            w.str(message);
        }
    }
}

/// Encode a response into a frame payload. Emissions are encoded from the
/// live [`ComplexEvent`]s, diagnostics from the analyzer's findings.
pub fn encode_response_parts(resp: &ResponseParts<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_response(&mut w, resp);
    w.into_bytes()
}

/// A response as a complete frame, ready for one `write_all`.
pub(crate) fn response_frame(resp: &ResponseParts<'_>) -> Vec<u8> {
    frame(|w| put_response(w, resp))
}

/// Borrowed view of a response for encoding, so the server never clones
/// emission vectors just to serialize them.
#[derive(Debug)]
pub enum ResponseParts<'a> {
    /// See [`Response::Pong`].
    Pong,
    /// See [`Response::Ingested`].
    Ingested(&'a [ComplexEvent]),
    /// See [`Response::Registered`].
    Registered(&'a [Diagnostic]),
    /// See [`Response::Unregistered`].
    Unregistered(bool),
    /// See [`Response::Checked`].
    Checked(&'a [Diagnostic]),
    /// See [`Response::Stats`].
    Stats(&'a RuntimeStats),
    /// See [`Response::Metrics`].
    Metrics(&'a str),
    /// See [`Response::Queries`].
    Queries(&'a [String]),
    /// See [`Response::Explain`].
    Explain(&'a str),
    /// See [`Response::Error`].
    Error {
        /// Stable error code.
        code: u16,
        /// Human-readable description.
        message: &'a str,
    },
}

/// A [`ServerError`] as a complete `Error` response frame.
pub(crate) fn error_frame(e: &ServerError) -> Vec<u8> {
    let message = match e {
        // Engine/NotOwner/UnknownQuery round-trip their payload through
        // the message field; `ServerError::from_code` reverses this.
        ServerError::Engine(m) => m.clone(),
        ServerError::NotOwner { query } => query.clone(),
        ServerError::UnknownQuery(q) => q.clone(),
        other => other.to_string(),
    };
    response_frame(&ResponseParts::Error {
        code: e.code(),
        message: &message,
    })
}

/// Decode a response frame payload (client side).
pub fn decode_response(payload: &[u8]) -> std::result::Result<Response, WireFault> {
    let mut r = ByteReader::new(payload);
    let op = r.u8().map_err(WireFault::from)?;
    let resp = match op {
        OP_PONG => Response::Pong,
        OP_INGESTED => {
            let n = r.count().map_err(WireFault::from)?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(get_complex_event(&mut r)?);
            }
            Response::Ingested(out)
        }
        OP_REGISTERED => Response::Registered(get_diagnostics(&mut r)?),
        OP_UNREGISTERED => Response::Unregistered(r.u8().map_err(WireFault::from)? != 0),
        OP_CHECKED => Response::Checked(get_diagnostics(&mut r)?),
        OP_STATS_OK => Response::Stats(get_stats(&mut r).map_err(WireFault::from)?),
        OP_METRICS_OK => Response::Metrics(r.str().map_err(WireFault::from)?),
        OP_QUERIES_OK => {
            let n = r.count().map_err(WireFault::from)?;
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(r.str().map_err(WireFault::from)?);
            }
            Response::Queries(names)
        }
        OP_EXPLAIN_OK => Response::Explain(r.str().map_err(WireFault::from)?),
        OP_ERROR => Response::Error {
            code: r.u16().map_err(WireFault::from)?,
            message: r.str().map_err(WireFault::from)?,
        },
        other => return Err(WireFault::UnknownOpcode(other)),
    };
    if r.remaining() != 0 {
        return Err(WireFault::TrailingBytes(r.remaining()));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::event::retail_registry;

    fn sample_events() -> (SchemaRegistry, Vec<Event>) {
        let reg = retail_registry();
        let mk = |ty: &str, ts: u64, tag: i64| {
            reg.build_event(
                ty,
                ts,
                vec![Value::Int(tag), Value::str("soap"), Value::Int(1)],
            )
            .unwrap()
        };
        let events = vec![mk("SHELF_READING", 1, 7), mk("EXIT_READING", 2, 7)];
        (reg, events)
    }

    #[test]
    fn read_timeout_mid_frame_ends_the_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let mut peer = crate::SilentPeer::new(&buf[..6], kind);
            let err = read_frame(&mut peer).unwrap_err();
            assert!(matches!(err, ServerError::Io(_)), "{err}");
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello frame".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frame_rejects_damage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Flip a payload byte: CRC mismatch.
        let mut bad = buf.clone();
        bad[5] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ServerError::Wire(WireFault::Crc { .. }))
        ));
        // Truncate mid-frame.
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut &cut[..]),
            Err(ServerError::Wire(WireFault::Truncated))
        ));
        // Oversized length prefix.
        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(ServerError::Wire(WireFault::FrameTooLarge(_)))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let (reg, events) = sample_events();
        let reqs = vec![
            Request::Ping,
            Request::Ingest {
                stream: Some("readings".into()),
                ticks: TickMode::ServerAssigned,
                events,
            },
            Request::Register {
                name: "q".into(),
                src: "EVENT EXIT_READING z RETURN z.TagId AS tag".into(),
            },
            Request::Unregister { name: "q".into() },
            Request::Check { src: "text".into() },
            Request::Stats { name: "q".into() },
            Request::Metrics,
            Request::Queries,
            Request::Explain { name: "q".into() },
        ];
        for req in reqs {
            let payload = encode_request(&req);
            let back = decode_request(&payload, &reg).unwrap();
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn trailing_bytes_in_body_are_rejected() {
        let (reg, _) = sample_events();
        let mut payload = encode_request(&Request::Ping);
        payload.push(0xAA);
        assert!(matches!(
            decode_request(&payload, &reg),
            Err(WireFault::TrailingBytes(1))
        ));
        let mut resp = encode_response_parts(&ResponseParts::Pong);
        resp.extend_from_slice(&[1, 2]);
        assert!(matches!(
            decode_response(&resp),
            Err(WireFault::TrailingBytes(2))
        ));
    }

    #[test]
    fn unknown_opcode_is_typed() {
        let (reg, _) = sample_events();
        assert!(matches!(
            decode_request(&[0x7E], &reg),
            Err(WireFault::UnknownOpcode(0x7E))
        ));
        assert!(matches!(
            decode_response(&[0x10]),
            Err(WireFault::UnknownOpcode(0x10))
        ));
    }

    #[test]
    fn complex_event_mirror_renders_identically() {
        let (reg, events) = sample_events();
        let mut engine = sase_core::engine::Engine::new(reg);
        engine
            .register(
                "pairs",
                "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId \
                 WITHIN 100 RETURN x.TagId AS tag INTO alerts",
            )
            .unwrap();
        let out = engine.process_batch(&events).unwrap();
        assert_eq!(out.len(), 1);
        let mut w = ByteWriter::new();
        put_complex_event(&mut w, &out[0]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let wire = get_complex_event(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(wire.to_string(), out[0].to_string());
        assert_eq!(wire.value("tag"), Some(&Value::Int(7)));
        assert_eq!(wire.into.as_deref(), Some("alerts"));
    }

    #[test]
    fn diagnostics_mirror_renders_identically() {
        let reg = retail_registry();
        let engine = sase_core::engine::Engine::new(reg);
        let diags =
            engine.check("EVENT EXIT_READING z WHERE z.TagId = 'wrong' RETURN z.TagId AS tag");
        assert!(!diags.is_empty(), "the type error must be reported");
        let mut w = ByteWriter::new();
        put_diagnostics(&mut w, &diags);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let wire = get_diagnostics(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(wire.len(), diags.len());
        for (w, d) in wire.iter().zip(&diags) {
            assert_eq!(w.to_string(), d.to_string());
            assert_eq!(*w, mirror_diagnostic(d));
        }
    }

    #[test]
    fn responses_round_trip() {
        let stats = RuntimeStats {
            events_processed: 5,
            matches_emitted: 2,
            ..Default::default()
        };
        for (parts, want) in [
            (ResponseParts::Pong, Response::Pong),
            (
                ResponseParts::Unregistered(true),
                Response::Unregistered(true),
            ),
            (ResponseParts::Stats(&stats), Response::Stats(stats.clone())),
            (
                ResponseParts::Metrics("# TYPE x counter\n"),
                Response::Metrics("# TYPE x counter\n".into()),
            ),
            (
                ResponseParts::Queries(&["a".into(), "b".into()]),
                Response::Queries(vec!["a".into(), "b".into()]),
            ),
            (
                ResponseParts::Explain("plan"),
                Response::Explain("plan".into()),
            ),
            (
                ResponseParts::Error {
                    code: 4,
                    message: "q",
                },
                Response::Error {
                    code: 4,
                    message: "q".into(),
                },
            ),
        ] {
            let payload = encode_response_parts(&parts);
            assert_eq!(decode_response(&payload).unwrap(), want);
        }
    }
}
