//! # sase-server — the network serving layer
//!
//! Everything below this crate is an embedded library: the engine, the
//! sharded and durable deployments, and the `Sase` facade all live inside
//! the host process. This crate puts that surface on the wire, turning the
//! reproduction into the *server* the paper's deployment story (live RFID
//! streams feeding standing queries, subscribers receiving detections)
//! actually calls for. Three protocols share one listener port and one
//! session core:
//!
//! * a length-prefixed, CRC-checked **line protocol** over TCP
//!   ([`wire`]) for ingest batches, query registration/unregistration,
//!   and control — the same framing discipline as the `sase-store` log
//!   (typed errors, strict trailing-byte rejection);
//! * a minimal hand-rolled **HTTP/1.1** endpoint ([`http`]) for
//!   `POST /ingest`, `POST /query`, `GET /stats`, and `GET /metrics`
//!   (Prometheus text exposition of the deployment + server series);
//! * **WebSocket push** ([`ws`]; RFC 6455 handshake and frame codec, no
//!   external dependency) so subscribers stream [`ComplexEvent`]
//!   emissions live as standing queries match.
//!
//! The protocol is sniffed from the first bytes of each connection: HTTP
//! requests start with an ASCII method, line-protocol frames with a
//! big-endian length whose first byte is `0x00`.
//!
//! ## Threading model
//!
//! No async runtime: the server is plain `std::net` threads. One **accept
//! loop**, one **connection thread** per client, and a writer thread per
//! WebSocket connection. There is no engine thread: the
//! [`EventProcessor`] sits behind one lock, and each connection thread
//! decodes its request, calls the deployment under that lock, and encodes
//! the response outside it. The lock gives wire traffic exactly the
//! single-engine ordering the differential tests pin. A backend call that
//! panics poisons the deployment: it and every later request that needs
//! the deployment answer a typed `Engine` error, while the listener,
//! `ping` and graceful shutdown keep working. Backpressure is explicit at
//! both ends: each connection has at most one request in flight and
//! blocks on the lock (TCP flow control propagates to its client), and
//! each subscriber has a bounded fan-out queue — a slow subscriber either
//! drops pushes (counted in `sase_server_pushes_dropped_total`) or is
//! disconnected, per [`SlowPolicy`]; nothing buffers without bound.
//!
//! ## Sessions and ownership
//!
//! Every connection is a session. Queries registered over the wire are
//! owned by the registering session: only that session may unregister
//! them (other sessions get a typed `NotOwner` error). Registration runs
//! the static analyzer first and returns its diagnostics over the wire,
//! exactly as the embedded `check` + `register` pair would.
//!
//! ## Quick tour
//!
//! ```no_run
//! use sase_core::engine::Engine;
//! use sase_core::event::retail_registry;
//! use sase_server::{client::Client, Server, ServerConfig};
//!
//! let engine = Engine::new(retail_registry());
//! let handle = Server::serve("127.0.0.1:0", Box::new(engine), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let diags = client.register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag").unwrap();
//! assert!(diags.iter().all(|d| d.severity < sase_core::analyze::Severity::Error));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod core;
pub mod http;
mod server;
pub mod wire;
pub mod ws;

use std::fmt;

use sase_core::output::ComplexEvent;
use sase_core::processor::EventProcessor;

pub use server::{Server, ServerConfig, ServerHandle, SlowPolicy};
pub use wire::{WireComplexEvent, WireDiagnostic, WireEvent, WireFault};

/// What the server hosts: any [`EventProcessor`] deployment, plus the one
/// durability hook the serving layer needs that the processor trait does
/// not carry — making acknowledged ingest durable at shutdown.
///
/// The umbrella crate implements this for the `Sase` facade (where
/// `flush` fsyncs the WAL on durable deployments and is a no-op
/// otherwise); this crate implements it for a bare
/// [`Engine`](sase_core::engine::Engine) so the server is usable — and
/// testable — without the facade.
pub trait Backend: EventProcessor + 'static {
    /// Make every batch acknowledged so far durable (fsync the WAL).
    /// Called once during graceful shutdown, after in-flight ingest has
    /// drained. Volatile deployments do nothing.
    fn flush(&mut self) -> sase_core::error::Result<()> {
        Ok(())
    }
}

impl Backend for sase_core::engine::Engine {}

/// Every way a server request can fail, with a stable wire code so
/// clients can branch without parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// A socket-level failure (connect, read, write, timeout).
    Io(String),
    /// The peer violated the framing or frame-payload layer.
    Wire(WireFault),
    /// The engine rejected the request (registration error, schema
    /// mismatch, out-of-order timestamps, ...).
    Engine(String),
    /// The query exists but belongs to another session.
    NotOwner {
        /// The query that was addressed.
        query: String,
    },
    /// No query with that name is registered.
    UnknownQuery(String),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The server is at its connection cap.
    AtCapacity,
    /// The peer sent a well-formed frame that is invalid in context
    /// (unknown opcode for the direction, response where a request was
    /// expected, ...).
    Protocol(String),
}

impl ServerError {
    /// Stable numeric code used in `Error` response frames.
    pub fn code(&self) -> u16 {
        match self {
            ServerError::Io(_) => 1,
            ServerError::Wire(_) => 2,
            ServerError::Engine(_) => 3,
            ServerError::NotOwner { .. } => 4,
            ServerError::UnknownQuery(_) => 5,
            ServerError::ShuttingDown => 6,
            ServerError::AtCapacity => 7,
            ServerError::Protocol(_) => 8,
        }
    }

    pub(crate) fn from_code(code: u16, message: String) -> ServerError {
        match code {
            2 => ServerError::Wire(WireFault::Decode(message)),
            3 => ServerError::Engine(message),
            4 => ServerError::NotOwner { query: message },
            5 => ServerError::UnknownQuery(message),
            6 => ServerError::ShuttingDown,
            7 => ServerError::AtCapacity,
            8 => ServerError::Protocol(message),
            _ => ServerError::Io(message),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(m) => write!(f, "i/o error: {m}"),
            ServerError::Wire(w) => write!(f, "wire error: {w}"),
            ServerError::Engine(m) => write!(f, "engine error: {m}"),
            ServerError::NotOwner { query } => {
                write!(f, "query `{query}` is owned by another session")
            }
            ServerError::UnknownQuery(q) => write!(f, "no query named `{q}`"),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::AtCapacity => write!(f, "server is at its connection cap"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e.to_string())
    }
}

impl From<WireFault> for ServerError {
    fn from(w: WireFault) -> Self {
        ServerError::Wire(w)
    }
}

/// Result alias for server operations.
pub type Result<T> = std::result::Result<T, ServerError>;

/// Append one emission to `out` exactly as push subscribers receive it:
/// the [`ComplexEvent`] `Display` form. Centralized so the WS push path,
/// the HTTP ingest response, and the wire codec can never drift apart.
pub(crate) fn render_emission(out: &mut String, ce: &ComplexEvent) {
    use std::fmt::Write as _;
    write!(out, "{ce}").expect("writing to a String cannot fail");
}

/// A peer that sends `bytes` and then falls silent: every later read
/// fails with `kind`, as a socket read timeout does. It panics on its
/// 1,000th read, so a reader that retries the timeout fails its test
/// instead of hanging it.
#[cfg(test)]
pub(crate) struct SilentPeer {
    bytes: std::collections::VecDeque<u8>,
    kind: std::io::ErrorKind,
    reads: usize,
}

#[cfg(test)]
impl SilentPeer {
    pub(crate) fn new(bytes: &[u8], kind: std::io::ErrorKind) -> Self {
        SilentPeer {
            bytes: bytes.iter().copied().collect(),
            kind,
            reads: 0,
        }
    }
}

#[cfg(test)]
impl std::io::Read for SilentPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        assert!(self.reads < 1_000, "the reader retried a timeout");
        if self.bytes.is_empty() {
            return Err(self.kind.into());
        }
        self.bytes.read(buf)
    }
}
