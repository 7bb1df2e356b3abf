//! The server proper: listener, protocol sniffing, per-connection
//! threads, the WebSocket push session, and graceful shutdown.
//!
//! One listener port serves all three protocols. The first four bytes of
//! a connection decide its fate: an ASCII HTTP method selects the
//! HTTP/1.1 handler (WebSocket upgrades arrive as HTTP `GET`s), anything
//! else is the line protocol — whose length prefix always starts with a
//! zero byte, so the two are unambiguous.
//!
//! Shutdown protocol (`ServerHandle::shutdown`):
//!
//! 1. the accept loop stops taking connections;
//! 2. every open connection's read half is shut down, unblocking reader
//!    threads; requests already running (or waiting for the deployment
//!    lock) stay in flight;
//! 3. connection threads finish what is in flight and are joined. One
//!    still running after a one-second grace has its socket shut both
//!    ways: that fails the `write` of a writer whose peer stopped reading
//!    (and frees a push session's reader queued behind that writer), so
//!    the join always returns; a request that slow loses its
//!    acknowledgement, not its effect;
//! 4. with every connection thread joined, nothing else can reach the
//!    deployment: the backend is taken out of its lock, flushed — fsyncing
//!    the WAL on durable deployments — and handed back, also when a
//!    panicking request has poisoned it.
//!
//! An ingest batch that was *acknowledged* before `shutdown` returned is
//! therefore durable on durable backends; batches cut off mid-request
//! were never acknowledged and may be dropped.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sase_core::event::SchemaRegistry;

use crate::core::{Deployment, Hub, ServerMetrics, Subscriber, WsOut};
use crate::http;
use crate::wire::{self, Request, ResponseParts};
use crate::ws;
use crate::{Backend, Result, ServerError};

pub use crate::core::SlowPolicy;

/// Stack size for WS writer threads, which only frame and write: small
/// stacks keep thousand-subscriber fan-out cheap. Connection threads call
/// into the deployment, whose recursive-descent parser needs more (a
/// query nested 400 parentheses deep overflows 256 KiB in a release
/// build), so they keep the default stack.
const WRITER_STACK: usize = 256 * 1024;

/// How long [`ServerHandle::shutdown`] lets connection threads finish on
/// their own before shutting the sockets of those still running.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Most bytes a push writer gathers into one socket write; with the
/// subscriber queue it bounds what one subscriber holds in user space.
const WRITE_BATCH: usize = 64 * 1024;

/// Read buffer of a line-protocol connection: large enough that a typical
/// ingest frame (a few hundred events, tens of KiB) is one socket read.
const READ_BUFFER: usize = 64 * 1024;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections beyond this are answered with a typed `AtCapacity`
    /// rejection (line protocol) or `503` (HTTP) and closed.
    pub max_connections: usize,
    /// Bound of each push subscriber's fan-out queue: at most this many
    /// frames are queued in user space per subscriber (plus the one write,
    /// at most 64 KiB and one frame, its writer thread is in). Bytes the
    /// kernel has accepted from the
    /// writer — its send buffer, the peer's receive buffer — are the
    /// peer's and are neither counted nor limited here, so a subscriber
    /// that stops reading fills those first and overflows this queue
    /// only afterwards; a burst that outruns the writer overflows it at
    /// once. See `docs/wire-protocol.md`, "Fan-out bound".
    pub subscriber_queue: usize,
    /// What happens to an emission that finds a subscriber's queue full.
    pub slow_policy: SlowPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 4096,
            subscriber_queue: 128,
            slow_policy: SlowPolicy::Drop,
        }
    }
}

/// Shared server state: what every connection thread needs.
pub(crate) struct Ctx {
    pub deployment: Deployment,
    pub hub: Arc<Hub>,
    pub metrics: Arc<ServerMetrics>,
    pub schemas: SchemaRegistry,
    pub shutdown: Arc<AtomicBool>,
    pub config: ServerConfig,
}

/// The serving entry point; see [`Server::serve`].
pub struct Server;

impl Server {
    /// Bind `addr` and serve `backend` until
    /// [`ServerHandle::shutdown`]. Port `0` picks an ephemeral port;
    /// [`ServerHandle::local_addr`] reports the bound address.
    pub fn serve(
        addr: impl ToSocketAddrs,
        backend: Box<dyn Backend>,
        config: ServerConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let metrics = Arc::new(ServerMetrics::new());
        let hub = Arc::new(Hub::new(&metrics));
        let schemas = backend.schemas().clone();
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            deployment: Deployment::new(backend, Arc::clone(&hub), Arc::clone(&metrics)),
            hub,
            metrics,
            schemas,
            shutdown: Arc::clone(&shutdown),
            config,
        });
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let ctx = Arc::clone(&ctx);
            let conns = Arc::clone(&conns);
            let joins = Arc::clone(&joins);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("sase-accept".into())
                .spawn(move || accept_loop(listener, ctx, conns, joins, shutdown))
                .map_err(|e| ServerError::Io(e.to_string()))?
        };

        Ok(ServerHandle {
            local_addr,
            shutdown,
            ctx,
            accept: Some(accept),
            conns,
            joins,
        })
    }
}

/// Handle to a running server; dropping it does *not* stop the server —
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Gracefully stop the server (see the module docs for the exact
    /// protocol) and hand the backend — flushed, with every
    /// acknowledged batch applied — back to the caller.
    pub fn shutdown(mut self) -> Box<dyn Backend> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has stopped, so the registry is final: unblock
        // every reader while letting in-flight responses still write.
        for stream in self.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // A connection thread leaves `conns` as it ends. One whose peer has
        // stopped reading never would: its writer sits in `write` on a full
        // socket, and a push session's reader may be queued behind that
        // writer with a reply. Those sockets are cut, which fails the write
        // and unwinds the session.
        let deadline = Instant::now() + DRAIN_GRACE;
        while !self.conns.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for stream in self.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let joins: Vec<_> = std::mem::take(&mut *self.joins.lock());
        for j in joins {
            let _ = j.join();
        }
        // The accept loop and every connection thread are joined, and with
        // them every other holder of the context.
        let ctx = Arc::into_inner(self.ctx).expect("every thread sharing the context was joined");
        ctx.deployment.into_backend()
    }
}

fn accept_loop(
    listener: TcpListener,
    ctx: Arc<Ctx>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown: Arc<AtomicBool>,
) {
    let next_session = AtomicU64::new(1);
    let active = Arc::new(AtomicUsize::new(0));
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Acks and pushes are small and latency-bound: never hold
                // one back waiting for the peer to ACK the previous one.
                let _ = stream.set_nodelay(true);
                let session = next_session.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().insert(session, clone);
                }
                active.fetch_add(1, Ordering::SeqCst);
                ctx.metrics.connections.add(1.0);
                ctx.metrics.sessions_total.inc();
                let (tctx, tconns, tactive) =
                    (Arc::clone(&ctx), Arc::clone(&conns), Arc::clone(&active));
                let spawned = std::thread::Builder::new()
                    .name(format!("sase-conn-{session}"))
                    .spawn(move || {
                        let over_cap = tactive.load(Ordering::SeqCst) > tctx.config.max_connections;
                        connection(&tctx, session, stream, over_cap);
                        tconns.lock().remove(&session);
                        tactive.fetch_sub(1, Ordering::SeqCst);
                        tctx.metrics.connections.add(-1.0);
                        tctx.hub.drop_session(session);
                    });
                match spawned {
                    Ok(handle) => joins.lock().push(handle),
                    Err(_) => {
                        // Thread exhaustion: undo the bookkeeping and drop
                        // the socket.
                        conns.lock().remove(&session);
                        active.fetch_sub(1, Ordering::SeqCst);
                        ctx.metrics.connections.add(-1.0);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

enum Sniffed {
    Http,
    Line,
    /// Peer closed before sending four bytes.
    Gone,
}

fn sniff(stream: &mut TcpStream, buf: &mut [u8; 4]) -> Sniffed {
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Sniffed::Gone,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::Interrupted
                    || e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return Sniffed::Gone,
        }
    }
    const METHODS: [&[u8; 4]; 7] = [
        b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"PATC", b"OPTI",
    ];
    if METHODS.iter().any(|m| *m == buf) {
        Sniffed::Http
    } else {
        Sniffed::Line
    }
}

/// One connection, sniff to teardown. Errors tear down *this* connection
/// only; the listener and other sessions are unaffected.
fn connection(ctx: &Arc<Ctx>, session: u64, mut stream: TcpStream, over_cap: bool) {
    let mut first = [0u8; 4];
    match sniff(&mut stream, &mut first) {
        Sniffed::Gone => {}
        Sniffed::Http => {
            ctx.metrics.conn_total("http").inc();
            serve_http(ctx, session, stream, first, over_cap);
        }
        Sniffed::Line => {
            ctx.metrics.conn_total("line").inc();
            serve_line(ctx, session, stream, first, over_cap);
        }
    }
}

fn serve_http(ctx: &Arc<Ctx>, session: u64, stream: TcpStream, first: [u8; 4], over_cap: bool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // One buffered reader for the connection's lifetime: the request head
    // comes out of one or two socket reads, and whatever the peer sent
    // behind it reaches the WebSocket session after an upgrade.
    let mut reader = BufReader::new((&first[..]).chain(read_half));
    let mut write_half = stream;
    let req = match http::read_request(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let _ = http::respond(
                &mut write_half,
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                &format!("{e}\n"),
            );
            return;
        }
    };
    if over_cap || ctx.shutdown.load(Ordering::SeqCst) {
        let _ = http::respond(
            &mut write_half,
            503,
            "Service Unavailable",
            "text/plain; charset=utf-8",
            "server is at capacity or shutting down\n",
        );
        return;
    }
    match http::handle_request(ctx, &req, &mut write_half) {
        Ok(http::HttpOutcome::Done) | Err(_) => {}
        Ok(http::HttpOutcome::Upgrade) => {
            ctx.metrics.conn_total("ws").inc();
            ws_session(ctx, session, write_half, reader);
        }
    }
}

fn serve_line(ctx: &Arc<Ctx>, session: u64, stream: TcpStream, first: [u8; 4], over_cap: bool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // One buffered reader for the connection's lifetime: a frame's length
    // prefix, payload and CRC come out of one or two socket reads.
    let mut reader = BufReader::with_capacity(READ_BUFFER, (&first[..]).chain(read_half));
    let mut write_half = stream;
    if over_cap {
        let _ = write_half.write_all(&wire::error_frame(&ServerError::AtCapacity));
        return;
    }
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            let _ = write_half.write_all(&wire::error_frame(&ServerError::ShuttingDown));
            break;
        }
        let payload = match wire::read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(e) => {
                // Framing damage: answer with the typed fault when the
                // socket still writes, then tear this connection down.
                ctx.metrics.wire_errors.inc();
                let _ = write_half.write_all(&wire::error_frame(&e));
                break;
            }
        };
        let request = match wire::decode_request(&payload, &ctx.schemas) {
            Ok(r) => r,
            Err(fault) => {
                ctx.metrics.wire_errors.inc();
                let _ = write_half.write_all(&wire::error_frame(&ServerError::Wire(fault)));
                break;
            }
        };
        let frame = line_response(ctx, session, request);
        if write_half.write_all(&frame).is_err() {
            break;
        }
    }
}

/// Execute one line-protocol request and build its complete response
/// frame.
fn line_response(ctx: &Ctx, session: u64, request: Request) -> Vec<u8> {
    let deployment = &ctx.deployment;
    let frame = match request {
        Request::Ping => Ok(wire::response_frame(&ResponseParts::Pong)),
        Request::Ingest {
            stream,
            ticks,
            events,
        } => deployment
            .ingest(stream, ticks, events)
            .map(|emissions| wire::response_frame(&ResponseParts::Ingested(&emissions))),
        Request::Register { name, src } => deployment
            .register(Some(session), &name, &src)
            .map(|diags| wire::response_frame(&ResponseParts::Registered(&diags))),
        Request::Unregister { name } => deployment
            .unregister(Some(session), &name)
            .map(|existed| wire::response_frame(&ResponseParts::Unregistered(existed))),
        Request::Check { src } => deployment
            .check(&src)
            .map(|diags| wire::response_frame(&ResponseParts::Checked(&diags))),
        Request::Stats { name } => deployment
            .stats(&name)
            .map(|stats| wire::response_frame(&ResponseParts::Stats(&stats))),
        Request::Metrics => deployment.metrics().map(|snap| {
            wire::response_frame(&ResponseParts::Metrics(&sase_obs::render_prometheus(&snap)))
        }),
        Request::Queries => deployment
            .queries()
            .map(|names| wire::response_frame(&ResponseParts::Queries(&names))),
        Request::Explain { name } => deployment
            .explain(&name)
            .map(|text| wire::response_frame(&ResponseParts::Explain(&text))),
    };
    frame.unwrap_or_else(|e| wire::error_frame(&e))
}

/// The push session: reader half of an upgraded WebSocket connection.
/// All socket writes happen on a dedicated writer thread fed by a bounded
/// queue — an ingesting connection thread enqueues pushes with `try_send`
/// and never blocks on a peer.
fn ws_session(ctx: &Arc<Ctx>, session: u64, stream: TcpStream, mut reader: impl Read) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sock = Arc::new(stream);
    let dead = Arc::new(AtomicBool::new(false));
    let (push_tx, push_rx) = mpsc::sync_channel::<WsOut>(ctx.config.subscriber_queue);
    let depth = ctx.metrics.queue_depth(session);

    let writer = {
        let send_latency = ctx.metrics.send_latency.clone();
        let depth = depth.clone();
        let dead = Arc::clone(&dead);
        std::thread::Builder::new()
            .name(format!("sase-ws-writer-{session}"))
            .stack_size(WRITER_STACK)
            .spawn(move || ws_writer(write_half, push_rx, send_latency, depth, dead))
    };
    let Ok(writer) = writer else {
        return;
    };

    while let Ok(Some(frame)) = ws::read_frame(&mut reader, true) {
        let reply = match frame {
            (ws::Opcode::Close, _) => {
                let _ = push_tx.send(WsOut::Control(String::new())); // wake writer
                break;
            }
            (ws::Opcode::Ping, payload) => {
                let _ = push_tx.send(WsOut::Pong(payload));
                continue;
            }
            (ws::Opcode::Pong, _) => continue,
            (ws::Opcode::Binary, _) => "error binary frames are not part of this protocol".into(),
            (ws::Opcode::Text, payload) => match std::str::from_utf8(&payload) {
                Err(_) => "error non-UTF-8 text frame".into(),
                Ok(text) => ws_command(ctx, session, text, &push_tx, &sock, &dead),
            },
        };
        if !reply.is_empty() && push_tx.send(WsOut::Control(reply)).is_err() {
            break;
        }
        if dead.load(Ordering::Relaxed) || ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    ctx.hub.drop_session(session);
    drop(push_tx);
    let _ = writer.join();
}

/// Execute one text command of the subscription protocol; returns the
/// control reply (empty string = no reply).
fn ws_command(
    ctx: &Arc<Ctx>,
    session: u64,
    text: &str,
    push_tx: &mpsc::SyncSender<WsOut>,
    sock: &Arc<TcpStream>,
    dead: &Arc<AtomicBool>,
) -> String {
    let mut parts = text.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("ping"), None, _) => "pong".into(),
        (Some("subscribe"), Some(query), None) => {
            let sub = Subscriber {
                session,
                tx: push_tx.clone(),
                depth: ctx.metrics.queue_depth(session),
                policy: ctx.config.slow_policy,
                dead: Arc::clone(dead),
                sock: Arc::clone(sock),
            };
            match ctx.deployment.subscribe(query, sub) {
                Ok(()) => format!("subscribed {query}"),
                Err(e) => format!("error {e}"),
            }
        }
        (Some("unsubscribe"), Some(query), None) => {
            if ctx.hub.unsubscribe(query, session) {
                format!("unsubscribed {query}")
            } else {
                format!("error no subscription to `{query}`")
            }
        }
        _ => format!("error unknown command `{text}`"),
    }
}

/// Drains a WS connection's outbound queue onto the socket. Exits when
/// every sender is gone (session teardown) or a write fails.
///
/// Each wake-up takes everything already queued (up to [`WRITE_BATCH`]
/// bytes), frames it into one buffer and issues one `write_all`: pushes
/// that were queued together cost one syscall and, with Nagle off, leave
/// in as few segments as they fit. The `depth` gauge drops as each push
/// leaves the queue and `send_latency` is recorded per push once the
/// write holding it returns.
fn ws_writer(
    mut sock: TcpStream,
    rx: mpsc::Receiver<WsOut>,
    send_latency: sase_obs::Histogram,
    depth: sase_obs::Gauge,
    dead: Arc<AtomicBool>,
) {
    let mut buf = Vec::new();
    let mut enqueued_at = Vec::new();
    while let Ok(first) = rx.recv() {
        if dead.load(Ordering::Relaxed) {
            break;
        }
        buf.clear();
        enqueued_at.clear();
        let mut close = false;
        for msg in std::iter::once(first).chain(rx.try_iter()) {
            match msg {
                WsOut::Control(text) if text.is_empty() => {
                    // Teardown wake-up from the reader.
                    ws::put_frame(&mut buf, ws::Opcode::Close, &[], None);
                    close = true;
                    break;
                }
                WsOut::Control(text) => {
                    ws::put_frame(&mut buf, ws::Opcode::Text, text.as_bytes(), None)
                }
                WsOut::Pong(payload) => ws::put_frame(&mut buf, ws::Opcode::Pong, &payload, None),
                WsOut::Push { text, enqueued } => {
                    depth.add(-1.0);
                    ws::put_frame(&mut buf, ws::Opcode::Text, text.as_bytes(), None);
                    enqueued_at.push(enqueued);
                }
            }
            if buf.len() >= WRITE_BATCH {
                break;
            }
        }
        let written = sock.write_all(&buf);
        for &enqueued in &enqueued_at {
            send_latency.record(elapsed_ns(enqueued));
        }
        if close || written.is_err() {
            break;
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
