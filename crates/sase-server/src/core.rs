//! The session core shared by all three protocols: the single-writer
//! engine thread, the subscriber fan-out hub, and the server's own
//! metrics handles.
//!
//! Every mutating request — ingest, register, unregister — funnels
//! through one bounded command channel into one thread that owns the
//! [`Backend`]. That serialization is what makes wire traffic
//! byte-identical to an embedded engine (the differential test pins it),
//! and the bounded channel is the first backpressure stage: when the
//! engine falls behind, producers block, TCP flow control propagates, and
//! clients slow down instead of the server buffering without bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use parking_lot::Mutex;
use sase_core::analyze::Diagnostic;
use sase_core::event::Event;
use sase_core::output::ComplexEvent;
use sase_core::runtime::RuntimeStats;
use sase_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};

use crate::wire::TickMode;
use crate::{render_emission, Backend, Result, ServerError};

/// What happens when an emission finds a subscriber's fan-out queue
/// (`ServerConfig::subscriber_queue` frames in user space; what the
/// kernel has already accepted is not counted) full. Under either policy
/// the engine thread never waits for the subscriber: the ingest is
/// acknowledged and other subscribers are served as usual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlowPolicy {
    /// Drop *this* push for that subscriber and count it in
    /// `sase_server_pushes_dropped_total`; frames already queued are
    /// kept. The subscriber stays connected and misses the emissions it
    /// was too slow for, so `sase_server_pushes_total` +
    /// `sase_server_pushes_dropped_total` always equals the emissions
    /// offered to subscribers.
    #[default]
    Drop,
    /// Disconnect the subscriber; a consumer that cannot keep up stops
    /// being a consumer.
    Disconnect,
}

/// A message bound for one WebSocket connection's writer thread. All
/// writes to a WS socket go through this queue so the engine thread never
/// blocks on a peer's receive window.
pub(crate) enum WsOut {
    /// A protocol reply (handshake follow-ups, `subscribed`, `pong`, ...),
    /// sent with a blocking send from the connection's own reader thread.
    /// The empty string is the teardown wake-up.
    Control(String),
    /// Reply to a WebSocket ping, echoing its payload.
    Pong(Vec<u8>),
    /// A fan-out push from the engine thread; `enqueued` feeds the
    /// `sase_server_push_send_latency_ns` histogram when the writer
    /// finally flushes it.
    Push {
        /// Pre-rendered `event <ComplexEvent>` line, shared across
        /// subscribers of the same query.
        text: Arc<str>,
        /// When the engine enqueued the push.
        enqueued: Instant,
    },
}

/// One push subscriber: the sending half of a bounded queue drained by a
/// WS writer thread.
pub(crate) struct Subscriber {
    pub session: u64,
    pub tx: mpsc::SyncSender<WsOut>,
    /// `sase_server_fanout_queue_depth{session=...}` — incremented here,
    /// decremented by the writer as it drains.
    pub depth: Gauge,
    pub policy: SlowPolicy,
    /// Set when the subscriber is disconnected for falling behind; the
    /// writer thread polls it.
    pub dead: Arc<AtomicBool>,
    /// The connection's socket, so [`SlowPolicy::Disconnect`] can
    /// actively unblock the connection's reader thread.
    pub sock: Arc<std::net::TcpStream>,
}

/// The fan-out hub: query name → subscribers. Shared by the engine thread
/// (publishing through per-query sinks) and connection threads
/// (subscribing/unsubscribing).
pub(crate) struct Hub {
    inner: Mutex<HashMap<String, Vec<Subscriber>>>,
    pushes: Counter,
    dropped: Counter,
}

impl Hub {
    pub fn new(metrics: &ServerMetrics) -> Self {
        Hub {
            inner: Mutex::new(HashMap::new()),
            pushes: metrics.pushes.clone(),
            dropped: metrics.pushes_dropped.clone(),
        }
    }

    /// Deliver one emission to every live subscriber of `query`. Renders
    /// at most once; a full queue is resolved by the subscriber's
    /// [`SlowPolicy`], never by blocking the engine.
    pub fn publish(&self, query: &str, ce: &ComplexEvent) {
        let mut map = self.inner.lock();
        let Some(subs) = map.get_mut(query) else {
            return;
        };
        if subs.is_empty() {
            return;
        }
        let mut line = String::from("event ");
        render_emission(&mut line, ce);
        let text: Arc<str> = Arc::from(line);
        let (pushes, dropped) = (&self.pushes, &self.dropped);
        subs.retain(|s| {
            if s.dead.load(Ordering::Relaxed) {
                return false;
            }
            match s.tx.try_send(WsOut::Push {
                text: Arc::clone(&text),
                enqueued: Instant::now(),
            }) {
                Ok(()) => {
                    s.depth.add(1.0);
                    pushes.inc();
                    true
                }
                Err(mpsc::TrySendError::Full(_)) => match s.policy {
                    SlowPolicy::Drop => {
                        dropped.inc();
                        true
                    }
                    SlowPolicy::Disconnect => {
                        s.dead.store(true, Ordering::Relaxed);
                        let _ = s.sock.shutdown(std::net::Shutdown::Both);
                        false
                    }
                },
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        });
    }

    pub fn subscribe(&self, query: &str, sub: Subscriber) {
        self.inner
            .lock()
            .entry(query.to_string())
            .or_default()
            .push(sub);
    }

    /// Drop one session's subscription to one query. Returns whether it
    /// existed.
    pub fn unsubscribe(&self, query: &str, session: u64) -> bool {
        let mut map = self.inner.lock();
        let Some(subs) = map.get_mut(query) else {
            return false;
        };
        let before = subs.len();
        subs.retain(|s| s.session != session);
        before != subs.len()
    }

    /// Drop every subscription a session holds (connection teardown).
    pub fn drop_session(&self, session: u64) {
        let mut map = self.inner.lock();
        for subs in map.values_mut() {
            subs.retain(|s| s.session != session);
        }
    }

    /// Drop every subscriber of a query (unregistration).
    pub fn drop_query(&self, query: &str) {
        self.inner.lock().remove(query);
    }
}

/// The server's own metric handles, resolved once against a dedicated
/// registry. `GET /metrics` and the `Metrics` opcode merge this
/// registry's snapshot with the backend's [`EventProcessor::metrics`]
/// snapshot, so one scrape covers both the deployment and the serving
/// layer.
///
/// [`EventProcessor::metrics`]: sase_core::processor::EventProcessor::metrics
pub(crate) struct ServerMetrics {
    pub registry: MetricsRegistry,
    /// `sase_server_connections` — currently open connections.
    pub connections: Gauge,
    /// `sase_server_sessions_total` — sessions ever accepted.
    pub sessions_total: Counter,
    /// `sase_server_ingest_batches_total` (all protocols).
    pub ingest_batches: Counter,
    /// `sase_server_ingest_events_total`.
    pub ingest_events: Counter,
    /// `sase_server_wire_errors_total` — framing faults that tore a
    /// connection down.
    pub wire_errors: Counter,
    /// `sase_server_pushes_total`.
    pub pushes: Counter,
    /// `sase_server_pushes_dropped_total`.
    pub pushes_dropped: Counter,
    /// `sase_server_push_send_latency_ns` — enqueue-to-flush latency of
    /// fan-out pushes, recorded by WS writer threads.
    pub send_latency: Histogram,
}

impl ServerMetrics {
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServerMetrics {
            connections: registry.gauge("sase_server_connections", &[]),
            sessions_total: registry.counter("sase_server_sessions_total", &[]),
            ingest_batches: registry.counter("sase_server_ingest_batches_total", &[]),
            ingest_events: registry.counter("sase_server_ingest_events_total", &[]),
            wire_errors: registry.counter("sase_server_wire_errors_total", &[]),
            pushes: registry.counter("sase_server_pushes_total", &[]),
            pushes_dropped: registry.counter("sase_server_pushes_dropped_total", &[]),
            send_latency: registry.histogram("sase_server_push_send_latency_ns", &[]),
            registry,
        }
    }

    pub fn conn_total(&self, proto: &str) -> Counter {
        self.registry
            .counter("sase_server_connections_total", &[("proto", proto)])
    }

    pub fn queue_depth(&self, session: u64) -> Gauge {
        self.registry.gauge(
            "sase_server_fanout_queue_depth",
            &[("session", &session.to_string())],
        )
    }

    pub fn http_requests(&self, path: &str) -> Counter {
        self.registry
            .counter("sase_server_http_requests_total", &[("path", path)])
    }
}

/// Who registered a query, for permissioned unregistration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// A wire session; only it may unregister the query.
    Session(u64),
    /// Registered over HTTP or pre-registered on the backend before
    /// serving; no wire session may unregister it.
    Unowned,
}

/// A command for the engine thread. Each carries its own typed reply
/// channel; requests without one are fire-and-forget.
pub(crate) enum Cmd {
    Ingest {
        stream: Option<String>,
        ticks: TickMode,
        events: Vec<Event>,
        reply: mpsc::Sender<Result<Vec<ComplexEvent>>>,
    },
    Register {
        session: Option<u64>,
        name: String,
        src: String,
        reply: mpsc::Sender<Result<Vec<Diagnostic>>>,
    },
    Unregister {
        session: Option<u64>,
        name: String,
        reply: mpsc::Sender<Result<bool>>,
    },
    Check {
        src: String,
        reply: mpsc::Sender<Vec<Diagnostic>>,
    },
    Stats {
        name: String,
        reply: mpsc::Sender<Result<RuntimeStats>>,
    },
    Metrics {
        reply: mpsc::Sender<MetricsSnapshot>,
    },
    Queries {
        reply: mpsc::Sender<Vec<String>>,
    },
    Explain {
        name: String,
        reply: mpsc::Sender<Result<String>>,
    },
    /// Subscribe `sub` to `query`'s emissions; fails with `UnknownQuery`
    /// if the query is not registered. Runs on the engine thread because
    /// it must atomically check existence and install the fan-out sink.
    Subscribe {
        query: String,
        sub: Subscriber,
        reply: mpsc::Sender<Result<()>>,
    },
    /// Stop the loop: drain already-queued commands (the channel is FIFO,
    /// so everything sent before this is processed first), flush the
    /// backend, and hand it back.
    Shutdown,
}

/// Send one command to the engine thread and wait for its typed reply.
/// The bounded channel blocks when the engine is behind — that is the
/// backpressure propagating to the caller (and from there down its TCP
/// connection). A closed channel means the server shut down.
pub(crate) fn call<T>(
    tx: &crossbeam::channel::Sender<Cmd>,
    build: impl FnOnce(mpsc::Sender<T>) -> Cmd,
) -> Result<T> {
    let (rtx, rrx) = mpsc::channel();
    tx.send(build(rtx)).map_err(|_| ServerError::ShuttingDown)?;
    rrx.recv().map_err(|_| ServerError::ShuttingDown)
}

fn engine_err(e: sase_core::error::SaseError) -> ServerError {
    ServerError::Engine(e.to_string())
}

/// The single-writer engine loop. Owns the backend until shutdown, then
/// returns it through `done` so the host can keep using (or dropping) the
/// deployment after the server is gone.
pub(crate) fn run_engine(
    mut backend: Box<dyn Backend>,
    rx: crossbeam::channel::Receiver<Cmd>,
    hub: Arc<Hub>,
    metrics: Arc<ServerMetrics>,
    done: mpsc::Sender<Box<dyn Backend>>,
) {
    // Per-stream monotonic clocks for server-assigned ticks. Explicit
    // batches advance them too, so mixing modes on one stream never
    // rewinds time.
    let mut clocks: HashMap<Option<String>, u64> = HashMap::new();
    // Queries that already have a fan-out sink installed.
    let mut sinked: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut owners: HashMap<String, Owner> = HashMap::new();

    let install_sink = |backend: &mut Box<dyn Backend>,
                        sinked: &mut std::collections::HashSet<String>,
                        hub: &Arc<Hub>,
                        name: &str|
     -> sase_core::error::Result<()> {
        if sinked.contains(name) {
            return Ok(());
        }
        let hub = Arc::clone(hub);
        let query = name.to_string();
        backend.add_sink(
            name,
            Box::new(move |ce: &ComplexEvent| hub.publish(&query, ce)),
        )?;
        sinked.insert(name.to_string());
        Ok(())
    };

    for cmd in rx.iter() {
        match cmd {
            Cmd::Ingest {
                stream,
                ticks,
                events,
                reply,
            } => {
                metrics.ingest_batches.inc();
                metrics.ingest_events.add(events.len() as u64);
                let clock = clocks.entry(stream.clone()).or_insert(0);
                let events = match ticks {
                    TickMode::Explicit => {
                        if let Some(max) = events.iter().map(|e| e.timestamp()).max() {
                            *clock = (*clock).max(max);
                        }
                        events
                    }
                    // Decode validated every event; each is copied to its
                    // tick as it is, without the registry.
                    TickMode::ServerAssigned => events
                        .iter()
                        .map(|e| {
                            *clock += 1;
                            e.with_timestamp(*clock)
                        })
                        .collect(),
                };
                // A failed batch answers with its error alone: the
                // emissions made before it have already reached the
                // subscribers, whose sinks fire as they happen.
                let mut out = Vec::new();
                let result = backend.ingest(stream.as_deref(), &events, &mut out, None);
                let _ = reply.send(result.map(|()| out).map_err(engine_err));
            }
            Cmd::Register {
                session,
                name,
                src,
                reply,
            } => {
                let diags = backend.check(&src);
                let out = match backend.register(&name, &src) {
                    Err(e) => Err(engine_err(e)),
                    Ok(()) => {
                        owners.insert(name.clone(), session.map_or(Owner::Unowned, Owner::Session));
                        install_sink(&mut backend, &mut sinked, &hub, &name)
                            .map(|()| diags)
                            .map_err(engine_err)
                    }
                };
                let _ = reply.send(out);
            }
            Cmd::Unregister {
                session,
                name,
                reply,
            } => {
                let out = if !backend.query_names().iter().any(|n| n == &name) {
                    Ok(false)
                } else {
                    let owner = owners.get(&name).copied().unwrap_or(Owner::Unowned);
                    let allowed = match (owner, session) {
                        (Owner::Session(o), Some(s)) => o == s,
                        // Server-side callers (HTTP has no session) may
                        // drop anything.
                        (_, None) => true,
                        (Owner::Unowned, Some(_)) => false,
                    };
                    if !allowed {
                        Err(ServerError::NotOwner {
                            query: name.clone(),
                        })
                    } else {
                        let existed = backend.unregister(&name);
                        owners.remove(&name);
                        sinked.remove(&name);
                        hub.drop_query(&name);
                        Ok(existed)
                    }
                };
                let _ = reply.send(out);
            }
            Cmd::Check { src, reply } => {
                let _ = reply.send(backend.check(&src));
            }
            Cmd::Stats { name, reply } => {
                let _ = reply.send(backend.stats(&name).map_err(engine_err));
            }
            Cmd::Metrics { reply } => {
                let _ = reply.send(backend.metrics());
            }
            Cmd::Queries { reply } => {
                let _ = reply.send(backend.query_names());
            }
            Cmd::Explain { name, reply } => {
                let _ = reply.send(backend.explain(&name).map_err(engine_err));
            }
            Cmd::Subscribe { query, sub, reply } => {
                let out = if !backend.query_names().iter().any(|n| n == &query) {
                    Err(ServerError::UnknownQuery(query.clone()))
                } else {
                    match install_sink(&mut backend, &mut sinked, &hub, &query) {
                        Err(e) => Err(engine_err(e)),
                        Ok(()) => {
                            hub.subscribe(&query, sub);
                            Ok(())
                        }
                    }
                };
                let _ = reply.send(out);
            }
            Cmd::Shutdown => break,
        }
    }
    // Acknowledged ingest becomes durable before the backend is handed
    // back; volatile backends no-op.
    let _ = backend.flush();
    let _ = done.send(backend);
}
