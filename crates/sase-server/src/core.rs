//! The session core shared by all three protocols: the deployment behind
//! its one lock, the subscriber fan-out hub, and the server's own metrics
//! handles.
//!
//! Every request that needs the backend — ingest, register, unregister,
//! check, stats, metrics, queries, explain, subscribe — is a method of
//! [`Deployment`], called directly by the connection thread that decoded
//! it. The lock serializes them, which is what makes wire traffic
//! byte-identical to an embedded engine (the differential test pins it).
//! Decoding and response encoding happen outside the lock. The lock is
//! also the backpressure: each connection has at most one request in
//! flight, so concurrency is bounded by `ServerConfig::max_connections`,
//! and a connection waiting for the lock stops reading, so TCP flow
//! control slows its client instead of the server buffering without bound.

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
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
/// the ingesting thread never waits for the subscriber: the ingest is
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
/// writes to a WS socket go through this queue so the ingesting thread
/// never blocks on a peer's receive window.
pub(crate) enum WsOut {
    /// A protocol reply (handshake follow-ups, `subscribed`, `pong`, ...),
    /// sent with a blocking send from the connection's own reader thread.
    /// The empty string is the teardown wake-up.
    Control(String),
    /// Reply to a WebSocket ping, echoing its payload.
    Pong(Vec<u8>),
    /// A fan-out push from the ingesting thread; `enqueued` feeds the
    /// `sase_server_push_send_latency_ns` histogram when the writer
    /// finally flushes it.
    Push {
        /// Pre-rendered `event <ComplexEvent>` line, shared across
        /// subscribers of the same query.
        text: Arc<str>,
        /// When the ingesting thread enqueued the push.
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

/// The fan-out hub: query name → subscribers. Shared by ingest
/// (publishing through per-query sinks, under the deployment lock) and
/// connection threads (subscribing/unsubscribing). Its own lock is only
/// ever taken after the deployment's, or alone.
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
    /// [`SlowPolicy`], never by blocking the ingest.
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

fn engine_err(e: sase_core::error::SaseError) -> ServerError {
    ServerError::Engine(e.to_string())
}

/// The served deployment and the state the server keeps beside it, behind
/// one lock that is the only way to reach the backend. Connection threads
/// call these methods directly: requests from every session run one at a
/// time, in lock order, which is the single-engine ordering the
/// differential tests pin. A request waiting for the lock holds its
/// connection thread, which stops reading its socket, so TCP flow control
/// reaches the client.
pub(crate) struct Deployment {
    state: Mutex<State>,
    hub: Arc<Hub>,
    metrics: Arc<ServerMetrics>,
}

struct State {
    backend: Box<dyn Backend>,
    /// Per-stream monotonic clocks for server-assigned ticks. Explicit
    /// batches advance them too, so mixing modes on one stream never
    /// rewinds time.
    clocks: HashMap<Option<String>, u64>,
    /// Queries that already have a fan-out sink installed.
    sinked: HashSet<String>,
    owners: HashMap<String, Owner>,
    /// Set by the first backend call that panicked, to the error every
    /// later call answers with: the backend may have been left half
    /// updated, so it serves nothing more.
    poisoned: Option<String>,
}

impl State {
    fn has_query(&self, name: &str) -> bool {
        self.backend.query_names().iter().any(|n| n == name)
    }

    fn install_sink(&mut self, hub: &Arc<Hub>, name: &str) -> Result<()> {
        if self.sinked.contains(name) {
            return Ok(());
        }
        let hub = Arc::clone(hub);
        let query = name.to_string();
        self.backend
            .add_sink(
                name,
                Box::new(move |ce: &ComplexEvent| hub.publish(&query, ce)),
            )
            .map_err(engine_err)?;
        self.sinked.insert(name.to_string());
        Ok(())
    }
}

impl Deployment {
    pub fn new(backend: Box<dyn Backend>, hub: Arc<Hub>, metrics: Arc<ServerMetrics>) -> Self {
        Deployment {
            state: Mutex::new(State {
                backend,
                clocks: HashMap::new(),
                sinked: HashSet::new(),
                owners: HashMap::new(),
                poisoned: None,
            }),
            hub,
            metrics,
        }
    }

    /// Run `f` under the lock. A panic inside it (a host function, a
    /// sink, the backend itself) poisons the deployment: this call and
    /// every later one answer [`ServerError::Engine`] naming the panic,
    /// while the connection threads and the listener keep running.
    fn with<T>(&self, f: impl FnOnce(&mut State) -> Result<T>) -> Result<T> {
        let mut state = self.state.lock();
        if let Some(why) = &state.poisoned {
            return Err(ServerError::Engine(why.clone()));
        }
        panic::catch_unwind(AssertUnwindSafe(|| f(&mut state))).unwrap_or_else(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("(no message)");
            let why = format!("deployment poisoned: a backend call panicked: {what}");
            state.poisoned = Some(why.clone());
            Err(ServerError::Engine(why))
        })
    }

    /// Ingest one batch. Server-assigned ticks rebase it onto the stream's
    /// clock; a batch the clock cannot fit below `u64::MAX` is refused
    /// before the clock or the backend changes. A refused batch answers
    /// with its error alone and has reached no subscriber.
    pub fn ingest(
        &self,
        stream: Option<String>,
        ticks: TickMode,
        events: Vec<Event>,
    ) -> Result<Vec<ComplexEvent>> {
        self.metrics.ingest_batches.inc();
        self.metrics.ingest_events.add(events.len() as u64);
        self.with(|s| {
            let clock = s.clocks.entry(stream.clone()).or_insert(0);
            let events = match ticks {
                TickMode::Explicit => {
                    if let Some(max) = events.iter().map(|e| e.timestamp()).max() {
                        *clock = (*clock).max(max);
                    }
                    events
                }
                TickMode::ServerAssigned => {
                    let end = clock.checked_add(events.len() as u64).ok_or_else(|| {
                        ServerError::Engine(format!(
                            "server-assigned ticks exhausted: {} events after tick {} \
                                 overflow u64",
                            events.len(),
                            *clock
                        ))
                    })?;
                    // Decode validated every event; each is copied to its
                    // tick as it is, without the registry.
                    let mut tick = *clock;
                    let events = events
                        .iter()
                        .map(|e| {
                            tick += 1;
                            e.with_timestamp(tick)
                        })
                        .collect();
                    *clock = end;
                    events
                }
            };
            let mut out = Vec::new();
            s.backend
                .ingest(stream.as_deref(), &events, &mut out, None)
                .map_err(engine_err)?;
            Ok(out)
        })
    }

    /// Analyze and register `src` as `name`, owned by `session` (`None`:
    /// unowned, as over HTTP), and install its fan-out sink.
    pub fn register(&self, session: Option<u64>, name: &str, src: &str) -> Result<Vec<Diagnostic>> {
        self.with(|s| {
            let diags = s.backend.check(src);
            s.backend.register(name, src).map_err(engine_err)?;
            s.owners.insert(
                name.to_string(),
                session.map_or(Owner::Unowned, Owner::Session),
            );
            s.install_sink(&self.hub, name)?;
            Ok(diags)
        })
    }

    /// Unregister `name` on behalf of `session` (`None`: a server-side
    /// caller, which may drop anything) and drop its subscribers. `false`
    /// if no such query is registered.
    pub fn unregister(&self, session: Option<u64>, name: &str) -> Result<bool> {
        self.with(|s| {
            if !s.has_query(name) {
                return Ok(false);
            }
            let owner = s.owners.get(name).copied().unwrap_or(Owner::Unowned);
            let allowed = match (owner, session) {
                (Owner::Session(owner), Some(caller)) => owner == caller,
                (_, None) => true,
                (Owner::Unowned, Some(_)) => false,
            };
            if !allowed {
                return Err(ServerError::NotOwner {
                    query: name.to_string(),
                });
            }
            let existed = s.backend.unregister(name);
            s.owners.remove(name);
            s.sinked.remove(name);
            self.hub.drop_query(name);
            Ok(existed)
        })
    }

    pub fn check(&self, src: &str) -> Result<Vec<Diagnostic>> {
        self.with(|s| Ok(s.backend.check(src)))
    }

    pub fn stats(&self, name: &str) -> Result<RuntimeStats> {
        self.with(|s| s.backend.stats(name).map_err(engine_err))
    }

    /// Every registered query's stats, read in one lock hold; a query
    /// whose stats fail is left out.
    pub fn all_stats(&self) -> Result<Vec<(String, RuntimeStats)>> {
        self.with(|s| {
            Ok(s.backend
                .query_names()
                .into_iter()
                .filter_map(|name| Some((name.clone(), s.backend.stats(&name).ok()?)))
                .collect())
        })
    }

    /// The deployment's metrics merged with the server's own series.
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        let mut snap = self.with(|s| Ok(s.backend.metrics()))?;
        snap.merge(&self.metrics.registry.snapshot());
        Ok(snap)
    }

    pub fn queries(&self) -> Result<Vec<String>> {
        self.with(|s| Ok(s.backend.query_names()))
    }

    pub fn explain(&self, name: &str) -> Result<String> {
        self.with(|s| s.backend.explain(name).map_err(engine_err))
    }

    /// Subscribe `sub` to `query`'s emissions: checks that the query
    /// exists and installs its sink under the same lock hold.
    pub fn subscribe(&self, query: &str, sub: Subscriber) -> Result<()> {
        self.with(|s| {
            if !s.has_query(query) {
                return Err(ServerError::UnknownQuery(query.to_string()));
            }
            s.install_sink(&self.hub, query)?;
            self.hub.subscribe(query, sub);
            Ok(())
        })
    }

    /// Hand the backend back, flushed so that every acknowledged batch is
    /// durable on durable backends (volatile ones no-op). A poisoned
    /// deployment is flushed and returned too.
    pub fn into_backend(self) -> Box<dyn Backend> {
        let mut backend = self.state.into_inner().backend;
        let _ = backend.flush();
        backend
    }
}
