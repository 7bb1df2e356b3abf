//! The `Sase` facade: one builder, one handle type, one subscription API
//! over every engine deployment shape.
//!
//! The paper's Figure 3 shows a single system — queries go in, complex
//! events stream out. This module is that system's front door. A
//! [`SaseBuilder`] assembles one of the workspace's engine deployments,
//! optionally behind a write-ahead log, behind the unified
//! [`EventProcessor`] surface:
//!
//! ```text
//! Sase::builder()                         -> single Engine
//!     .shards(4)                          -> ShardedEngine (4 workers)
//!     .durable(dir, opts)                 -> either one + Wal (WAL + checkpoints)
//! ```
//!
//! Registration returns a typed [`QueryHandle`] instead of a bare string,
//! and output is push-based: [`Sase::subscribe`] attaches a callback to a
//! query, [`Sase::subscribe_channel`] a channel, and [`Sase::collect`] a
//! [`Collector`] that preserves the classic `Vec<ComplexEvent>` pull
//! style. Pull still works too — [`Sase::process`] returns the batch's
//! emissions directly.
//!
//! ```
//! use sase::{Sase, core::event::retail_registry, core::value::Value};
//!
//! let mut sase = Sase::builder().schemas(retail_registry()).build().unwrap();
//! let exits = sase
//!     .register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag")
//!     .unwrap();
//! let seen = sase.collect(&exits).unwrap();
//!
//! let event = sase
//!     .schemas()
//!     .build_event("EXIT_READING", 1, vec![Value::Int(7), Value::str("soap"), Value::Int(4)])
//!     .unwrap();
//! sase.process(&[event]).unwrap();
//! assert_eq!(seen.take().len(), 1);
//! ```

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sase_core::analyze::{Diagnostic, Severity};
use sase_core::engine::{Engine, RoutingMode, Sink, Tag};
use sase_core::error::{Result, SaseError};
use sase_core::event::{Event, SchemaRegistry};
use sase_core::functions::FunctionRegistry;
use sase_core::output::ComplexEvent;
use sase_core::processor::EventProcessor;
use sase_core::runtime::RuntimeStats;
use sase_core::snapshot::SnapshotSet;
use sase_core::time::TimeScale;
use sase_obs::{MetricsRegistry, MetricsSnapshot, TraceSink, Tracer};
use sase_system::{
    DurableOptions, RecoveryReport, ShardedEngine, ShardedEngineBuilder, ShardingMode, Wal,
};

/// A typed handle to a registered continuous query, returned by
/// [`Sase::register`]. Handles replace stringly-typed lookups on the
/// facade: subscriptions, stats, and unregistration all take a handle, so
/// a typo'd query name is a compile-visible `Option`/`Result` at
/// registration time, not a silent miss deep in a hot loop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryHandle {
    name: Arc<str>,
}

impl QueryHandle {
    /// The registered query name this handle refers to.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Display for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// A pull-style accumulator fed by a push subscription: every emission of
/// the subscribed query is appended as processing happens, and the host
/// drains with [`Collector::take`] whenever convenient — the classic
/// `Vec<ComplexEvent>` workflow on top of the sink API.
///
/// Clones share the same buffer. For queries hosted on sharded worker
/// threads the buffer is filled from those threads; `take` observes
/// everything emitted by batches that have completed.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    buf: Arc<Mutex<Vec<ComplexEvent>>>,
}

impl Collector {
    /// Drain everything collected so far, leaving the collector empty.
    pub fn take(&self) -> Vec<ComplexEvent> {
        std::mem::take(&mut *self.buf.lock().expect("collector lock"))
    }

    /// Number of emissions currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("collector lock").len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The engine deployments [`SaseBuilder::build`] can assemble. Kept as an
/// enum (rather than a `Box<dyn ...>`) so [`Sase::shard_count`] needs no
/// downcast. One exists per deployment, so the variant size spread is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
enum Processor {
    Engine(Engine),
    Sharded(ShardedEngine),
}

impl Processor {
    fn get(&self) -> &dyn EventProcessor {
        match self {
            Processor::Engine(e) => e,
            Processor::Sharded(e) => e,
        }
    }

    fn get_mut(&mut self) -> &mut dyn EventProcessor {
        match self {
            Processor::Engine(e) => e,
            Processor::Sharded(e) => e,
        }
    }
}

/// A periodic metrics push installed by [`SaseBuilder::on_metrics`]: the
/// callback fires on the processing thread after a batch completes, at
/// most once per interval. No extra threads are involved.
struct MetricsPush {
    interval: Duration,
    last: Instant,
    f: MetricsPushFn,
}

/// The boxed callback [`SaseBuilder::on_metrics`] installs.
type MetricsPushFn = Box<dyn FnMut(&MetricsSnapshot) + Send>;

/// The assembled system facade: an engine deployment (single or sharded,
/// optionally durable) behind one ingestion and subscription surface.
/// Build one with [`Sase::builder`]; see the [module docs](self) for the
/// tour.
///
/// A durable deployment holds a [`Wal`] beside its processor and logs
/// each batch before the processor sees it (see [`Wal`] for the contract);
/// a batch on a named stream is refused.
///
/// `Sase` itself implements [`EventProcessor`], so it can be dropped
/// anywhere a deployment is expected.
pub struct Sase {
    processor: Processor,
    wal: Option<Wal>,
    deny: Option<Severity>,
    push: Option<MetricsPush>,
}

/// Configures and assembles a [`Sase`] deployment. Obtained from
/// [`Sase::builder`]; every knob is optional.
#[derive(Default)]
pub struct SaseBuilder {
    schemas: Option<SchemaRegistry>,
    functions: Option<FunctionRegistry>,
    time_scale: Option<TimeScale>,
    routing: Option<RoutingMode>,
    shards: Option<usize>,
    sharding: Option<ShardingMode>,
    durable: Option<(PathBuf, DurableOptions)>,
    deny: Option<Severity>,
    metrics: bool,
    on_metrics: Option<(Duration, MetricsPushFn)>,
    trace: Option<Tracer>,
}

impl SaseBuilder {
    /// The schema registry events are built against (default: an empty
    /// registry — register event types on [`Sase::schemas`] afterwards).
    pub fn schemas(mut self, registry: SchemaRegistry) -> Self {
        self.schemas = Some(registry);
        self
    }

    /// The host function registry (default:
    /// [`FunctionRegistry::with_stdlib`]).
    pub fn functions(mut self, functions: FunctionRegistry) -> Self {
        self.functions = Some(functions);
        self
    }

    /// Logical time scale for WITHIN conversion in registered queries.
    pub fn time_scale(mut self, scale: TimeScale) -> Self {
        self.time_scale = Some(scale);
        self
    }

    /// Event-to-query routing mode (default: [`RoutingMode::Indexed`]).
    /// Applies to every engine the deployment contains.
    pub fn routing(mut self, mode: RoutingMode) -> Self {
        self.routing = Some(mode);
        self
    }

    /// Partition queries across `n` engine workers (default: one inline
    /// engine). Queries registered later keep the co-location rules
    /// (INTO/FROM chains and shared host functions stay together); an
    /// unconstrained query starts a new co-location component, and
    /// components are assigned to shards round-robin.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// How the sharded deployment splits work across its workers
    /// (default: [`ShardingMode::ByQuery`]). Only meaningful together
    /// with [`SaseBuilder::shards`]. With
    /// [`ShardingMode::ByPartitionKey`] the deployment gets `n` *data*
    /// workers fed by partition-key hash plus one pinned worker for
    /// non-distributable queries; see [`ShardingMode`] for the rules and
    /// trade-offs.
    pub fn sharding(mut self, mode: ShardingMode) -> Self {
        self.sharding = Some(mode);
        self
    }

    /// Strict registration: reject any query whose static analysis (see
    /// [`sase_core::analyze()`]) reports a diagnostic at `threshold` severity
    /// or above. `deny(Severity::Warning)` refuses queries with scaling
    /// hazards or partial-coverage warnings; `deny(Severity::Error)`
    /// refuses only provably broken queries (which would largely fail to
    /// register anyway, but turns "registers yet can never match" into a
    /// hard error). Default: off — diagnostics are advisory via
    /// [`Sase::check`].
    pub fn deny(mut self, threshold: Severity) -> Self {
        self.deny = Some(threshold);
        self
    }

    /// Enable the metrics registry on every engine the deployment
    /// contains (default: off — the per-event hot path pays nothing).
    /// When on, [`Sase::metrics`] returns the full instrumentation view:
    /// ingest counters and batch-latency histograms, router hit/miss,
    /// per-shard routing series, WAL series on durable deployments, and
    /// the per-query [`RuntimeStats`] promoted to `sase_query_*` series.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Install a periodic metrics push: after a processed batch, if at
    /// least `interval` elapsed since the last push, `f` observes a fresh
    /// [`MetricsSnapshot`] on the processing thread. Implies
    /// [`SaseBuilder::metrics`]`(true)`.
    pub fn on_metrics(
        mut self,
        interval: Duration,
        f: impl FnMut(&MetricsSnapshot) + Send + 'static,
    ) -> Self {
        self.metrics = true;
        self.on_metrics = Some((interval, Box::new(f)));
        self
    }

    /// Install a sampled lifecycle tracer: 1 of every `sample_every`
    /// units of work emits typed begin/end [`TraceEvent`](sase_obs::TraceEvent)s
    /// (batch ingest, query evaluation, shard dispatch, WAL commit,
    /// checkpoint, recovery) to `sink`. Spans of work done on worker or
    /// durable layers fire on those layers' threads.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>, sample_every: u64) -> Self {
        self.trace = Some(Tracer::sampled(sink, sample_every));
        self
    }

    /// Put the deployment behind a write-ahead event log with atomic
    /// checkpoints in `dir`. [`SaseBuilder::build`] requires `dir` to be
    /// fresh; reopening an existing deployment goes through
    /// [`SaseBuilder::recover`].
    pub fn durable(mut self, dir: impl Into<PathBuf>, opts: DurableOptions) -> Self {
        self.durable = Some((dir.into(), opts));
        self
    }

    fn registry(&self) -> SchemaRegistry {
        self.schemas.clone().unwrap_or_default()
    }

    fn function_registry(&self) -> FunctionRegistry {
        self.functions
            .clone()
            .unwrap_or_else(FunctionRegistry::with_stdlib)
    }

    fn make_engine(&self) -> Engine {
        let mut engine = Engine::with_functions(self.registry(), self.function_registry());
        if let Some(scale) = self.time_scale {
            engine.set_time_scale(scale);
        }
        if let Some(mode) = self.routing {
            engine.set_routing(mode);
        }
        if self.metrics {
            engine.enable_metrics(&MetricsRegistry::new());
        }
        if let Some(t) = &self.trace {
            engine.set_tracer(t.clone());
        }
        engine
    }

    fn make_sharded(&self, shards: usize) -> Result<ShardedEngine> {
        let mut builder =
            ShardedEngineBuilder::with_functions(self.registry(), self.function_registry());
        if let Some(scale) = self.time_scale {
            builder.set_time_scale(scale);
        }
        if let Some(mode) = self.routing {
            builder.set_routing(mode);
        }
        if let Some(mode) = self.sharding {
            builder.set_sharding(mode);
        }
        builder.set_metrics(self.metrics);
        let mut sharded = builder.build(shards)?;
        if let Some(t) = &self.trace {
            sharded.set_tracer(t.clone());
        }
        Ok(sharded)
    }

    fn make_processor(&self) -> Result<Processor> {
        Ok(match self.shards {
            None => Processor::Engine(self.make_engine()),
            Some(n) => Processor::Sharded(self.make_sharded(n)?),
        })
    }

    /// A write-ahead core for the deployment, carrying the builder's
    /// tracer for its own spans (WAL commit, checkpoint, recovery).
    fn traced(&self, wal: sase_system::durable::Result<Wal>) -> Result<Wal> {
        let mut wal = wal.map_err(durable_err)?;
        if let Some(t) = &self.trace {
            wal.set_tracer(t.clone());
        }
        Ok(wal)
    }

    fn assemble(mut self, processor: Processor, wal: Option<Wal>) -> Sase {
        Sase {
            processor,
            wal,
            deny: self.deny,
            push: self.on_metrics.take().map(MetricsPush::new),
        }
    }

    /// Assemble a fresh deployment.
    pub fn build(mut self) -> Result<Sase> {
        let processor = self.make_processor()?;
        let wal = match self.durable.take() {
            Some((dir, opts)) => Some(self.traced(Wal::create(dir, opts))?),
            None => None,
        };
        Ok(self.assemble(processor, wal))
    }

    /// Reopen an existing durable deployment: load the newest valid
    /// checkpoint, let `register` re-register the same queries in the same
    /// order (derived stream types are preregistered first), restore the
    /// state, and replay the log tail. Requires
    /// [`SaseBuilder::durable`]; the other knobs must match the original
    /// deployment.
    pub fn recover(
        mut self,
        register: impl FnOnce(&mut dyn EventProcessor) -> Result<()>,
    ) -> Result<(Sase, RecoveryReport)> {
        let (dir, opts) = (self.durable.take()).ok_or_else(|| needs_wal("Sase::recover"))?;
        let mut wal = self.traced(Wal::open(dir, opts))?;
        let restart = wal.load_checkpoint().map_err(durable_err)?;
        let mut processor = self.make_processor()?;
        if let Some(snaps) = restart.snapshots() {
            snaps.preregister_derived(processor.get().schemas())?;
        }
        register(processor.get_mut())?;
        let report = wal
            .recover(restart, processor.get_mut())
            .map_err(durable_err)?;
        Ok((self.assemble(processor, Some(wal)), report))
    }
}

impl MetricsPush {
    fn new((interval, f): (Duration, MetricsPushFn)) -> MetricsPush {
        MetricsPush {
            interval,
            last: Instant::now(),
            f,
        }
    }
}

fn durable_err(e: impl std::fmt::Display) -> SaseError {
    SaseError::engine(format!("durable store: {e}"))
}

fn needs_wal(op: &str) -> SaseError {
    SaseError::engine(format!(
        "{op} requires a durable deployment (builder.durable(..))"
    ))
}

impl Sase {
    /// Start configuring a deployment.
    pub fn builder() -> SaseBuilder {
        SaseBuilder::default()
    }

    /// On a durable deployment, append a batch on the default stream to
    /// the log at its first event's timestamp before the processor sees
    /// it, and refuse one on a named stream: log records carry no stream
    /// name, so replay could not route it.
    fn write_ahead(&mut self, stream: Option<&str>, events: &[Event]) -> Result<()> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        if let Some(s) = stream {
            return Err(SaseError::engine(format!(
                "durable deployments log only the default input stream, not `{s}`; \
                 ingest through the default stream"
            )));
        }
        match events.first() {
            Some(first) => (wal.append(first.timestamp(), events))
                .map_err(|e| SaseError::engine(format!("event log: {e}"))),
            None => Ok(()),
        }
    }

    /// Register a continuous query from source text; the returned handle
    /// addresses the query in every other facade call.
    ///
    /// When the deployment was built with [`SaseBuilder::deny`], the query
    /// is statically analyzed first and rejected (with the offending lint
    /// code) if any diagnostic reaches the configured severity.
    pub fn register(&mut self, name: &str, src: &str) -> Result<QueryHandle> {
        if let Some(threshold) = self.deny {
            let diags = self.check(src);
            if let Some(bad) = diags.iter().find(|d| d.severity >= threshold) {
                return Err(SaseError::registration(
                    name,
                    Some(bad.code.to_string()),
                    format!(
                        "denied by strict mode ({} {}): {}",
                        bad.severity, bad.code, bad.message
                    ),
                ));
            }
        }
        self.processor.get_mut().register(name, src)?;
        Ok(QueryHandle {
            name: Arc::from(name),
        })
    }

    /// Statically analyze query text against this deployment — schemas,
    /// functions, time scale, and already-registered queries — *without*
    /// registering it. Returns the analyzer's findings, most severe first;
    /// see [`sase_core::analyze()`] for the lint catalogue.
    pub fn check(&self, src: &str) -> Vec<Diagnostic> {
        self.processor.get().check(src)
    }

    /// Handle of an already-registered query, if it exists (e.g. one
    /// re-registered through [`SaseBuilder::recover`]'s callback).
    pub fn handle(&self, name: &str) -> Option<QueryHandle> {
        self.processor
            .get()
            .query_names()
            .iter()
            .any(|n| n == name)
            .then(|| QueryHandle {
                name: Arc::from(name),
            })
    }

    /// Delete a query. Returns true if it existed; its handles (and
    /// subscriptions) are dead afterwards.
    pub fn unregister(&mut self, handle: &QueryHandle) -> bool {
        self.processor.get_mut().unregister(&handle.name)
    }

    /// Process a batch of events on the default input stream, returning
    /// the emitted composite events (subscriptions fire as well): the
    /// facade's [`EventProcessor::ingest`] into a fresh buffer.
    pub fn process(&mut self, events: &[Event]) -> Result<Vec<ComplexEvent>> {
        let mut out = Vec::new();
        self.ingest(None, events, &mut out, None)?;
        Ok(out)
    }

    /// Fire the [`SaseBuilder::on_metrics`] callback when its interval
    /// has elapsed. Called after every processed batch.
    fn maybe_push(&mut self) {
        let Some(mut push) = self.push.take() else {
            return;
        };
        if push.last.elapsed() >= push.interval {
            let snap = self.metrics();
            (push.f)(&snap);
            push.last = Instant::now();
        }
        self.push = Some(push);
    }

    /// A typed, point-in-time metrics view of the deployment: every
    /// enabled registry series (merged deterministically across engines,
    /// shards, and the durable layer) plus the per-query
    /// [`RuntimeStats`] promoted to `sase_query_*{query=…}` series.
    /// Render textually with [`sase_obs::render_prometheus`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.processor.get().metrics();
        if let Some(wal) = &self.wal {
            snap.merge(&wal.metrics_registry().snapshot());
        }
        snap
    }

    /// The deployment's top-level engine metrics registry, when metrics
    /// are enabled ([`SaseBuilder::metrics`]), on every deployment shape.
    /// Worker-local and durable-layer registries are folded in by
    /// [`Sase::metrics`], not reachable here.
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.processor.get().metrics_registry()
    }

    /// Subscribe a callback to a query: it observes every emission of that
    /// query, push-style, as processing happens. Queries hosted on sharded
    /// worker threads invoke the callback on those threads.
    pub fn subscribe(
        &mut self,
        handle: &QueryHandle,
        mut sink: impl FnMut(&ComplexEvent) + Send + 'static,
    ) -> Result<()> {
        self.processor
            .get_mut()
            .add_sink(&handle.name, Box::new(move |ce| sink(ce)))
    }

    /// Subscribe a channel to a query: every emission is cloned into the
    /// returned receiver. When the receiver is dropped, deliveries are
    /// silently discarded (the subscription itself stays registered until
    /// the query is unregistered).
    pub fn subscribe_channel(
        &mut self,
        handle: &QueryHandle,
    ) -> Result<mpsc::Receiver<ComplexEvent>> {
        let (tx, rx) = mpsc::channel();
        self.subscribe(handle, move |ce| {
            let _ = tx.send(ce.clone());
        })?;
        Ok(rx)
    }

    /// Subscribe a [`Collector`] to a query — the pull-style
    /// `Vec<ComplexEvent>` workflow on top of the push API.
    pub fn collect(&mut self, handle: &QueryHandle) -> Result<Collector> {
        let collector = Collector::default();
        let buf = collector.buf.clone();
        self.subscribe(handle, move |ce| {
            buf.lock().expect("collector lock").push(ce.clone());
        })?;
        Ok(collector)
    }

    /// Names of registered queries, in registration order.
    pub fn query_names(&self) -> Vec<String> {
        self.processor.get().query_names()
    }

    /// Runtime counters of a query.
    pub fn stats(&self, handle: &QueryHandle) -> Result<RuntimeStats> {
        self.processor.get().stats(&handle.name)
    }

    /// EXPLAIN output of a query's plan.
    pub fn explain(&self, handle: &QueryHandle) -> Result<String> {
        self.processor.get().explain(&handle.name)
    }

    /// The source text (canonical form) of a query.
    pub fn query_text(&self, handle: &QueryHandle) -> Result<String> {
        self.processor.get().query_text(&handle.name)
    }

    /// The schema registry events are built against.
    pub fn schemas(&self) -> &SchemaRegistry {
        self.processor.get().schemas()
    }

    /// Serializable image of the deployment's complete mutable state.
    pub fn snapshot(&self) -> SnapshotSet {
        self.processor.get().snapshot()
    }

    /// Restore a snapshot onto a freshly built deployment with the same
    /// queries (see [`sase_core::snapshot`] for the protocol).
    pub fn restore(&mut self, snaps: &SnapshotSet) -> Result<()> {
        self.processor.get_mut().restore(snaps)
    }

    /// Write an atomic checkpoint of the engine state at the current log
    /// position (durable deployments only); returns the checkpoint's log
    /// position.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let wal = self.wal.as_mut().ok_or_else(|| needs_wal("checkpoint"))?;
        (wal.checkpoint(|| self.processor.get().snapshot())).map_err(durable_err)
    }

    /// Make every ingested batch durable (one fsync) — the host's commit
    /// cadence when `sync_each_batch` is off (durable deployments only).
    pub fn commit(&mut self) -> Result<()> {
        let wal = self.wal.as_mut().ok_or_else(|| needs_wal("commit"))?;
        wal.commit().map_err(durable_err)
    }

    /// Number of engine workers (1 for unsharded deployments).
    pub fn shard_count(&self) -> usize {
        match &self.processor {
            Processor::Engine(_) => 1,
            Processor::Sharded(e) => e.shard_count(),
        }
    }

    /// Whether this deployment write-ahead-logs its ingest — i.e. whether
    /// [`commit`](Sase::commit) and [`checkpoint`](Sase::checkpoint) are
    /// meaningful.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Put this deployment on the wire: serve the line protocol,
    /// HTTP/1.1, and WebSocket push on `addr` (port `0` picks an
    /// ephemeral port) until
    /// [`ServerHandle::shutdown`](sase_server::ServerHandle::shutdown),
    /// which drains in-flight ingest, flushes the WAL on durable
    /// deployments, and hands the `Sase` back as the boxed backend.
    pub fn serve(
        self,
        addr: impl std::net::ToSocketAddrs,
        config: sase_server::ServerConfig,
    ) -> sase_server::Result<sase_server::ServerHandle> {
        sase_server::Server::serve(addr, Box::new(self), config)
    }
}

impl std::fmt::Debug for Sase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = match &self.processor {
            Processor::Engine(_) => "engine",
            Processor::Sharded(_) => "sharded",
        };
        f.debug_struct("Sase")
            .field("processor", &shape)
            .field("durable", &self.is_durable())
            .field("queries", &self.query_names())
            .finish()
    }
}

/// The facade is itself an [`EventProcessor`], so a `Sase` can stand in
/// anywhere a deployment is expected (the server, differential tests).
/// Ingest is write-ahead logged on durable deployments; every other method
/// delegates to the processor.
impl EventProcessor for Sase {
    fn register(&mut self, name: &str, src: &str) -> Result<()> {
        Sase::register(self, name, src).map(|_| ())
    }

    fn check(&self, src: &str) -> Vec<Diagnostic> {
        Sase::check(self, src)
    }

    fn unregister(&mut self, name: &str) -> bool {
        self.processor.get_mut().unregister(name)
    }

    fn ingest(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> Result<()> {
        let result = (self.write_ahead(stream, events))
            .and_then(|()| self.processor.get_mut().ingest(stream, events, out, tags));
        self.maybe_push();
        result
    }

    fn query_names(&self) -> Vec<String> {
        self.processor.get().query_names()
    }

    fn stats(&self, name: &str) -> Result<RuntimeStats> {
        self.processor.get().stats(name)
    }

    fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        Sase::metrics_registry(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Sase::metrics(self)
    }

    fn explain(&self, name: &str) -> Result<String> {
        self.processor.get().explain(name)
    }

    fn query_text(&self, name: &str) -> Result<String> {
        self.processor.get().query_text(name)
    }

    fn add_sink(&mut self, name: &str, sink: Sink) -> Result<()> {
        self.processor.get_mut().add_sink(name, sink)
    }

    fn schemas(&self) -> &SchemaRegistry {
        self.processor.get().schemas()
    }

    fn snapshot(&self) -> SnapshotSet {
        self.processor.get().snapshot()
    }

    fn restore(&mut self, snaps: &SnapshotSet) -> Result<()> {
        self.processor.get_mut().restore(snaps)
    }
}

/// Any `Sase` deployment can be hosted by the network serving layer.
/// Graceful server shutdown calls `flush`, which on durable deployments
/// commits the WAL — every batch the server acknowledged survives crash
/// recovery; volatile deployments no-op.
impl sase_server::Backend for Sase {
    fn flush(&mut self) -> Result<()> {
        if self.is_durable() {
            self.commit()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::event::retail_registry;
    use sase_core::value::Value;

    fn exit(sase: &Sase, ts: u64, tag: i64) -> Event {
        sase.schemas()
            .build_event(
                "EXIT_READING",
                ts,
                vec![Value::Int(tag), Value::str("soap"), Value::Int(4)],
            )
            .unwrap()
    }

    #[test]
    fn builder_defaults_to_a_single_engine() {
        let mut sase = Sase::builder().schemas(retail_registry()).build().unwrap();
        assert_eq!(sase.shard_count(), 1);
        let h = sase
            .register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag")
            .unwrap();
        assert_eq!(h.name(), "exits");
        assert_eq!(sase.query_names(), vec!["exits"]);
        assert_eq!(sase.handle("exits"), Some(h.clone()));
        assert_eq!(sase.handle("nope"), None);

        let out = sase.process(&[exit(&sase, 1, 7)]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(sase.stats(&h).unwrap().matches_emitted, 1);
        assert!(sase.explain(&h).unwrap().contains("EXIT_READING"));
        assert!(sase.query_text(&h).unwrap().contains("EXIT_READING"));
        assert!(sase.unregister(&h));
        assert!(!sase.unregister(&h));
        // Durable-only operations are typed errors on live deployments.
        assert!(sase.checkpoint().is_err());
        assert!(sase.commit().is_err());
    }

    #[test]
    fn subscriptions_push_collector_and_channel() {
        let mut sase = Sase::builder()
            .schemas(retail_registry())
            .shards(2)
            .build()
            .unwrap();
        assert_eq!(sase.shard_count(), 2);
        let exits = sase
            .register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag")
            .unwrap();
        let shelves = sase
            .register("shelves", "EVENT SHELF_READING x RETURN x.TagId AS tag")
            .unwrap();
        let collected = sase.collect(&exits).unwrap();
        let rx = sase.subscribe_channel(&shelves).unwrap();

        let shelf = sase
            .schemas()
            .build_event(
                "SHELF_READING",
                1,
                vec![Value::Int(9), Value::str("soap"), Value::Int(1)],
            )
            .unwrap();
        let out = sase.process(&[shelf, exit(&sase, 2, 7)]).unwrap();
        assert_eq!(out.len(), 2, "pull output is preserved");

        // Each subscription saw only its own query's emission.
        let drained = collected.take();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].value("tag"), Some(&Value::Int(7)));
        assert!(collected.is_empty());
        let pushed: Vec<ComplexEvent> = rx.try_iter().collect();
        assert_eq!(pushed.len(), 1);
        assert_eq!(pushed[0].value("tag"), Some(&Value::Int(9)));

        // Every holder shares the one body of each emission: the pull
        // output, the channel and the collector.
        assert!(Arc::ptr_eq(&pushed[0].events, &out[0].events));
        assert!(Arc::ptr_eq(&pushed[0].values, &out[0].values));
        assert!(Arc::ptr_eq(&drained[0].events, &out[1].events));
    }

    #[test]
    fn durable_build_and_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("sase-facade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let q = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                 WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId AS tag";
        let mk = || {
            Sase::builder()
                .schemas(retail_registry())
                .durable(&dir, DurableOptions::default())
        };
        let mut sase = mk().build().unwrap();
        let h = sase.register("pairs", q).unwrap();
        let shelf = sase
            .schemas()
            .build_event(
                "SHELF_READING",
                1,
                vec![Value::Int(7), Value::str("soap"), Value::Int(1)],
            )
            .unwrap();
        sase.process(&[shelf]).unwrap();
        sase.checkpoint().unwrap();
        assert_eq!(sase.stats(&h).unwrap().events_processed, 1);
        drop(sase); // crash

        // A second `build` on the same dir must refuse; `recover` resumes.
        assert!(mk().build().is_err());
        let (mut sase, report) = mk()
            .recover(|p| p.register("pairs", q).map(|_| ()))
            .unwrap();
        assert_eq!(report.records_replayed, 0, "checkpoint covers the log");
        let h = sase.handle("pairs").unwrap();
        let out = sase.process(&[exit(&sase, 2, 7)]).unwrap();
        assert_eq!(out.len(), 1, "pending sequence completed after recovery");
        assert_eq!(sase.stats(&h).unwrap().matches_emitted, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
