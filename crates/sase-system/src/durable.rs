//! Durable deployments: write-ahead event logging, engine checkpoints,
//! crash recovery, and full-speed historical replay.
//!
//! The durability boundary is the *complex event processor*: the cleaned
//! event stream is the canonical record (appended to a
//! [`sase_store::EventLog`] before the engine sees each batch), and engine
//! state is checkpointed as [`EngineSnapshot`]s referencing a log
//! position. A snapshot holds events too: the ones the queries still keep,
//! and where each query keeps them (see [`sase_core::snapshot`]), not the
//! stacks and buckets that index them. On restart,
//! [`DurableEngine::recover`] loads the newest valid checkpoint (converting
//! one of the previous format version), restores the engines by
//! re-appending those events, and replays only the log tail —
//! resuming exactly where the crashed process left off, provably: replay
//! re-emits byte-for-byte the composite events the crashed process emitted
//! after its last checkpoint (the recovery tests assert this against an
//! uninterrupted reference run).
//!
//! Delivery semantics are the standard WAL contract: inputs are durable
//! once [`EventLog::commit`] returns (`sync_each_batch` commits on every
//! ingest); emissions after the last checkpoint are re-emitted during
//! replay (at-least-once), and deterministically identical to the
//! originals, so downstream consumers dedup by log position.
//!
//! Two wrappers share the machinery: one private write-ahead core owns the
//! directory, the options, the log, the metrics and the tracer, and is the
//! only code that refuses an occupied directory, appends, commits,
//! checkpoints and replays.
//!
//! * [`DurableEngine`] is that core plus any [`EventProcessor`] — a single
//!   [`Engine`](sase_core::engine::Engine), a
//!   [`ShardedEngine`](crate::concurrent::ShardedEngine) (whose checkpoint
//!   stores one snapshot per shard, atomically in one file), or any other
//!   deployment implementing the trait. [`DurableEngine`] itself
//!   implements [`EventProcessor`], so durability and sharding are
//!   orthogonal, composable decorators.
//! * [`DurableSystem`] is that core plus the full [`SaseSystem`]: each
//!   tick's cleaned events are logged before ingest, and the engine can be
//!   crashed and recovered in place while the device and cleaning layers
//!   keep running (the deployment shape of Figure 1, where those layers
//!   are separate processes).

use std::path::{Path, PathBuf};

use sase_core::engine::{Sink, Tag};
use sase_core::error::{Result as CoreResult, SaseError};
use sase_core::event::{Event, SchemaRegistry};
use sase_core::output::ComplexEvent;
use sase_core::processor::EventProcessor;
use sase_core::runtime::RuntimeStats;
use sase_core::snapshot::{EngineSnapshot, SnapshotSet};
use sase_core::time::Timestamp;

use sase_store::{
    load_latest_checkpoint, prune_checkpoints, write_checkpoint, Checkpoint, EventLog, LogIter,
    LogOptions, StoreError,
};

use crate::system::{SaseSystem, TickResult};

/// Errors from the durable layer: either the store failed (I/O,
/// corruption) or the engine rejected replayed state/events.
#[derive(Debug)]
pub enum DurableError {
    /// Log or checkpoint failure.
    Store(StoreError),
    /// Engine failure during ingest, restore, or replay.
    Core(SaseError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "{e}"),
            DurableError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<SaseError> for DurableError {
    fn from(e: SaseError) -> Self {
        DurableError::Core(e)
    }
}

/// Result alias for durable operations.
pub type Result<T> = std::result::Result<T, DurableError>;

/// Tuning knobs for durable deployments.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Event-log segment size (see [`LogOptions::segment_bytes`]).
    pub segment_bytes: u64,
    /// Commit (flush + fsync) the log on every ingested batch. Off, the
    /// host owns the commit cadence via [`DurableEngine::commit`] —
    /// higher throughput, wider crash window.
    pub sync_each_batch: bool,
    /// Checkpoints retained on disk (older ones are pruned; the newest
    /// valid one wins at recovery, corrupt ones fall back).
    pub keep_checkpoints: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            segment_bytes: 4 << 20,
            sync_each_batch: true,
            keep_checkpoints: 4,
        }
    }
}

impl DurableOptions {
    fn log(&self) -> LogOptions {
        LogOptions {
            segment_bytes: self.segment_bytes,
        }
    }
}

/// The durable layer's registry handles, resolved once per deployment:
/// checkpoint and recovery-progress counters (the WAL's own
/// `sase_wal_*` series are resolved by [`sase_store::WalMetrics`] on
/// the same registry). Recovery counters advance record-by-record
/// during replay, so a scrape mid-recovery shows live progress.
#[derive(Debug, Clone)]
struct DurableMetrics {
    registry: sase_obs::MetricsRegistry,
    /// Checkpoints written (`sase_checkpoints_total`).
    checkpoints: sase_obs::Counter,
    /// Recovery/replay runs completed (`sase_recovery_runs_total`).
    recovery_runs: sase_obs::Counter,
    /// Log records replayed (`sase_recovery_records_replayed_total`).
    recovery_records: sase_obs::Counter,
    /// Events replayed (`sase_recovery_events_replayed_total`).
    recovery_events: sase_obs::Counter,
    /// Engine rejections during replay
    /// (`sase_recovery_replay_errors_total`).
    recovery_errors: sase_obs::Counter,
}

impl DurableMetrics {
    fn new() -> Self {
        let registry = sase_obs::MetricsRegistry::new();
        DurableMetrics {
            checkpoints: registry.counter("sase_checkpoints_total", &[]),
            recovery_runs: registry.counter("sase_recovery_runs_total", &[]),
            recovery_records: registry.counter("sase_recovery_records_replayed_total", &[]),
            recovery_events: registry.counter("sase_recovery_events_replayed_total", &[]),
            recovery_errors: registry.counter("sase_recovery_replay_errors_total", &[]),
            registry,
        }
    }
}

/// What recovery did: which checkpoint it started from, how much log tail
/// it replayed, and the emissions that replay produced (byte-identical
/// re-emissions of whatever the crashed process emitted after the
/// checkpoint, plus anything it logged but never processed).
#[derive(Debug)]
pub struct RecoveryReport {
    /// Log position of the checkpoint recovery started from; `None` when
    /// no valid checkpoint existed and the whole log was replayed.
    pub checkpoint_seq: Option<u64>,
    /// Log records replayed.
    pub records_replayed: u64,
    /// Events replayed.
    pub events_replayed: u64,
    /// Composite events emitted during replay, in emission order.
    pub emissions: Vec<ComplexEvent>,
    /// Records the engine rejected during replay, as `(seq, error)`.
    /// Engine rejections are deterministic — the live run rejected the
    /// same record whole with the same error — so they are reported, not
    /// fatal: a poisoned record can never make a deployment
    /// unrecoverable.
    pub replay_errors: Vec<(u64, String)>,
    /// Checkpoint files skipped because they failed validation.
    pub corrupt_checkpoints: Vec<PathBuf>,
}

/// Result of a historical replay run ([`DurableEngine::replay_range`]).
#[derive(Debug)]
pub struct ReplayRun {
    /// Records re-driven.
    pub records: u64,
    /// Events re-driven.
    pub events: u64,
    /// Composite events emitted, in emission order.
    pub emissions: Vec<ComplexEvent>,
    /// Records the engine rejected, as `(seq, error)` (see
    /// [`RecoveryReport::replay_errors`]).
    pub errors: Vec<(u64, String)>,
}

/// The newest valid checkpoint recovery starts from.
struct Restart {
    /// The checkpoint's log position and its snapshots (moved out of the
    /// checkpoint, never cloned); `None` when no valid checkpoint exists.
    from: Option<(u64, SnapshotSet)>,
    /// Checkpoint files skipped because they failed validation.
    corrupt: Vec<PathBuf>,
}

impl Restart {
    fn snapshots(&self) -> Option<&SnapshotSet> {
        self.from.as_ref().map(|(_, snaps)| snaps)
    }
}

/// The write-ahead core both durable wrappers run on: the deployment
/// directory, its options, the event log, the layer's metrics and its
/// lifecycle tracer.
struct Wal {
    dir: PathBuf,
    opts: DurableOptions,
    log: EventLog,
    metrics: DurableMetrics,
    tracer: sase_obs::Tracer,
}

impl Wal {
    /// Open (or create) the event log in `dir`, instrumented on a fresh
    /// metrics registry, with tracing off.
    fn open(dir: PathBuf, opts: DurableOptions) -> Result<Wal> {
        let metrics = DurableMetrics::new();
        let mut log = EventLog::open(&dir, opts.log())?;
        log.set_metrics(sase_store::WalMetrics::new(&metrics.registry));
        Ok(Wal {
            dir,
            opts,
            log,
            metrics,
            tracer: sase_obs::Tracer::disabled(),
        })
    }

    /// Open `dir` for a *new* deployment. Fails if it already holds log
    /// records or checkpoints: silently restarting over history would
    /// desynchronize engine state from the log, so an existing deployment
    /// must be recovered instead.
    fn create(dir: PathBuf, opts: DurableOptions) -> Result<Wal> {
        let wal = Wal::open(dir, opts)?;
        let records = wal.log.next_seq();
        let checkpoints = sase_store::list_checkpoints(&wal.dir)?.len();
        if records > 0 || checkpoints > 0 {
            return Err(StoreError::InvalidArgument(format!(
                "{} already holds a durable deployment ({records} log records, \
                 {checkpoints} checkpoints); recover it instead",
                wal.dir.display()
            ))
            .into());
        }
        Ok(wal)
    }

    /// Append one batch at `tick`, committing it under `sync_each_batch`.
    ///
    /// The tick is clamped up to the log's last tick: the WAL tick is a
    /// replay-range index (events carry their own timestamps), and a batch
    /// that starts below it is still logged — the engine then rejects it
    /// for its clock, and replay rejects it again.
    fn append(&mut self, tick: Timestamp, events: &[Event]) -> sase_store::Result<()> {
        let tick = tick.max(self.log.last_tick().unwrap_or(0));
        self.log.append(tick, events)?;
        if self.opts.sync_each_batch {
            self.commit()?;
        }
        Ok(())
    }

    /// Commit under a WAL-commit trace span (id = last appended seq).
    fn commit(&mut self) -> sase_store::Result<()> {
        let span = self.tracer.begin(
            sase_obs::TraceKind::WalCommit,
            self.log.next_seq().saturating_sub(1),
            self.log.uncommitted(),
        );
        let result = self.log.commit();
        if let Some(span) = span {
            self.tracer.end(span, result.is_ok() as u64);
        }
        result
    }

    /// Under a checkpoint span: commit the log, write an atomic checkpoint
    /// of `snapshot()` at the current log position, and prune old
    /// checkpoints. Returns the checkpoint's log position.
    fn checkpoint(&mut self, snapshot: impl FnOnce() -> SnapshotSet) -> Result<u64> {
        let span = self
            .tracer
            .begin(sase_obs::TraceKind::Checkpoint, self.log.next_seq(), 0);
        let result = self.write_checkpoint(snapshot().engines);
        if result.is_ok() {
            self.metrics.checkpoints.inc();
        }
        if let Some(span) = span {
            self.tracer.end(span, result.is_ok() as u64);
        }
        result
    }

    fn write_checkpoint(&mut self, engines: Vec<EngineSnapshot>) -> Result<u64> {
        self.log.commit()?;
        let seq = self.log.next_seq();
        write_checkpoint(
            &self.dir,
            &Checkpoint {
                replay_from_seq: seq,
                engines,
            },
        )?;
        prune_checkpoints(&self.dir, self.opts.keep_checkpoints)?;
        Ok(seq)
    }

    /// Load the newest valid checkpoint, skipping corrupt ones.
    fn load_checkpoint(&self) -> Result<Restart> {
        let (ckpt, corrupt) = load_latest_checkpoint(&self.dir)?;
        Ok(Restart {
            from: ckpt.map(|c| (c.replay_from_seq, SnapshotSet { engines: c.engines })),
            corrupt,
        })
    }

    /// The recovery tail, once `engine` holds the checkpointed run's
    /// queries: restore its state from `restart`, check the log still
    /// covers the checkpoint, and replay the log from there.
    fn recover<P: EventProcessor + ?Sized>(
        &mut self,
        restart: Restart,
        engine: &mut P,
    ) -> Result<RecoveryReport> {
        let checkpoint_seq = restart.from.as_ref().map(|(seq, _)| *seq);
        if let Some((_, snaps)) = &restart.from {
            engine.restore(snaps)?;
        }
        let replay_from = checkpoint_seq.unwrap_or(0);
        // Reject a checkpoint referencing log records that no longer exist
        // (a segment deleted or truncated below it): replaying from thin
        // air would silently lose state.
        if replay_from > self.log.next_seq() {
            return Err(StoreError::Corrupt {
                path: self.dir.clone(),
                offset: 0,
                detail: format!(
                    "checkpoint references log seq {replay_from} but the log ends at {}; \
                     committed records are missing",
                    self.log.next_seq()
                ),
            }
            .into());
        }
        let registry = engine.schemas().clone();
        let records = self.log.replay_from(&registry, replay_from)?;
        let run = self.replay(replay_from, records, engine)?;
        Ok(RecoveryReport {
            checkpoint_seq,
            records_replayed: run.records,
            events_replayed: run.events,
            emissions: run.emissions,
            replay_errors: run.errors,
            corrupt_checkpoints: restart.corrupt,
        })
    }

    /// Drive log records through `engine` under a recovery span (id =
    /// `span_id`), advancing the recovery counters record by record so a
    /// concurrent metrics scrape sees replay progress.
    ///
    /// Store-level failures (I/O, corruption) abort; *engine* rejections
    /// are collected per record and replay continues — the rejection is
    /// deterministic (the live path rejected the identical record
    /// identically, leaving the engine usable), so surfacing it as data
    /// instead of an error keeps every committed record after a poisoned
    /// one reachable.
    fn replay<P: EventProcessor + ?Sized>(
        &self,
        span_id: u64,
        records: LogIter,
        engine: &mut P,
    ) -> Result<ReplayRun> {
        let span = self.tracer.begin(sase_obs::TraceKind::Recovery, span_id, 0);
        let m = &self.metrics;
        let drive = || -> Result<ReplayRun> {
            let mut run = ReplayRun {
                records: 0,
                events: 0,
                emissions: Vec::new(),
                errors: Vec::new(),
            };
            for record in records {
                let record = record?;
                let events = record.events.len() as u64;
                run.records += 1;
                run.events += events;
                m.recovery_records.inc();
                m.recovery_events.add(events);
                let result = engine.ingest(None, &record.events, &mut run.emissions, None);
                if let Err(e) = result {
                    run.errors.push((record.seq, e.to_string()));
                }
            }
            m.recovery_errors.add(run.errors.len() as u64);
            m.recovery_runs.inc();
            Ok(run)
        };
        let run = drive();
        if let Some(span) = span {
            self.tracer.end(span, run.as_ref().map_or(0, |r| r.records));
        }
        run
    }
}

/// Register every derived (`INTO`) stream type recorded in a checkpoint's
/// snapshot set on a fresh registry — step 1 of the restore protocol,
/// before queries consuming those streams can be re-registered.
pub fn preregister_derived(registry: &SchemaRegistry, snaps: &SnapshotSet) -> CoreResult<()> {
    snaps.preregister_derived(registry)
}

/// An engine deployment behind a write-ahead event log: the durability
/// decorator over any [`EventProcessor`] (a single [`Engine`](sase_core::engine::Engine), a
/// [`ShardedEngine`](crate::concurrent::ShardedEngine), …). It implements [`EventProcessor`] itself, so
/// `DurableEngine<ShardedEngine>` composes durability and sharding
/// without either knowing about the other.
///
/// Ingest order is log-first: the batch is appended (and, by default,
/// committed) before the engine processes it, so a crash at any point
/// between loses nothing — recovery replays the batch. The WAL tick is the
/// batch's first event timestamp. The log covers the default input
/// stream, the one the system deployments feed; ingesting on a named
/// stream is rejected (the log records carry no stream name, so replay
/// could not route them).
///
/// If the *engine* rejects a batch, the batch stays logged: the rejection
/// is deterministic, so replay reports the same rejection for that record
/// ([`RecoveryReport::replay_errors`]) and recovery proceeds past it: a
/// clock-rejected batch costs one record and replays as the same no-op.
pub struct DurableEngine<E: EventProcessor> {
    wal: Wal,
    engine: E,
}

impl<E: EventProcessor> DurableEngine<E> {
    /// Stand up a *new* durable deployment in `dir` around a freshly
    /// configured engine. Fails if `dir` already holds log records or
    /// checkpoints — recovering an existing deployment must go through
    /// [`DurableEngine::recover`], silently restarting over history would
    /// desynchronize engine state from the log.
    pub fn create(dir: impl Into<PathBuf>, engine: E, opts: DurableOptions) -> Result<Self> {
        Ok(DurableEngine {
            wal: Wal::create(dir.into(), opts)?,
            engine,
        })
    }

    /// Recover a deployment from `dir`: load the newest valid checkpoint,
    /// build the engine (the `make_engine` callback receives the
    /// checkpoint's snapshots so it can [`preregister_derived`] before
    /// re-registering the same queries in the same order), restore the
    /// state, and replay the log tail.
    pub fn recover(
        dir: impl Into<PathBuf>,
        opts: DurableOptions,
        make_engine: impl FnOnce(Option<&SnapshotSet>) -> CoreResult<E>,
    ) -> Result<(Self, RecoveryReport)> {
        let mut wal = Wal::open(dir.into(), opts)?;
        let restart = wal.load_checkpoint()?;
        let mut engine = make_engine(restart.snapshots())?;
        let report = wal.recover(restart, &mut engine)?;
        Ok((DurableEngine { wal, engine }, report))
    }

    /// Install a lifecycle tracer (WAL-commit, checkpoint, and replay
    /// spans). To trace the wrapped engine's batch/query spans too, set
    /// a tracer on it via [`DurableEngine::engine_mut`] (or build it
    /// traced before wrapping).
    pub fn set_tracer(&mut self, tracer: sase_obs::Tracer) {
        self.wal.tracer = tracer;
    }

    /// The durable layer's metrics registry (`sase_wal_*`,
    /// `sase_checkpoints_total`, `sase_recovery_*` series). Always
    /// enabled: WAL instrumentation cost is noise next to the I/O it
    /// measures.
    pub fn metrics_registry(&self) -> &sase_obs::MetricsRegistry {
        &self.wal.metrics.registry
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine (e.g. to attach sinks).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The underlying event log.
    pub fn log(&self) -> &EventLog {
        &self.wal.log
    }

    /// The deployment directory.
    pub fn dir(&self) -> &Path {
        &self.wal.dir
    }

    /// Make every ingested batch durable (one fsync).
    pub fn commit(&mut self) -> Result<()> {
        Ok(self.wal.commit()?)
    }

    /// Write an atomic checkpoint of the engine state referencing the
    /// current log position, then prune old checkpoints. Returns the
    /// checkpoint's log position.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.wal.checkpoint(|| self.engine.snapshot())
    }

    /// Replay mode: re-drive the logged tick range `[min_tick, max_tick]`
    /// at full speed through a *separate* engine (typically a fresh one
    /// with analytical queries), without touching this deployment's live
    /// engine state.
    pub fn replay_range<R: EventProcessor>(
        &mut self,
        engine: &mut R,
        min_tick: Timestamp,
        max_tick: Timestamp,
    ) -> Result<ReplayRun> {
        let registry = engine.schemas().clone();
        let records = self.wal.log.replay_ticks(&registry, min_tick, max_tick)?;
        self.wal.replay(min_tick, records, engine)
    }
}

impl<E: EventProcessor> std::fmt::Debug for DurableEngine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine")
            .field("dir", &self.wal.dir)
            .field("log", &self.wal.log)
            .finish()
    }
}

/// The durability decorator on the unified processor surface: query
/// management, inspection, sinks, and state pass through to the wrapped
/// deployment; ingest is write-ahead logged first. Store failures surface
/// as engine errors here; the inherent methods keep the typed
/// [`DurableError`].
///
/// Queries registered through this surface are, like all queries, *code*
/// rather than logged state: recovery re-registers them via the
/// [`DurableEngine::recover`] callback.
impl<E: EventProcessor> EventProcessor for DurableEngine<E> {
    fn register(&mut self, name: &str, src: &str) -> CoreResult<()> {
        self.engine.register(name, src)
    }

    fn check(&self, src: &str) -> Vec<sase_core::analyze::Diagnostic> {
        self.engine.check(src)
    }

    fn unregister(&mut self, name: &str) -> bool {
        self.engine.unregister(name)
    }

    fn ingest(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> CoreResult<()> {
        if let Some(s) = stream {
            return Err(SaseError::engine(format!(
                "durable deployments log only the default input stream, not `{s}`; \
                 ingest through the default stream"
            )));
        }
        if let Some(first) = events.first() {
            self.wal
                .append(first.timestamp(), events)
                .map_err(|e| SaseError::engine(format!("event log: {e}")))?;
        }
        self.engine.ingest(None, events, out, tags)
    }

    fn query_names(&self) -> Vec<String> {
        self.engine.query_names()
    }

    fn stats(&self, name: &str) -> CoreResult<RuntimeStats> {
        self.engine.stats(name)
    }

    fn metrics_registry(&self) -> Option<&sase_obs::MetricsRegistry> {
        Some(&self.wal.metrics.registry)
    }

    fn metrics(&self) -> sase_obs::MetricsSnapshot {
        // The wrapped deployment's full view (its registry, worker
        // merges, per-query series) plus this layer's WAL / checkpoint /
        // recovery series.
        let mut snap = self.engine.metrics();
        snap.merge(&self.wal.metrics.registry.snapshot());
        snap
    }

    fn explain(&self, name: &str) -> CoreResult<String> {
        self.engine.explain(name)
    }

    fn query_text(&self, name: &str) -> CoreResult<String> {
        self.engine.query_text(name)
    }

    fn add_sink(&mut self, name: &str, sink: Sink) -> CoreResult<()> {
        self.engine.add_sink(name, sink)
    }

    fn schemas(&self) -> &SchemaRegistry {
        self.engine.schemas()
    }

    fn snapshot(&self) -> SnapshotSet {
        self.engine.snapshot()
    }

    fn restore(&mut self, snaps: &SnapshotSet) -> CoreResult<()> {
        self.engine.restore(snaps)
    }
}

/// The full retail system with a durable event processor: every tick's
/// cleaned events are write-ahead logged, the engine checkpoints on
/// demand, and an engine crash recovers in place while the device and
/// cleaning layers keep running (they are separate components in the
/// paper's deployment; their in-flight state is upstream of the
/// durability boundary).
pub struct DurableSystem {
    wal: Wal,
    sys: SaseSystem,
    /// A tick's cleaned events whose WAL append failed: the simulator has
    /// already advanced past them, so they are parked here and retried at
    /// the start of the next [`DurableSystem::tick`] instead of being
    /// dropped.
    pending: Option<(Timestamp, Vec<Event>)>,
}

impl DurableSystem {
    /// Wrap a freshly built [`SaseSystem`] (no ticks run yet) with a new
    /// durable deployment in `dir`. Fails, like [`DurableEngine::create`],
    /// if `dir` already holds log records or checkpoints.
    pub fn create(
        dir: impl Into<PathBuf>,
        sys: SaseSystem,
        opts: DurableOptions,
    ) -> Result<DurableSystem> {
        Ok(DurableSystem {
            wal: Wal::create(dir.into(), opts)?,
            sys,
            pending: None,
        })
    }

    /// Reattach a freshly built [`SaseSystem`] (new process, no ticks run
    /// yet) to an *existing* deployment in `dir`: re-register queries via
    /// `register` (same queries, same order as the checkpointed run),
    /// restore the newest valid checkpoint, and replay the log tail.
    ///
    /// The engine resumes exactly; the device and cleaning layers are the
    /// host's to resume (they are upstream of the durability boundary).
    /// With the deterministic simulator, calling
    /// [`SaseSystem::advance_upstream`] once per tick up to the crash
    /// point reproduces both the device clock and the cleaning layers'
    /// in-flight state (smoothing windows, dedup history, the
    /// event-generation logical clock), after which [`DurableSystem::tick`]
    /// continues the logical-time stream exactly where the dead process
    /// left it.
    pub fn recover(
        dir: impl Into<PathBuf>,
        sys: SaseSystem,
        opts: DurableOptions,
        register: impl FnOnce(&mut SaseSystem) -> CoreResult<()>,
    ) -> Result<(DurableSystem, RecoveryReport)> {
        let mut durable = DurableSystem {
            wal: Wal::open(dir.into(), opts)?,
            sys,
            pending: None,
        };
        let report = durable.recover_engine(register)?;
        Ok((durable, report))
    }

    /// Install a lifecycle tracer (WAL-commit, checkpoint, and recovery
    /// spans).
    pub fn set_tracer(&mut self, tracer: sase_obs::Tracer) {
        self.wal.tracer = tracer;
    }

    /// The durable layer's metrics registry (`sase_wal_*`,
    /// `sase_checkpoints_total`, `sase_recovery_*` series).
    pub fn metrics_registry(&self) -> &sase_obs::MetricsRegistry {
        &self.wal.metrics.registry
    }

    /// A typed metrics view of the whole deployment: the processor's
    /// series plus this layer's WAL / checkpoint / recovery series.
    pub fn metrics(&self) -> sase_obs::MetricsSnapshot {
        let mut snap = self.sys.processor().metrics();
        snap.merge(&self.wal.metrics.registry.snapshot());
        snap
    }

    /// The wrapped system.
    pub fn system(&self) -> &SaseSystem {
        &self.sys
    }

    /// Mutable access to the wrapped system (register queries here).
    pub fn system_mut(&mut self) -> &mut SaseSystem {
        &mut self.sys
    }

    /// The underlying event log.
    pub fn log(&self) -> &EventLog {
        &self.wal.log
    }

    /// Make every logged tick durable (one fsync) — the host's commit
    /// cadence when `sync_each_batch` is off.
    pub fn commit(&mut self) -> Result<()> {
        Ok(self.wal.commit()?)
    }

    /// Run one scan cycle, write-ahead logging the cleaned events before
    /// the engine ingests them. Log failures surface as
    /// [`DurableError::Store`] with their store typing intact; the cycle's
    /// events are parked and retried (log first, then process) at the next
    /// call, so a transient write failure delays them without losing them.
    pub fn tick(
        &mut self,
        scenario: Option<&sase_rfid::scenario::RetailScenario>,
    ) -> Result<TickResult> {
        // Retry a previously failed append first: its events are older
        // than this cycle's, so log-and-process order is preserved.
        let mut carried = Vec::new();
        if let Some((tick, events)) = self.pending.take() {
            if let Err(e) = self.wal.append(tick, &events) {
                self.pending = Some((tick, events));
                return Err(e.into());
            }
            (self.sys.processor_mut()).ingest(None, &events, &mut carried, None)?;
            self.sys.archive_detections(&carried);
        }

        let wal = &mut self.wal;
        // The observer channel only carries `SaseError`; stash the typed
        // store error (and the unlogged batch) on the side.
        let mut store_err: Option<(StoreError, Timestamp, Vec<Event>)> = None;
        let result = self.sys.tick_observed(scenario, &mut |tick, events| {
            wal.append(tick, events).map_err(|e| {
                let wrapped = SaseError::engine(format!("event log: {e}"));
                store_err = Some((e, tick, events.to_vec()));
                wrapped
            })
        });
        match result {
            Ok(mut r) => {
                if !carried.is_empty() {
                    carried.extend(r.detections);
                    r.detections = carried;
                }
                Ok(r)
            }
            Err(e) => Err(match store_err {
                Some((s, tick, events)) => {
                    self.pending = Some((tick, events));
                    DurableError::Store(s)
                }
                None => DurableError::Core(e),
            }),
        }
    }

    /// Checkpoint the engine against the current log position.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.wal.checkpoint(|| self.sys.processor().snapshot())
    }

    /// Simulate an engine crash: all queries, runtime state, and stream
    /// clocks are dropped (the upstream layers keep running). Follow with
    /// [`DurableSystem::recover_engine`].
    pub fn crash_engine(&mut self) {
        self.sys.reset_engine();
    }

    /// Recover the engine: re-register queries via `register` (same
    /// queries, same order as the checkpointed run — derived stream types
    /// are preregistered first), restore the newest valid checkpoint, and
    /// replay the log tail. Replayed emissions are returned in the report,
    /// not appended to the system's detection archive (in a real restart
    /// the archive starts empty; in-place the live copies are already
    /// there).
    pub fn recover_engine(
        &mut self,
        register: impl FnOnce(&mut SaseSystem) -> CoreResult<()>,
    ) -> Result<RecoveryReport> {
        self.sys.reset_engine();
        let restart = self.wal.load_checkpoint()?;
        if let Some(snaps) = restart.snapshots() {
            preregister_derived(self.sys.schemas(), snaps)?;
        }
        register(&mut self.sys)?;
        self.wal.recover(restart, self.sys.processor_mut())
    }
}

impl std::fmt::Debug for DurableSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSystem")
            .field("dir", &self.wal.dir)
            .field("log", &self.wal.log)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::engine::Engine;
    use sase_core::event::retail_registry;
    use sase_core::value::Value;
    use sase_obs::{MemorySink, TraceKind, TracePhase, Tracer};
    use sase_rfid::noise::NoiseModel;
    use std::sync::Arc;

    const Q: &str = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                     WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId AS tag";

    fn tmp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sase-durable-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_with_q() -> Engine {
        let mut e = Engine::new(retail_registry());
        e.register("q", Q).unwrap();
        e
    }

    /// One ingest call on the default stream, returning its emissions.
    fn batch(p: &mut dyn EventProcessor, events: &[Event]) -> CoreResult<Vec<ComplexEvent>> {
        let mut out = Vec::new();
        p.ingest(None, events, &mut out, None).map(|()| out)
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
        )
        .unwrap()
    }

    #[test]
    fn create_ingest_checkpoint_recover_resumes() {
        let dir = tmp_dir("basic");
        let mut durable =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap();
        let reg = durable.engine().schemas().clone();

        // Two shelf readings land in stacks; checkpoint; one more batch
        // after the checkpoint stays only in the log.
        batch(&mut durable, &[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();
        let seq = durable.checkpoint().unwrap();
        assert_eq!(seq, 1);
        let out = batch(&mut durable, &[ev(&reg, "SHELF_READING", 2, 8)]).unwrap();
        assert!(out.is_empty());
        drop(durable);

        let (mut recovered, report) =
            DurableEngine::recover(&dir, DurableOptions::default(), |snaps| {
                let reg = retail_registry();
                if let Some(snaps) = snaps {
                    preregister_derived(&reg, snaps)?;
                }
                let mut e = Engine::new(reg);
                e.register("q", Q)?;
                Ok(e)
            })
            .unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.events_replayed, 1);
        assert!(report.emissions.is_empty());
        assert!(report.corrupt_checkpoints.is_empty());

        // Both pending shelf readings must pair with the exit.
        let reg = recovered.engine().schemas().clone();
        let out = batch(
            &mut recovered,
            &[
                ev(&reg, "EXIT_READING", 3, 7),
                ev(&reg, "EXIT_READING", 3, 8),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_without_checkpoint_replays_everything() {
        let dir = tmp_dir("nockpt");
        let mut durable =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap();
        let reg = durable.engine().schemas().clone();
        let live = batch(
            &mut durable,
            &[
                ev(&reg, "SHELF_READING", 1, 7),
                ev(&reg, "EXIT_READING", 2, 7),
            ],
        )
        .unwrap();
        assert_eq!(live.len(), 1);
        drop(durable);

        let (_, report) = DurableEngine::recover(&dir, DurableOptions::default(), |_| {
            let mut e = Engine::new(retail_registry());
            e.register("q", Q)?;
            Ok(e)
        })
        .unwrap();
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.records_replayed, 1);
        // Deterministic replay: the match is re-emitted byte-for-byte.
        assert_eq!(report.emissions.len(), 1);
        assert_eq!(report.emissions[0].to_string(), live[0].to_string());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_deployment() {
        let dir = tmp_dir("refuse");
        let mut durable =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap();
        let reg = durable.engine().schemas().clone();
        batch(&mut durable, &[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();
        drop(durable);
        let err =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            DurableError::Store(StoreError::InvalidArgument(_))
        ));
        // Both wrappers refuse through the one shared check, in one text.
        let sys = SaseSystem::retail(NoiseModel::perfect(), 7, 4).unwrap();
        let sys_err = DurableSystem::create(&dir, sys, DurableOptions::default()).unwrap_err();
        assert!(matches!(
            sys_err,
            DurableError::Store(StoreError::InvalidArgument(_))
        ));
        assert_eq!(sys_err.to_string(), err.to_string());
        assert!(
            err.to_string()
                .contains("already holds a durable deployment (1 log records, 0 checkpoints)"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_synced_batch_is_one_wal_commit_span_on_either_wrapper() {
        let commit_spans = |sink: &MemorySink| {
            sink.drain()
                .iter()
                .filter(|e| e.kind == TraceKind::WalCommit && e.phase == TracePhase::End)
                .count()
        };

        let dir = tmp_dir("spans-engine");
        let mut durable =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap();
        let sink = Arc::new(MemorySink::new());
        durable.set_tracer(Tracer::sampled(sink.clone(), 1));
        let reg = durable.engine().schemas().clone();
        for tick in 0..3u64 {
            batch(&mut durable, &[ev(&reg, "SHELF_READING", tick + 1, 7)]).unwrap();
        }
        assert_eq!(commit_spans(&sink), 3);
        durable.commit().unwrap();
        assert_eq!(commit_spans(&sink), 1);
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = tmp_dir("spans-system");
        let sys = SaseSystem::retail(NoiseModel::perfect(), 7, 4).unwrap();
        let mut durable = DurableSystem::create(&dir, sys, DurableOptions::default()).unwrap();
        let sink = Arc::new(MemorySink::new());
        durable.set_tracer(Tracer::sampled(sink.clone(), 1));
        for _ in 0..3 {
            durable.tick(None).unwrap();
        }
        assert_eq!(durable.log().next_seq(), 3);
        assert_eq!(commit_spans(&sink), 3);
        durable.commit().unwrap();
        assert_eq!(commit_spans(&sink), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_ahead_of_truncated_log_is_detected() {
        let dir = tmp_dir("ahead");
        let mut durable =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap();
        let reg = durable.engine().schemas().clone();
        for tick in 0..5u64 {
            batch(&mut durable, &[ev(&reg, "SHELF_READING", tick + 1, 7)]).unwrap();
        }
        durable.checkpoint().unwrap();
        let seg = durable.log().segments()[0].clone();
        drop(durable);
        // Cut away two committed records the checkpoint depends on.
        let bytes = std::fs::read(&seg.path).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg.path)
            .unwrap();
        f.set_len(bytes.len() as u64 / 2).unwrap();
        drop(f);

        let err = DurableEngine::<Engine>::recover(&dir, DurableOptions::default(), |_| {
            let mut e = Engine::new(retail_registry());
            e.register("q", Q)?;
            Ok(e)
        })
        .unwrap_err();
        assert!(
            matches!(err, DurableError::Store(StoreError::Corrupt { .. })),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_rejected_batch_cannot_poison_recovery() {
        // A batch the engine rejects (timestamp regression) is already
        // durably logged. Recovery must report the deterministic
        // re-rejection and keep going — every record after the poisoned
        // one stays reachable.
        let dir = tmp_dir("poison");
        let mut durable =
            DurableEngine::create(&dir, engine_with_q(), DurableOptions::default()).unwrap();
        let reg = durable.engine().schemas().clone();
        batch(&mut durable, &[ev(&reg, "SHELF_READING", 10, 7)]).unwrap();
        // A regressed event timestamp: the log accepts the batch (its WAL
        // tick 5 clamps up to 10), the engine rejects it whole.
        let err = batch(&mut durable, &[ev(&reg, "SHELF_READING", 5, 7)]).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
        assert_eq!(durable.log().last_tick(), Some(10));
        // The system keeps running past the bad batch.
        let live = batch(&mut durable, &[ev(&reg, "EXIT_READING", 11, 7)]).unwrap();
        assert_eq!(live.len(), 1);
        drop(durable);

        let (mut recovered, report) =
            DurableEngine::recover(&dir, DurableOptions::default(), |_| {
                let mut e = Engine::new(retail_registry());
                e.register("q", Q)?;
                Ok(e)
            })
            .unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.replay_errors.len(), 1);
        assert_eq!(report.replay_errors[0].0, 1, "the poisoned record's seq");
        assert!(report.replay_errors[0].1.contains("out-of-order"));
        // The record after the poison replayed: its match was re-emitted
        // and the engine resumed with live state intact.
        assert_eq!(report.emissions.len(), 1);
        assert_eq!(report.emissions[0].to_string(), live[0].to_string());
        let reg = recovered.engine().schemas().clone();
        let out = batch(&mut recovered, &[ev(&reg, "EXIT_READING", 12, 7)]).unwrap();
        assert_eq!(out.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_checkpoint_with_post_build_register_recovers() {
        // Post-build registration must be placement-deterministic: a
        // recovery that replays the same registration sequence (builder
        // queries, then the post-build register) reproduces the query →
        // shard assignment, so the checkpoint restores cleanly.
        let build = |snaps: Option<&SnapshotSet>| -> CoreResult<crate::ShardedEngine> {
            let reg = retail_registry();
            if let Some(s) = snaps {
                s.preregister_derived(&reg)?;
            }
            let mut b = crate::ShardedEngineBuilder::new(reg);
            b.register("a", Q)?;
            b.register("b", "EVENT COUNTER_READING c RETURN c.TagId AS t")?;
            let mut sharded = b.build(2)?;
            sharded.register("late", "EVENT EXIT_READING z RETURN z.TagId AS t")?;
            Ok(sharded)
        };
        let dir = tmp_dir("sharded-late");
        let mut durable =
            DurableEngine::create(&dir, build(None).unwrap(), DurableOptions::default()).unwrap();
        let reg = durable.engine().schemas().clone();
        batch(&mut durable, &[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();
        durable.checkpoint().unwrap();
        drop(durable);

        let (mut recovered, report) =
            DurableEngine::recover(&dir, DurableOptions::default(), build).unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert!(report.replay_errors.is_empty());
        // The pending sequence and the late query both resumed.
        let out = batch(&mut recovered, &[ev(&reg, "EXIT_READING", 2, 7)]).unwrap();
        assert_eq!(out.len(), 2, "`a` match + `late` match: {out:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_restore_rejects_wrong_shard_count() {
        let mut builder = crate::ShardedEngineBuilder::new(retail_registry());
        builder.register("a", Q).unwrap();
        builder
            .register("b", "EVENT COUNTER_READING c RETURN c.TagId AS t")
            .unwrap();
        let mut sharded = builder.build(2).unwrap();
        let snaps = sharded.snapshot();
        assert_eq!(snaps.len(), 2);
        let short = SnapshotSet {
            engines: snaps.engines[..1].to_vec(),
        };
        assert!(sharded.restore(&short).is_err());
        assert!(sharded.restore(&snaps).is_ok());
    }
}
