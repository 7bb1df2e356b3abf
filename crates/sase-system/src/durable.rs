//! Durable deployments: write-ahead event logging, engine checkpoints and
//! crash recovery.
//!
//! The durability boundary is the *complex event processor*: the cleaned
//! event stream is the canonical record (appended to a
//! [`sase_store::EventLog`] before the engine sees each batch), and engine
//! state is checkpointed as [`EngineSnapshot`]s referencing a log
//! position. A snapshot holds events too: the ones the queries still keep,
//! and where each query keeps them (see [`sase_core::snapshot`]), not the
//! stacks and buckets that index them. On restart, [`Wal::recover`]
//! restores the engines from the newest valid checkpoint (converting one
//! of the previous format version) by re-appending those events, and
//! replays only the log tail — resuming exactly where the crashed process
//! left off, provably: replay re-emits byte-for-byte the composite events
//! the crashed process emitted after its last checkpoint (the recovery
//! tests assert this against an uninterrupted reference run).
//!
//! Delivery semantics are the standard WAL contract: inputs are durable
//! once [`EventLog::commit`] returns (`sync_each_batch` commits on every
//! ingest); emissions after the last checkpoint are re-emitted during
//! replay (at-least-once), and deterministically identical to the
//! originals, so downstream consumers dedup by log position.
//!
//! [`Wal`] is the one write-ahead core: it owns the directory, the
//! options, the log, the metrics and the tracer, and is the only code that
//! refuses an occupied directory, appends, commits, checkpoints and
//! replays. Two deployments hold one beside their processor: the `Sase`
//! facade of the umbrella crate (durability is its optional `Wal` field,
//! over a single or a sharded engine), and [`DurableSystem`], the full
//! [`SaseSystem`] whose engine can be crashed and recovered in place while
//! the device and cleaning layers keep running (the deployment shape of
//! Figure 1, where those layers are separate processes).

use std::path::PathBuf;

use sase_core::error::{Result as CoreResult, SaseError};
use sase_core::event::Event;
use sase_core::output::ComplexEvent;
use sase_core::processor::EventProcessor;
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
    /// host owns the commit cadence via [`Wal::commit`] —
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

/// The newest valid checkpoint of a deployment directory, loaded by
/// [`Wal::load_checkpoint`] and consumed by [`Wal::recover`]. In between,
/// the host rebuilds its engine: it preregisters the derived stream types
/// of [`Restart::snapshots`], then re-registers the checkpointed run's
/// queries in the same order.
pub struct Restart {
    /// The checkpoint's log position and its snapshots (moved out of the
    /// checkpoint, never cloned); `None` when no valid checkpoint exists.
    from: Option<(u64, SnapshotSet)>,
    /// Checkpoint files skipped because they failed validation.
    corrupt: Vec<PathBuf>,
}

impl Restart {
    /// The checkpoint's snapshots; `None` when recovery replays the whole
    /// log.
    pub fn snapshots(&self) -> Option<&SnapshotSet> {
        self.from.as_ref().map(|(_, snaps)| snaps)
    }
}

/// The write-ahead core of every durable deployment: the deployment
/// directory, its options, the event log, the layer's metrics and its
/// lifecycle tracer.
///
/// Ingest order is log-first: the host appends a batch (and, by default,
/// commits it) before its engine processes it, so a crash at any point
/// between loses nothing — recovery replays the batch. The log covers the
/// default input stream only: its records carry no stream name, so replay
/// could not route them.
///
/// If the *engine* rejects a logged batch, the batch stays logged: the
/// rejection is deterministic, so replay reports the same rejection for
/// that record ([`RecoveryReport::replay_errors`]) and recovery proceeds
/// past it: a clock-rejected batch costs one record and replays as the
/// same no-op.
pub struct Wal {
    dir: PathBuf,
    opts: DurableOptions,
    log: EventLog,
    metrics: DurableMetrics,
    tracer: sase_obs::Tracer,
}

impl Wal {
    /// Open (or create) the event log in `dir`, instrumented on a fresh
    /// metrics registry, with tracing off — the first step of recovering
    /// an existing deployment.
    pub fn open(dir: impl Into<PathBuf>, opts: DurableOptions) -> Result<Wal> {
        let dir = dir.into();
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
    pub fn create(dir: impl Into<PathBuf>, opts: DurableOptions) -> Result<Wal> {
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

    /// Install a lifecycle tracer (WAL-commit, checkpoint, and recovery
    /// spans).
    pub fn set_tracer(&mut self, tracer: sase_obs::Tracer) {
        self.tracer = tracer;
    }

    /// The layer's metrics registry (`sase_wal_*`,
    /// `sase_checkpoints_total`, `sase_recovery_*` series). Always
    /// enabled: WAL instrumentation cost is noise next to the I/O it
    /// measures.
    pub fn metrics_registry(&self) -> &sase_obs::MetricsRegistry {
        &self.metrics.registry
    }

    /// Append one batch at `tick`, committing it under `sync_each_batch`.
    ///
    /// The tick is clamped up to the log's last tick: the WAL tick is a
    /// replay-range index (events carry their own timestamps), and a batch
    /// that starts below it is still logged — the engine then rejects it
    /// for its clock, and replay rejects it again.
    pub fn append(&mut self, tick: Timestamp, events: &[Event]) -> sase_store::Result<()> {
        let tick = tick.max(self.log.last_tick().unwrap_or(0));
        self.log.append(tick, events)?;
        if self.opts.sync_each_batch {
            self.commit()?;
        }
        Ok(())
    }

    /// Make every appended batch durable (one fsync), under a WAL-commit
    /// trace span (id = last appended seq) — the host's commit cadence
    /// when `sync_each_batch` is off.
    pub fn commit(&mut self) -> sase_store::Result<()> {
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
    pub fn checkpoint(&mut self, snapshot: impl FnOnce() -> SnapshotSet) -> Result<u64> {
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
    pub fn load_checkpoint(&self) -> Result<Restart> {
        let (ckpt, corrupt) = load_latest_checkpoint(&self.dir)?;
        Ok(Restart {
            from: ckpt.map(|c| (c.replay_from_seq, SnapshotSet { engines: c.engines })),
            corrupt,
        })
    }

    /// The recovery tail, once `engine` holds the checkpointed run's
    /// queries: restore its state from `restart`, check the log still
    /// covers the checkpoint, and replay the log from there under a
    /// recovery span, advancing the recovery counters record by record so
    /// a concurrent metrics scrape sees replay progress.
    ///
    /// Store-level failures (I/O, corruption) abort; *engine* rejections
    /// are collected per record and replay continues — the rejection is
    /// deterministic (the live path rejected the identical record
    /// identically, leaving the engine usable), so surfacing it as data
    /// instead of an error keeps every committed record after a poisoned
    /// one reachable.
    pub fn recover<P: EventProcessor + ?Sized>(
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
        let mut report = RecoveryReport {
            checkpoint_seq,
            records_replayed: 0,
            events_replayed: 0,
            emissions: Vec::new(),
            replay_errors: Vec::new(),
            corrupt_checkpoints: restart.corrupt,
        };
        let span = self
            .tracer
            .begin(sase_obs::TraceKind::Recovery, replay_from, 0);
        let result = self.replay(records, engine, &mut report);
        if let Some(span) = span {
            let replayed = if result.is_ok() {
                report.records_replayed
            } else {
                0
            };
            self.tracer.end(span, replayed);
        }
        result.map(|()| report)
    }

    fn replay<P: EventProcessor + ?Sized>(
        &self,
        records: LogIter,
        engine: &mut P,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let m = &self.metrics;
        for record in records {
            let record = record?;
            let events = record.events.len() as u64;
            report.records_replayed += 1;
            report.events_replayed += events;
            m.recovery_records.inc();
            m.recovery_events.add(events);
            let result = engine.ingest(None, &record.events, &mut report.emissions, None);
            if let Err(e) = result {
                report.replay_errors.push((record.seq, e.to_string()));
            }
        }
        m.recovery_errors.add(report.replay_errors.len() as u64);
        m.recovery_runs.inc();
        Ok(())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("log", &self.log)
            .finish()
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
    /// durable deployment in `dir`. Fails, like [`Wal::create`], if `dir`
    /// already holds log records or checkpoints.
    pub fn create(
        dir: impl Into<PathBuf>,
        sys: SaseSystem,
        opts: DurableOptions,
    ) -> Result<DurableSystem> {
        Ok(DurableSystem {
            wal: Wal::create(dir, opts)?,
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
            wal: Wal::open(dir, opts)?,
            sys,
            pending: None,
        };
        let report = durable.recover_engine(register)?;
        Ok((durable, report))
    }

    /// Install a lifecycle tracer (WAL-commit, checkpoint, and recovery
    /// spans).
    pub fn set_tracer(&mut self, tracer: sase_obs::Tracer) {
        self.wal.set_tracer(tracer);
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
            snaps.preregister_derived(self.sys.schemas())?;
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
