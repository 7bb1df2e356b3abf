//! `fanin_embedded` and `fanin_durable`: the block through
//! `Sase::process`, on the single indexed engine and behind the WAL.
//!
//! Stream, queries and batch size are identical, so the difference
//! between the two is the durable tax and nothing else.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sase::core::engine::Engine;
use sase::core::event::Event;
use sase::core::functions::FunctionRegistry;
use sase::core::lang::parse_query;
use sase::core::output::ComplexEvent;
use sase::core::plan::Planner;
use sase::core::runtime::{QueryRuntime, RuntimeStats};
use sase::core::time::TimeScale;
use sase::store::codec::{put_engine_snapshot, ByteWriter};
use sase::store::{EventLog, LogOptions};
use sase::{render_prometheus, DurableOptions, RecoveryReport, Sase, SaseBuilder, ShardingMode};

use crate::input::{checksum, register_all, Block, BATCH};
use crate::round::{put, CpuMeter, Laps, Layers, Round, Workload};
use crate::spans::{median_us, total_us, Recorder};

/// The durable deployment's options: the host owns the commit cadence.
///
/// The default fsyncs every batch, and on the shared disk under the
/// checkout (the only place a run may write) that fsync does not repeat:
/// the same binary read 604k–926k events/s across runs twenty minutes
/// apart, with every call's *fastest* fsyncs moving together. So the timed
/// calls append to the log without syncing — the program's encode, CRC and
/// write cost, which repeats — and the round commits once, after them.
/// What an fsync costs stays in the traced run
/// (`store.commit_us_per_batch`).
fn wal_options() -> DurableOptions {
    DurableOptions {
        sync_each_batch: false,
        ..DurableOptions::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Embedded,
    Durable,
}

pub struct Fanin {
    block: Arc<Block>,
    shape: Shape,
    /// Parent of the per-round WAL directories.
    scratch: PathBuf,
    rounds: u64,
    /// The last round's WAL directory, kept for [`Workload::finish`].
    last_wal: Option<PathBuf>,
}

/// Compare one round's per-batch results with the reference. An
/// operation is a batch; every batch of a round whose emissions differ
/// from the reference counts as failed.
pub fn check_batches(block: &Block, outs: &[Result<Vec<String>, String>]) -> (u64, u64) {
    let attempted = outs.len() as u64;
    let errored = outs.iter().filter(|o| o.is_err()).count() as u64;
    let counts_match = outs.len() == block.reference.per_batch.len()
        && outs
            .iter()
            .zip(&block.reference.per_batch)
            .all(|(o, &n)| o.as_ref().is_ok_and(|v| v.len() == n as usize));
    let sum = checksum(outs.iter().flatten().flatten());
    if errored == 0 && counts_match && sum == block.reference.checksum {
        (attempted, 0)
    } else {
        for e in outs.iter().filter_map(|o| o.as_ref().err()).take(3) {
            eprintln!("perfbench: batch failed: {e}");
        }
        (attempted, attempted)
    }
}

/// What a batch emitted, rendered for the checksum (outside any timed
/// section).
pub fn rendered(
    out: Result<Vec<ComplexEvent>, sase::core::error::SaseError>,
) -> Result<Vec<String>, String> {
    out.map(|v| v.iter().map(|ce| ce.to_string()).collect())
        .map_err(|e| e.to_string())
}

impl Fanin {
    pub fn new(block: Arc<Block>, shape: Shape, scratch: PathBuf) -> Self {
        Fanin {
            block,
            shape,
            scratch,
            rounds: 0,
            last_wal: None,
        }
    }

    fn builder(&self) -> SaseBuilder {
        Sase::builder().schemas(self.block.registry.clone())
    }

    /// Remove the previous round's WAL directory. Called where a round
    /// starts, before its set-up timer: removal belongs to neither set-up
    /// nor the timed calls.
    fn retire_wal(&mut self) {
        if let Some(old) = self.last_wal.take() {
            let _ = std::fs::remove_dir_all(old);
        }
    }

    /// A directory name no earlier round of this process used.
    fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.rounds += 1;
        self.scratch.join(format!("{tag}-{}", self.rounds))
    }

    /// Reopen a round's WAL directory: re-register the queries, replay.
    fn recover(&self, dir: PathBuf) -> sase::core::error::Result<(Sase, RecoveryReport)> {
        self.builder().durable(dir, wal_options()).recover(|p| {
            for (name, src) in &self.block.queries {
                p.register(name, src)?;
            }
            Ok(())
        })
    }

    /// The round's one commit (durable shape only), after the timed
    /// calls: an operation like any batch, `(attempted, failed)`.
    fn commit(&self, sase: &mut Sase) -> (u64, u64) {
        if self.shape == Shape::Embedded {
            return (0, 0);
        }
        let failed = sase.commit().is_err();
        if failed {
            eprintln!("perfbench: the round's commit failed");
        }
        (1, u64::from(failed))
    }

    /// Build and register: the set-up the user pays before the first
    /// batch, one lap per step.
    fn deploy(&mut self, laps: &mut Laps) -> Sase {
        let builder = match self.shape {
            Shape::Embedded => self.builder(),
            Shape::Durable => {
                let dir = self.fresh_dir("wal");
                self.last_wal = Some(dir.clone());
                self.builder().durable(dir, wal_options())
            }
        };
        let mut sase = builder.build().expect("deployment builds");
        laps.lap();
        register_all(&mut sase, &self.block.queries);
        laps.lap();
        sase
    }
}

impl Workload for Fanin {
    fn round(&mut self) -> Round {
        self.retire_wal();
        let mut setup = Laps::start();
        let mut sase = self.deploy(&mut setup);

        let block = Arc::clone(&self.block);
        let batches = block.batches();
        let mut latencies_us = Vec::with_capacity(batches);
        let mut outs = Vec::with_capacity(batches);
        let mut cpu_us = Vec::with_capacity(batches);
        let mut cpu = CpuMeter::start();
        for chunk in block.events.chunks(BATCH) {
            let sent = Instant::now();
            let out = sase.process(chunk);
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            cpu_us.push(cpu.lap_us());
            outs.push(out);
        }
        let committed = self.commit(&mut sase);
        drop(sase);

        let outs: Vec<_> = outs.into_iter().map(rendered).collect();
        let (attempted, failed) = check_batches(&block, &outs);
        let (attempted, failed) = (attempted + committed.0, failed + committed.1);
        setup.us.push(latencies_us[0]);
        Round {
            setup_us: setup.us,
            records: block.events.len() as u64,
            calls_us: latencies_us,
            cpu_us,
            emitted: block.reference.per_batch.clone(),
            attempted,
            failed,
        }
    }

    fn traced_round(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Round {
        match self.shape {
            Shape::Embedded => self.traced_embedded(rec, layers),
            Shape::Durable => self.traced_durable(rec, layers),
        }
    }

    fn finish(&mut self) -> (u64, u64) {
        let Some(dir) = self.last_wal.take() else {
            return (0, 0);
        };
        // One recovery of the last round's log: every batch must replay
        // and re-emit what the live round emitted.
        let block = &self.block;
        let ok = match self.recover(dir.clone()) {
            Ok((_, report)) => {
                report.records_replayed == block.batches() as u64
                    && report.replay_errors.is_empty()
                    && checksum(report.emissions.iter().map(|ce| ce.to_string()))
                        == block.reference.checksum
            }
            Err(e) => {
                eprintln!("perfbench: recover failed: {e}");
                false
            }
        };
        let _ = std::fs::remove_dir_all(dir);
        (1, u64::from(!ok))
    }

    fn gen_s(&self) -> f64 {
        self.block.gen_s
    }
}

/// A bare `Engine` with the block's queries: the replica that times
/// sase-core without the facade, the WAL or the wire around it.
pub fn bare_engine(block: &Block) -> Engine {
    let mut engine = Engine::new(block.registry.clone());
    for (name, src) in &block.queries {
        engine
            .register(name, src)
            .expect("standing query registers");
    }
    engine
}

fn sum_stats(sase: &Sase) -> RuntimeStats {
    let mut sum = RuntimeStats::default();
    for name in sase.query_names() {
        let handle = sase.handle(&name).expect("listed query has a handle");
        let s = sase.stats(&handle).expect("registered query has stats");
        sum.events_processed += s.events_processed;
        sum.instances_appended += s.instances_appended;
        sum.sequences_constructed += s.sequences_constructed;
        sum.matches_emitted += s.matches_emitted;
        sum.partitions += s.partitions;
    }
    sum
}

impl Fanin {
    fn traced_embedded(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Round {
        let block = Arc::clone(&self.block);
        let events_n = block.events.len() as f64;
        let mark = rec.mark();
        let root = rec.enter("round", None);

        // Set-up, and what registration is made of: parse, plan, analyze.
        let setup_span = rec.enter("setup", None);
        let mut plain = rec.leaf("facade.build", None, || {
            self.builder().build().expect("deployment builds")
        });
        rec.leaf("facade.register_all", None, || {
            register_all(&mut plain, &block.queries)
        });
        rec.exit(setup_span);
        let functions = FunctionRegistry::with_stdlib();
        let planner = Planner::new(block.registry.clone(), functions.clone());
        for (_, src) in &block.queries {
            let query = rec.leaf("core.parse.replica", None, || {
                parse_query(src).expect("standing query parses")
            });
            rec.leaf("core.plan.replica", None, || {
                planner.plan(&query).expect("standing query plans")
            });
            rec.leaf("core.analyze.replica", None, || {
                sase::core::analyze::analyze_with(
                    &query,
                    &block.registry,
                    &functions,
                    TimeScale::default(),
                )
            });
        }

        // The same block through each replica in turn, every one on a
        // deployment of its own built outside its spans. One pass per
        // deployment, not one batch each in rotation: rotating would have
        // every call start on caches the other deployments just emptied.
        let mut outs = Vec::with_capacity(block.batches());
        let mut latencies_us = Vec::with_capacity(block.batches());
        for (b, chunk) in block.events.chunks(BATCH).enumerate() {
            let sent = Instant::now();
            let out = rec.leaf("facade.process", Some(b as u32), || plain.process(chunk));
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            outs.push(out);
        }
        let mut metered = self.builder().metrics(true).build().expect("builds");
        register_all(&mut metered, &block.queries);
        let mut bare = bare_engine(&block);
        let sharded = |mode| {
            let mut s = self
                .builder()
                .shards(2)
                .sharding(mode)
                .metrics(true)
                .build()
                .expect("sharded deployment builds");
            register_all(&mut s, &block.queries);
            s
        };
        let mut by_key = sharded(ShardingMode::ByPartitionKey);
        let mut by_query = sharded(ShardingMode::ByQuery);
        let mut pass = |name: &'static str, call: &mut dyn FnMut(&[Event])| {
            for (b, chunk) in block.events.chunks(BATCH).enumerate() {
                rec.leaf(name, Some(b as u32), || call(chunk));
            }
        };
        pass("facade.process.metrics_on.replica", &mut |chunk| {
            let _ = metered.process(chunk);
        });
        pass("core.engine.process_batch.replica", &mut |chunk| {
            let _ = bare.process_batch(chunk);
        });
        pass("system.sharded_by_key.process.replica", &mut |chunk| {
            let _ = by_key.process(chunk);
        });
        pass("system.sharded_by_query.process.replica", &mut |chunk| {
            let _ = by_query.process(chunk);
        });

        // One query, no router: the per-event floor of the runtime.
        let plan = planner
            .plan(&parse_query(&block.queries[0].1).expect("parses"))
            .expect("plans");
        let mut runtime = QueryRuntime::new("q0", plan);
        let mut sink = Vec::new();
        rec.leaf("core.query_runtime.process_all.replica", None, || {
            for e in &block.events {
                runtime
                    .process(e, &mut sink)
                    .expect("runtime accepts the block");
            }
        });

        // State and observability, read where the round ends.
        let snapshot = rec.leaf("core.snapshot", None, || plain.snapshot());
        let mut w = ByteWriter::new();
        for engine in &snapshot.engines {
            put_engine_snapshot(&mut w, engine);
        }
        let metrics = rec.leaf("obs.metrics_snapshot", None, || metered.metrics());
        let exposition = rec.leaf("obs.render", None, || render_prometheus(&metrics));
        std::hint::black_box(exposition);
        rec.exit(root);

        let spans = rec.since(mark);
        let per_query = block.queries.len() as f64;
        for (name, span) in [
            ("core.parse_us_per_query", "core.parse.replica"),
            ("core.plan_us_per_query", "core.plan.replica"),
            ("core.analyze_us_per_query", "core.analyze.replica"),
        ] {
            put(layers, name, total_us(spans, span) / per_query);
        }
        let engine_call = median_us(spans, "core.engine.process_batch.replica");
        let facade_call = median_us(spans, "facade.process");
        put(layers, "core.engine_us_per_batch", engine_call);
        put(
            layers,
            "core.facade_overhead_share",
            1.0 - engine_call / facade_call,
        );
        put(
            layers,
            "core.single_query_ns_per_event",
            total_us(spans, "core.query_runtime.process_all.replica") * 1e3 / events_n,
        );
        put(
            layers,
            "obs.metrics_overhead_share",
            1.0 - facade_call / median_us(spans, "facade.process.metrics_on.replica"),
        );
        put(layers, "obs.render_us", total_us(spans, "obs.render"));
        put(
            layers,
            "core.snapshot_ms",
            total_us(spans, "core.snapshot") / 1e3,
        );
        put(layers, "core.snapshot_bytes", w.len() as f64);
        for (name, span) in [
            (
                "system.sharded_by_key_us_per_batch",
                "system.sharded_by_key.process.replica",
            ),
            (
                "system.sharded_by_query_us_per_batch",
                "system.sharded_by_query.process.replica",
            ),
        ] {
            put(layers, name, median_us(spans, span));
        }
        put(
            layers,
            "system.shard_imbalance_ratio",
            by_key.metrics().gauge("sase_shard_imbalance_ratio", &[]),
        );

        // Exact counts, from the program's own stats.
        let stats = sum_stats(&metered);
        let hits = metrics.counter("sase_router_hit_total", &[]) as f64;
        let misses = metrics.counter("sase_router_miss_total", &[]) as f64;
        let constructed = stats.sequences_constructed as f64;
        put(
            layers,
            "core.events_offered_per_event",
            stats.events_processed as f64 / events_n,
        );
        put(
            layers,
            "core.router_hit_share",
            hits / (hits + misses).max(1.0),
        );
        put(
            layers,
            "core.instances_appended_per_event",
            stats.instances_appended as f64 / events_n,
        );
        put(
            layers,
            "core.sequences_constructed_per_event",
            constructed / events_n,
        );
        put(
            layers,
            "core.construct_useful_share",
            stats.matches_emitted as f64 / constructed.max(1.0),
        );
        put(
            layers,
            "core.matches_per_kevent",
            stats.matches_emitted as f64 * 1e3 / events_n,
        );
        put(layers, "core.partitions_live", stats.partitions as f64);

        let outs: Vec<_> = outs.into_iter().map(rendered).collect();
        let (attempted, failed) = check_batches(&block, &outs);
        Round {
            setup_us: Vec::new(),
            records: block.events.len() as u64,
            calls_us: latencies_us,
            cpu_us: Vec::new(),
            emitted: block.reference.per_batch.clone(),
            attempted,
            failed,
        }
    }

    fn traced_durable(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Round {
        let block = Arc::clone(&self.block);
        let events_n = block.events.len() as f64;
        let batches_n = block.batches() as f64;
        self.retire_wal();
        let replica_dir = self.fresh_dir("wal-replica");
        let mark = rec.mark();
        let root = rec.enter("round", None);

        let setup_span = rec.enter("setup", None);
        let mut durable = self.deploy(&mut Laps::start());
        rec.exit(setup_span);
        let wal_dir = self.last_wal.clone().expect("deploy records the WAL dir");

        // Untimed: the replicas' own log and engine.
        let mut log = EventLog::open(
            &replica_dir,
            LogOptions {
                segment_bytes: wal_options().segment_bytes,
            },
        )
        .expect("replica log opens");
        let mut bare = bare_engine(&block);

        let mut outs = Vec::with_capacity(block.batches());
        let mut latencies_us = Vec::with_capacity(block.batches());
        for (b, chunk) in block.events.chunks(BATCH).enumerate() {
            let sent = Instant::now();
            let out = rec.leaf("facade.process", Some(b as u32), || durable.process(chunk));
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            outs.push(out);
        }
        let committed = rec.leaf("facade.commit", None, || self.commit(&mut durable));
        // One pass per replica (see `traced_embedded`). The replica log
        // commits after every append: what the default cadence would pay.
        for (b, chunk) in block.events.chunks(BATCH).enumerate() {
            let b = Some(b as u32);
            rec.leaf("store.append.replica", b, || {
                log.append(chunk[0].timestamp(), chunk)
                    .expect("replica log appends")
            });
            rec.leaf("store.commit.replica", b, || {
                log.commit().expect("replica log commits")
            });
        }
        for (b, chunk) in block.events.chunks(BATCH).enumerate() {
            let _ = rec.leaf("core.engine.process_batch.replica", Some(b as u32), || {
                bare.process_batch(chunk)
            });
        }
        let wal = durable.metrics();
        drop(durable);

        // Reads beside writes: decode the log, recover from it, then
        // checkpoint the recovered state.
        let mut replayed = 0u64;
        rec.leaf("store.replay", None, || {
            let iter = log
                .replay_from(&block.registry, 0)
                .expect("replica log replays");
            for record in iter {
                replayed += record.expect("replica record decodes").events.len() as u64;
            }
        });
        let (mut recovered, report) = rec.leaf("store.recover", None, || {
            self.recover(wal_dir.clone())
                .expect("the round's log recovers")
        });
        rec.leaf("store.checkpoint", None, || {
            recovered.checkpoint().expect("checkpoint writes")
        });
        drop(recovered);
        drop(log);
        // Nothing of a traced round is left for `finish` to recover.
        self.last_wal = None;
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
        rec.exit(root);

        let spans = rec.since(mark);
        for (name, span) in [
            ("store.append_us_per_batch", "store.append.replica"),
            ("store.commit_us_per_batch", "store.commit.replica"),
        ] {
            put(layers, name, median_us(spans, span));
        }
        put(
            layers,
            "store.bytes_per_event",
            wal.counter("sase_wal_append_bytes_total", &[]) as f64 / events_n,
        );
        put(
            layers,
            "store.fsyncs_per_batch",
            wal.counter("sase_wal_fsync_total", &[]) as f64 / batches_n,
        );
        put(
            layers,
            "system.durable_overhead_share",
            1.0 - median_us(spans, "core.engine.process_batch.replica")
                / median_us(spans, "facade.process"),
        );
        put(
            layers,
            "store.replay_events_per_s",
            replayed as f64 / (total_us(spans, "store.replay") * 1e-6),
        );
        put(
            layers,
            "store.checkpoint_ms",
            total_us(spans, "store.checkpoint") / 1e3,
        );
        put(
            layers,
            "store.recover_ms",
            total_us(spans, "store.recover") / 1e3,
        );

        let outs: Vec<_> = outs.into_iter().map(rendered).collect();
        let (attempted, failed) = check_batches(&block, &outs);
        let (attempted, mut failed) = (attempted + committed.0, failed + committed.1);
        if report.records_replayed != block.batches() as u64
            || replayed != block.events.len() as u64
        {
            eprintln!(
                "perfbench: traced recover replayed {} records / {replayed} events",
                report.records_replayed
            );
            failed = attempted;
        }
        Round {
            setup_us: Vec::new(),
            records: block.events.len() as u64,
            calls_us: latencies_us,
            cpu_us: Vec::new(),
            emitted: block.reference.per_batch.clone(),
            attempted,
            failed,
        }
    }
}
