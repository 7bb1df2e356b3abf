//! Durable `Sase` deployments end to end: write-ahead logging, checkpoints
//! and crash recovery behind the facade, and the checks the facade shares
//! with [`sase_system::DurableSystem`] through their one write-ahead core,
//! [`sase_system::Wal`].

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    use sase_core::engine::Engine;
    use sase_core::error::{Result as CoreResult, SaseError};
    use sase_core::event::{retail_registry, Event, SchemaRegistry};
    use sase_core::output::ComplexEvent;
    use sase_core::processor::EventProcessor;
    use sase_core::snapshot::SnapshotSet;
    use sase_core::value::Value;
    use sase_obs::{MemorySink, MetricsSnapshot, TraceKind, TracePhase, Tracer};
    use sase_rfid::noise::NoiseModel;
    use sase_store::{EventLog, LogOptions, StoreError};
    use sase_system::{
        DurableError, DurableOptions, DurableSystem, RecoveryReport, SaseSystem, Wal,
    };

    use crate::{Sase, SaseBuilder};

    const Q: &str = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                     WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId AS tag";

    fn tmp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sase-durable-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable deployment over the retail schemas in `dir`.
    fn builder(dir: &Path) -> SaseBuilder {
        Sase::builder()
            .schemas(retail_registry())
            .durable(dir, DurableOptions::default())
    }

    fn register_q(p: &mut dyn EventProcessor) -> CoreResult<()> {
        p.register("q", Q)
    }

    /// Recover the deployment in `dir`, re-registering `q`.
    fn recover(dir: &Path) -> (Sase, RecoveryReport) {
        builder(dir).recover(register_q).unwrap()
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
        )
        .unwrap()
    }

    fn rendered(out: &[ComplexEvent]) -> Vec<String> {
        out.iter().map(ComplexEvent::to_string).collect()
    }

    /// The log of a deployment no process holds open.
    fn reopen_log(dir: &Path) -> EventLog {
        EventLog::open(dir, LogOptions::default()).unwrap()
    }

    #[test]
    fn create_ingest_checkpoint_recover_resumes() {
        let dir = tmp_dir("basic");
        let mut durable = builder(&dir).build().unwrap();
        register_q(&mut durable).unwrap();
        let reg = durable.schemas().clone();

        // Two shelf readings land in stacks; checkpoint; one more batch
        // after the checkpoint stays only in the log.
        durable.process(&[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();
        let seq = durable.checkpoint().unwrap();
        assert_eq!(seq, 1);
        let out = durable.process(&[ev(&reg, "SHELF_READING", 2, 8)]).unwrap();
        assert!(out.is_empty());
        drop(durable);

        let (mut recovered, report) = recover(&dir);
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.events_replayed, 1);
        assert!(report.emissions.is_empty());
        assert!(report.corrupt_checkpoints.is_empty());

        // Both pending shelf readings must pair with the exit.
        let reg = recovered.schemas().clone();
        let out = recovered
            .process(&[
                ev(&reg, "EXIT_READING", 3, 7),
                ev(&reg, "EXIT_READING", 3, 8),
            ])
            .unwrap();
        assert_eq!(out.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_without_checkpoint_replays_everything() {
        let dir = tmp_dir("nockpt");
        let mut durable = builder(&dir).build().unwrap();
        register_q(&mut durable).unwrap();
        let reg = durable.schemas().clone();
        let live = durable
            .process(&[
                ev(&reg, "SHELF_READING", 1, 7),
                ev(&reg, "EXIT_READING", 2, 7),
            ])
            .unwrap();
        assert_eq!(live.len(), 1);
        drop(durable);

        let (_, report) = recover(&dir);
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
        let mut durable = builder(&dir).build().unwrap();
        register_q(&mut durable).unwrap();
        let reg = durable.schemas().clone();
        durable.process(&[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();
        drop(durable);

        // The one shared check, typed.
        let err = Wal::create(&dir, DurableOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            DurableError::Store(StoreError::InvalidArgument(_))
        ));
        assert!(
            err.to_string()
                .contains("already holds a durable deployment (1 log records, 0 checkpoints)"),
            "{err}"
        );
        // Both deployments refuse through it, in its text.
        let sase_err = builder(&dir).build().unwrap_err();
        assert!(matches!(sase_err, SaseError::Engine(_)), "{sase_err}");
        assert!(
            sase_err.to_string().ends_with(&err.to_string()),
            "{sase_err}"
        );
        let sys = SaseSystem::retail(NoiseModel::perfect(), 7, 4).unwrap();
        let sys_err = DurableSystem::create(&dir, sys, DurableOptions::default()).unwrap_err();
        assert!(matches!(
            sys_err,
            DurableError::Store(StoreError::InvalidArgument(_))
        ));
        assert_eq!(sys_err.to_string(), err.to_string());
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

        let dir = tmp_dir("spans-sase");
        let sink = Arc::new(MemorySink::new());
        let mut durable = builder(&dir).trace(sink.clone(), 1).build().unwrap();
        register_q(&mut durable).unwrap();
        let reg = durable.schemas().clone();
        for tick in 0..3u64 {
            durable
                .process(&[ev(&reg, "SHELF_READING", tick + 1, 7)])
                .unwrap();
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
        let mut durable = builder(&dir).build().unwrap();
        register_q(&mut durable).unwrap();
        let reg = durable.schemas().clone();
        for tick in 0..5u64 {
            durable
                .process(&[ev(&reg, "SHELF_READING", tick + 1, 7)])
                .unwrap();
        }
        durable.checkpoint().unwrap();
        drop(durable);
        // Cut away two committed records the checkpoint depends on.
        let seg = reopen_log(&dir).segments()[0].clone();
        let bytes = std::fs::read(&seg.path).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg.path)
            .unwrap();
        f.set_len(bytes.len() as u64 / 2).unwrap();
        drop(f);

        let err = builder(&dir).recover(register_q).unwrap_err();
        assert!(matches!(err, SaseError::Engine(_)), "{err}");
        // The write-ahead core the facade recovers through types the cut
        // as corruption.
        let mut wal = Wal::open(&dir, DurableOptions::default()).unwrap();
        let restart = wal.load_checkpoint().unwrap();
        let mut engine = Engine::new(retail_registry());
        register_q(&mut engine).unwrap();
        let err = wal.recover(restart, &mut engine).unwrap_err();
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
        let mut durable = builder(&dir).build().unwrap();
        register_q(&mut durable).unwrap();
        let reg = durable.schemas().clone();
        durable
            .process(&[ev(&reg, "SHELF_READING", 10, 7)])
            .unwrap();
        // A regressed event timestamp: the log accepts the batch (its WAL
        // tick 5 clamps up to 10), the engine rejects it whole.
        let err = (durable.process(&[ev(&reg, "SHELF_READING", 5, 7)])).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
        // The system keeps running past the bad batch.
        let live = durable.process(&[ev(&reg, "EXIT_READING", 11, 7)]).unwrap();
        assert_eq!(live.len(), 1);
        drop(durable);
        let mut log = reopen_log(&dir);
        let ticks: Vec<u64> = (log.replay_from(&reg, 0).unwrap())
            .map(|r| r.unwrap().tick)
            .collect();
        assert_eq!(ticks, [10, 10, 11]);
        drop(log);

        let (mut recovered, report) = recover(&dir);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.replay_errors.len(), 1);
        assert_eq!(report.replay_errors[0].0, 1, "the poisoned record's seq");
        assert!(report.replay_errors[0].1.contains("out-of-order"));
        // The record after the poison replayed: its match was re-emitted
        // and the engine resumed with live state intact.
        assert_eq!(report.emissions.len(), 1);
        assert_eq!(report.emissions[0].to_string(), live[0].to_string());
        let reg = recovered.schemas().clone();
        let out = recovered
            .process(&[ev(&reg, "EXIT_READING", 12, 7)])
            .unwrap();
        assert_eq!(out.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_checkpoint_with_post_build_register_recovers() {
        // Post-build registration must be placement-deterministic: a
        // recovery that replays the same registration sequence reproduces
        // the query → shard assignment, so the checkpoint restores cleanly.
        let register = |p: &mut dyn EventProcessor| -> CoreResult<()> {
            p.register("a", Q)?;
            p.register("b", "EVENT COUNTER_READING c RETURN c.TagId AS t")?;
            p.register("late", "EVENT EXIT_READING z RETURN z.TagId AS t")
        };
        let dir = tmp_dir("sharded-late");
        let mut durable = builder(&dir).shards(2).build().unwrap();
        register(&mut durable).unwrap();
        let reg = durable.schemas().clone();
        durable.process(&[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();
        durable.checkpoint().unwrap();
        drop(durable);

        let (mut recovered, report) = builder(&dir).shards(2).recover(register).unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert!(report.replay_errors.is_empty());
        // The pending sequence and the late query both resumed.
        let out = recovered
            .process(&[ev(&reg, "EXIT_READING", 2, 7)])
            .unwrap();
        assert_eq!(out.len(), 2, "`a` match + `late` match: {out:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_restore_rejects_wrong_shard_count() {
        let mut sharded = Sase::builder()
            .schemas(retail_registry())
            .shards(2)
            .build()
            .unwrap();
        sharded.register("a", Q).unwrap();
        sharded
            .register("b", "EVENT COUNTER_READING c RETURN c.TagId AS t")
            .unwrap();
        let snaps = sharded.snapshot();
        assert_eq!(snaps.len(), 2);
        let short = SnapshotSet {
            engines: snaps.engines[..1].to_vec(),
        };
        assert!(sharded.restore(&short).is_err());
        assert!(sharded.restore(&snaps).is_ok());
    }

    #[test]
    fn metrics_registry_is_the_engines_on_every_shape() {
        let wal_series = |snap: &MetricsSnapshot| {
            (snap.samples.iter())
                .filter(|s| s.name.starts_with("sase_wal_"))
                .count()
        };
        for shards in [None, Some(2)] {
            for metrics in [false, true] {
                let dir = tmp_dir(&format!("registry-{shards:?}-{metrics}"));
                let shaped = |b: SaseBuilder| match shards {
                    Some(n) => b.shards(n),
                    None => b,
                };
                let live = shaped(Sase::builder().schemas(retail_registry()).metrics(metrics));
                let live = live.build().unwrap();
                let mut durable = shaped(builder(&dir).metrics(metrics)).build().unwrap();
                register_q(&mut durable).unwrap();
                let reg = durable.schemas().clone();
                durable.process(&[ev(&reg, "SHELF_READING", 1, 7)]).unwrap();

                let shape = format!("{shards:?}, metrics({metrics})");
                let registry = durable.metrics_registry();
                assert_eq!(registry.is_some(), metrics, "{shape}");
                assert_eq!(
                    registry.is_some(),
                    live.metrics_registry().is_some(),
                    "{shape}"
                );
                if let Some(registry) = registry {
                    assert_eq!(wal_series(&registry.snapshot()), 0, "{shape}");
                }
                // The WAL series stay in the deployment's full view.
                let snap = durable.metrics();
                assert!(wal_series(&snap) > 0, "{shape}");
                assert_eq!(snap.counter("sase_wal_append_total", &[]), 1, "{shape}");
                drop(durable);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn a_named_stream_is_refused_and_leaves_the_log_as_it_was() {
        const EXITS: &str = "EVENT EXIT_READING z RETURN z.TagId AS tag";
        let register = |p: &mut dyn EventProcessor| p.register("exits", EXITS);
        for shards in [None, Some(2)] {
            let dir = tmp_dir(&format!("named-{shards:?}"));
            let shaped = || match shards {
                Some(n) => builder(&dir).shards(n),
                None => builder(&dir),
            };
            let mut sase = shaped().build().unwrap();
            register(&mut sase).unwrap();
            let reg = sase.schemas().clone();
            let appends = |s: &Sase| s.metrics().counter("sase_wal_append_total", &[]);

            let mut out = Vec::new();
            let named = [ev(&reg, "EXIT_READING", 1, 7)];
            let err = (sase.ingest(Some("retail"), &named, &mut out, None)).unwrap_err();
            assert!(matches!(err, SaseError::Engine(_)), "{shards:?}: {err}");
            assert!(
                err.to_string()
                    .contains("durable deployments log only the default input stream"),
                "{shards:?}: {err}"
            );
            assert!(out.is_empty(), "{shards:?}");
            assert_eq!(appends(&sase), 0, "{shards:?}: nothing logged");

            let live = sase.process(&[ev(&reg, "EXIT_READING", 2, 8)]).unwrap();
            assert_eq!(live.len(), 1, "{shards:?}");
            assert_eq!(appends(&sase), 1, "{shards:?}: the default stream logs");
            drop(sase);

            let (_, report) = shaped().recover(register).unwrap();
            assert_eq!(report.checkpoint_seq, None, "{shards:?}");
            assert_eq!(report.records_replayed, 1, "{shards:?}");
            assert_eq!(rendered(&report.emissions), rendered(&live), "{shards:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
