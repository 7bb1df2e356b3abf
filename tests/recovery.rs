//! Crash-recovery differentials: checkpoint mid-stream, drop the engine,
//! recover from log + checkpoint, finish the stream — the emitted complex
//! events must be **byte-for-byte identical** to an uninterrupted
//! reference run. Asserted for the full retail [`SaseSystem`] deployment,
//! for a derived `INTO` schema the engine minted from data, and for
//! kill-and-recover with a torn log tail. Random crash points on the
//! engine deployments, and the sharded engine's crash and recovery, are
//! scenarios of the differential harness (`tests/scenarios`).

mod oracle;
mod scenarios;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use sase::core::engine::Engine;
use sase::core::error::Result as CoreResult;
use sase::core::event::{retail_registry, Event, SchemaRegistry};
use sase::core::output::ComplexEvent;
use sase::core::processor::EventProcessor;
use sase::core::value::{Value, ValueType};
use sase::rfid::noise::NoiseModel;
use sase::rfid::scenario::RetailScenario;
use sase::system::durable::preregister_derived;
use sase::system::{DurableEngine, DurableError, DurableOptions, DurableSystem, SaseSystem};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sase-recovery-{}-{label}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn render(out: &[ComplexEvent]) -> Vec<String> {
    out.iter().map(|d| d.to_string()).collect()
}

/// One ingest call on the default stream, returning its emissions.
fn batch(p: &mut dyn EventProcessor, events: &[Event]) -> CoreResult<Vec<ComplexEvent>> {
    let mut out = Vec::new();
    p.ingest(None, events, &mut out, None).map(|()| out)
}

fn small_segments() -> DurableOptions {
    DurableOptions {
        segment_bytes: 512, // force multi-segment logs in every test
        ..DurableOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Full SaseSystem deployment
// ---------------------------------------------------------------------------

/// Standing queries for the system differential: the paper's Q1 (with the
/// `_retrieveLocation` DB lookup) plus a derived-stream chain. (Builtins
/// whose *return value* depends on database state, like `_updateLocation`,
/// are deliberately absent: replay re-invokes host functions, so
/// byte-identical replay requires args-deterministic returns — see the
/// `sase-system::durable` docs.)
fn register_system_queries(sys: &mut SaseSystem) -> CoreResult<()> {
    sys.register_query("shoplifting", sase::system::queries::SHOPLIFTING)?;
    sys.register_query(
        "moves_producer",
        "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
         WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 2000 \
         RETURN y.TagId AS tag, y.AreaId AS area INTO Moves",
    )?;
    sys.register_query("moves_watch", "FROM moves EVENT MOVES m RETURN m.tag AS t")?;
    Ok(())
}

fn retail_system() -> SaseSystem {
    let sys = SaseSystem::retail(NoiseModel::perfect(), 9, 40).unwrap();
    sys.schemas()
        .register(
            "moves",
            &[("tag", ValueType::Int), ("area", ValueType::Int)],
        )
        .unwrap();
    sys
}

#[test]
fn durable_system_crash_recovery_differential() {
    let mut reference = retail_system();
    register_system_queries(&mut reference).unwrap();
    let scenario = RetailScenario::build(reference.config(), 42, 3, 2, 1);
    let duration = scenario.duration;
    let mut ref_out: Vec<String> = Vec::new();
    for _ in 0..duration {
        ref_out.extend(render(&reference.tick(Some(&scenario)).unwrap().detections));
    }
    assert!(!ref_out.is_empty(), "scenario must produce detections");

    let dir = tmp_dir("system");
    let mut durable = DurableSystem::create(&dir, retail_system(), small_segments()).unwrap();
    register_system_queries(durable.system_mut()).unwrap();

    let ckpt_at = duration / 3;
    let crash_at = 2 * duration / 3;
    assert!(ckpt_at > 0 && crash_at > ckpt_at && crash_at < duration);

    let mut live: Vec<String> = Vec::new();
    let mut since_ckpt: Vec<String> = Vec::new();
    for t in 0..duration {
        let r = durable.tick(Some(&scenario)).unwrap();
        let rendered = render(&r.detections);
        if t < ckpt_at {
            live.extend(rendered);
        } else {
            since_ckpt.extend(rendered);
        }
        if t + 1 == ckpt_at {
            durable.checkpoint().unwrap();
        }
        if t + 1 == crash_at {
            // The engine dies: queries, AIS stacks, negation buffers,
            // stream clocks — all gone. Devices and cleaning keep running.
            durable.crash_engine();
            let report = durable.recover_engine(register_system_queries).unwrap();
            assert_eq!(report.checkpoint_seq, Some(ckpt_at));
            assert_eq!(report.records_replayed, crash_at - ckpt_at);
            // Deterministic replay: recovery re-emits exactly what the
            // engine emitted live since the checkpoint.
            assert_eq!(render(&report.emissions), since_ckpt);
            live.append(&mut since_ckpt);
        }
    }
    live.extend(since_ckpt);

    assert_eq!(ref_out, live, "recovered run must match uninterrupted run");
    // The derived-stream chain actually fired across the crash.
    assert!(
        live.iter().any(|d| d.contains("[moves_watch@")),
        "derived stream consumer must have emitted"
    );
    assert!(durable.log().segments().len() > 1, "log must have rolled");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_system_full_process_restart() {
    // The whole process dies (not just the engine): a new process builds a
    // fresh SaseSystem and reattaches to the on-disk deployment.
    let mut reference = retail_system();
    register_system_queries(&mut reference).unwrap();
    let scenario = RetailScenario::build(reference.config(), 42, 3, 2, 1);
    let duration = scenario.duration;
    let mut ref_out: Vec<String> = Vec::new();
    for _ in 0..duration {
        ref_out.extend(render(&reference.tick(Some(&scenario)).unwrap().detections));
    }

    let dir = tmp_dir("restart");
    let mut durable = DurableSystem::create(&dir, retail_system(), small_segments()).unwrap();
    register_system_queries(durable.system_mut()).unwrap();
    let ckpt_at = duration / 2;
    let crash_at = 3 * duration / 4;
    let mut live: Vec<String> = Vec::new();
    let mut since_ckpt: Vec<String> = Vec::new();
    for t in 0..crash_at {
        let r = durable.tick(Some(&scenario)).unwrap();
        let rendered = render(&r.detections);
        if t < ckpt_at {
            live.extend(rendered);
        } else {
            since_ckpt.extend(rendered);
        }
        if t + 1 == ckpt_at {
            durable.checkpoint().unwrap();
        }
    }
    drop(durable);

    let (mut recovered, report) = DurableSystem::recover(
        &dir,
        retail_system(),
        small_segments(),
        register_system_queries,
    )
    .unwrap();
    assert_eq!(report.checkpoint_seq, Some(ckpt_at));
    assert_eq!(report.records_replayed, crash_at - ckpt_at);
    assert!(report.replay_errors.is_empty());
    // Deterministic replay across a real restart: the tail re-emits what
    // the dead process emitted after its last checkpoint.
    assert_eq!(render(&report.emissions), since_ckpt);
    live.append(&mut since_ckpt);

    // The engine resumed from checkpoint + log; the upstream layers are
    // re-driven deterministically to the crash point (device clock plus
    // smoothing/dedup/event-generation state), then live ticks continue.
    for _ in 0..crash_at {
        recovered
            .system_mut()
            .advance_upstream(Some(&scenario))
            .unwrap();
    }
    for _ in crash_at..duration {
        live.extend(render(&recovered.tick(Some(&scenario)).unwrap().detections));
    }
    assert_eq!(recovered.log().next_seq(), duration);
    // End to end, the restarted deployment emitted exactly what the
    // uninterrupted reference run emitted.
    assert_eq!(ref_out, live);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Engine deployment with derived INTO streams
// ---------------------------------------------------------------------------

const ENGINE_QUERIES: [(&str, &str); 5] = [
    (
        "producer",
        "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
         WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 100 \
         RETURN y.TagId AS tag, y.AreaId AS area INTO Moves",
    ),
    ("mover", "FROM moves EVENT MOVES m RETURN m.tag AS t"),
    ("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag"),
    (
        "guarded",
        "EVENT SEQ(SHELF_READING a, !(COUNTER_READING c), EXIT_READING b) \
         WHERE a.TagId = b.TagId AND a.TagId = c.TagId WITHIN 60 RETURN a.TagId AS t",
    ),
    (
        "pairs",
        "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
         WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
    ),
];

fn engine_registry() -> SchemaRegistry {
    let reg = retail_registry();
    reg.register(
        "moves",
        &[("tag", ValueType::Int), ("area", ValueType::Int)],
    )
    .unwrap();
    reg
}

fn synthetic_batches(reg: &SchemaRegistry, batches: usize, per_batch: usize) -> Vec<Vec<Event>> {
    let types = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"];
    let mut ts = 0u64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ts += 1;
                    reg.build_event(
                        types[(state % 3) as usize],
                        ts,
                        vec![
                            Value::Int(((state >> 8) % 5) as i64),
                            Value::str("p"),
                            Value::Int(1 + ((state >> 16) % 3) as i64),
                        ],
                    )
                    .unwrap()
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Engine-derived (not preregistered) INTO schema across recovery
// ---------------------------------------------------------------------------

#[test]
fn engine_derived_schema_survives_recovery() {
    const PRODUCER: &str =
        "EVENT EXIT_READING z RETURN z.TagId AS tag, z.AreaId AS area INTO alerts";
    const CONSUMER: &str = "FROM alerts EVENT ALERTS a RETURN a.tag AS t";
    let exit = |reg: &SchemaRegistry, ts: u64, tag: i64| {
        reg.build_event(
            "EXIT_READING",
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(4)],
        )
        .unwrap()
    };

    // Reference: the consumer registers only after the first emission has
    // derived the `alerts` schema from data.
    let ref_reg = retail_registry();
    let mut reference = Engine::new(ref_reg.clone());
    reference.register("producer", PRODUCER).unwrap();
    let mut ref_out = render(&reference.process_batch(&[exit(&ref_reg, 1, 7)]).unwrap());
    reference.register("consumer", CONSUMER).unwrap();
    ref_out.extend(render(
        &reference.process_batch(&[exit(&ref_reg, 2, 8)]).unwrap(),
    ));
    ref_out.extend(render(
        &reference.process_batch(&[exit(&ref_reg, 3, 9)]).unwrap(),
    ));

    // Durable run: crash after the checkpoint; the recovered registry has
    // no `alerts` type until preregister_derived supplies it — without it
    // the consumer could not even be re-registered.
    let dir = tmp_dir("derived");
    let reg = retail_registry();
    let mut engine = Engine::new(reg.clone());
    engine.register("producer", PRODUCER).unwrap();
    let mut durable = DurableEngine::create(&dir, engine, small_segments()).unwrap();
    let mut live = render(&batch(&mut durable, &[exit(&reg, 1, 7)]).unwrap());
    durable.engine_mut().register("consumer", CONSUMER).unwrap();
    live.extend(render(&batch(&mut durable, &[exit(&reg, 2, 8)]).unwrap()));
    durable.checkpoint().unwrap();
    drop(durable);

    let (mut recovered, report) = DurableEngine::recover(&dir, small_segments(), |snaps| {
        let reg = retail_registry();
        assert!(reg.type_id("alerts").is_none());
        if let Some(snaps) = snaps {
            preregister_derived(&reg, snaps)?;
        }
        assert!(reg.type_id("alerts").is_some(), "derived schema recovered");
        let mut e = Engine::new(reg);
        e.register("producer", PRODUCER)?;
        e.register("consumer", CONSUMER)?;
        Ok(e)
    })
    .unwrap();
    assert_eq!(report.records_replayed, 0);
    let reg = recovered.engine().schemas().clone();
    live.extend(render(&batch(&mut recovered, &[exit(&reg, 3, 9)]).unwrap()));
    assert_eq!(ref_out, live);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Kill-and-recover with a torn log tail
// ---------------------------------------------------------------------------

/// Run the `guarded` + `pairs` queries over scripted batches through a
/// durable engine, kill it leaving a torn tail of `cut_back` bytes, then
/// recover and re-send whatever the log lost. Returns Ok(collected
/// emissions) or the typed recovery error.
fn kill_and_recover(
    dir: &PathBuf,
    batches: &[Vec<Event>],
    ckpt_at: usize,
    cut_back: u64,
) -> Result<Vec<String>, DurableError> {
    let build = |snaps: Option<&sase::core::SnapshotSet>| {
        let reg = engine_registry();
        if let Some(snaps) = snaps {
            preregister_derived(&reg, snaps)?;
        }
        let mut e = Engine::new(reg);
        for (name, src) in ENGINE_QUERIES {
            e.register(name, src)?;
        }
        Ok(e)
    };
    let opts = DurableOptions {
        sync_each_batch: false, // the host owns the commit cadence
        ..small_segments()
    };
    let mut durable = DurableEngine::create(dir, build(None).unwrap(), opts)?;
    let mut live_by_batch: Vec<Vec<String>> = Vec::new();
    for (i, events) in batches.iter().enumerate() {
        live_by_batch.push(render(&batch(&mut durable, events)?));
        if i + 1 == ckpt_at {
            durable.checkpoint()?;
        }
    }
    let seg = durable.log().segments().last().unwrap().clone();
    drop(durable); // kill: buffered tail may be torn

    // Tear the tail.
    let len = std::fs::metadata(&seg.path).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg.path)
        .unwrap();
    f.set_len(len.saturating_sub(cut_back)).unwrap();
    drop(f);

    let (mut recovered, report) = DurableEngine::recover(dir, opts, build)?;
    let survived = recovered.log().next_seq() as usize;
    assert!(survived <= batches.len());

    // Emissions once each: live up to the checkpoint, replay for
    // [checkpoint, survived), re-send for the torn-off [survived, end).
    let mut total: Vec<String> = live_by_batch[..ckpt_at.min(survived)]
        .iter()
        .flatten()
        .cloned()
        .collect();
    total.extend(render(&report.emissions));
    for events in batches.iter().skip(survived) {
        total.extend(render(&batch(&mut recovered, events)?));
    }
    Ok(total)
}

#[test]
fn kill_and_recover_torn_tail() {
    let reg = engine_registry();
    let batches = synthetic_batches(&reg, 20, 10);
    let mut reference = Engine::new(reg.clone());
    for (name, src) in ENGINE_QUERIES {
        reference.register(name, src).unwrap();
    }
    let ref_batches = synthetic_batches(&engine_registry(), 20, 10);
    let mut ref_out: Vec<String> = Vec::new();
    for batch in &ref_batches {
        ref_out.extend(render(&reference.process_batch(batch).unwrap()));
    }
    assert!(!ref_out.is_empty());

    let dir = tmp_dir("killrecover");
    let total = kill_and_recover(&dir, &batches, 8, 7).unwrap();
    assert_eq!(ref_out, total, "no lost and no duplicated complex events");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Scenarios of the differential harness
// ---------------------------------------------------------------------------

/// Durable engines die at a random batch boundary, lose 0..2000 bytes off
/// the log tail, and recover: what they replay is what they emitted since
/// their checkpoint, and the rest of the stream matches the reference; a
/// cut reaching records the checkpoint covered fails with
/// `StoreError::Corrupt`.
#[test]
fn random_crash_points_recover_exactly() {
    use scenarios::{property, Column, Draw, Step};
    let draw = Draw {
        named: Some(false),
        ..Draw::default()
    };
    property("random_crash_points_recover_exactly", 24, draw, |_, s| {
        assert!(s.script.iter().any(|step| matches!(step, Step::Crash(_))));
        s.columns.retain(|c| matches!(c, Column::Durable(_)));
        if !s.columns.contains(&Column::Durable(None)) {
            s.columns.push(Column::Durable(None));
        }
    });
}

/// `DurableEngine<ShardedEngine>` in both sharding modes, with derived
/// `INTO` streams: checkpoint, crash twice, recover, and finish the stream
/// as an uninterrupted engine does.
#[test]
fn sharded_engine_crash_recovery_differential() {
    use sase::ShardingMode::{ByPartitionKey, ByQuery};
    use scenarios::{play, retail, row, xorshift_batches, Column, Step};
    let queries = [
        ("producer", retail(17, 100, 0)),
        ("mover", retail(18, 0, 1)),
        ("pairs", retail(24, 20, 0)),
        ("guarded", retail(15, 60, 0)),
    ];
    let columns = [
        Column::Durable(Some((ByQuery, 2))),
        Column::Durable(Some((ByQuery, 3))),
        Column::Durable(Some((ByPartitionKey, 4))),
    ];
    let mut s = row(&queries, xorshift_batches(0x5EED, 20, 10), &columns);
    // Batch b is script step 4 + b; the later crash goes in first.
    s.script.insert(4 + 14, Step::Crash(0));
    s.script.insert(4 + 6, Step::Crash(0));
    let out = play(&s).out;
    assert!(
        out.iter().any(|l| l.starts_with("[mover@")),
        "moves consumed"
    );
    assert!(
        out.iter().any(|l| l.starts_with("[pairs@")),
        "pairs derived"
    );
}
