//! The differential harness: every deployment is held to the language's
//! definition on the same scenarios. Each `tests/*_differential.rs` file,
//! `tests/differential.rs` and the scenario properties of
//! `tests/proptests.rs` and `tests/recovery.rs` are entry points into it.
//!
//! A [`Scenario`] scripts query registrations, event batches (on the
//! default or on named streams, one of them out of order), an
//! unregistration and a late registration, a snapshot restored into a fresh
//! deployment (which must snapshot back to what it was restored from), and
//! a crash that may tear bytes off the log tail. [`play`]
//! runs it on the indexed [`Engine`] — the reference — and in lockstep on
//! every [`Column`], and checks:
//!
//! 1. for every query inside the oracle's definition (no `FROM`, no `INTO`,
//!    no host function outside the stdlib), the reference matches what the
//!    brute-force oracle (`tests/oracle`) matches;
//! 2. batch by batch, every column emits what the reference emits, rendered
//!    with provenance tags where the column returns them, and fails with
//!    the same error at the same batch: only a batch that regresses its
//!    stream's clock fails, rejected whole, and it leaves the reference's
//!    metrics and every query's stats unchanged; a recovered durable column
//!    replays what it emitted since its checkpoint, and a torn log tail
//!    recovers exactly, or fails exactly when the cut reached records the
//!    checkpoint covers;
//! 3. every column's metrics conserve ground truth: emissions, events and
//!    batches ingested, findings by severity, WAL appends, events
//!    replayed, and per-query counters, evaluation errors included, and
//!    matches (summed over workers when sharded); a sharded column's
//!    workers ingest what its router sends, each worker is sent what the
//!    routing rules predict, queues are drained, and the imbalance ratio
//!    is at least 1.
//!
//! Random scenarios come from [`scenario`], and [`property`] plays them; a
//! [`Draw`] narrows what the generator draws. Pinned rows are scenarios
//! played by the same runner.
//!
//! Queries are code, not logged state: a durable column checkpoints when
//! its query set changes, and recovery re-registers the query history.

#![allow(dead_code)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use proptest::test_runner::run_cases;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::harness::{arb_stream, materialize};
use sase::core::engine::{Engine, RoutingMode, Tag};
use sase::core::error::{Result as CoreResult, SaseError};
use sase::core::event::retail_registry;
use sase::core::functions::FunctionRegistry;
use sase::core::lang::parse_query;
use sase::core::output::ComplexEvent;
use sase::core::plan::{Planner, TypeKeyAccess};
use sase::core::runtime::RuntimeStats;
use sase::core::value::{Value, ValueType};
use sase::core::{Event, SchemaRegistry, SnapshotSet};
use sase::obs::MetricValue;
use sase::rfid::generator::{generate, SyntheticConfig};
use sase::server::client::Client;
use sase::server::wire::TickMode;
use sase::server::ServerError;
use sase::store::{EventLog, LogOptions};
use sase::system::{ShardedEngine, ShardedEngineBuilder};
use sase::{
    render_prometheus, DurableOptions, EventProcessor, MetricsRegistry, MetricsSnapshot,
    RecoveryReport, Sase, ServerConfig, ServerHandle, ShardingMode,
};

// ---------------------------------------------------------------------------
// Schemas and query templates
// ---------------------------------------------------------------------------

/// Every type a scenario uses: the retail readings, the derived `moves` and
/// `hops` streams, keyed orders (`AUDITS` lacks the key), `HOT_A`/`HOT_B`
/// with an `Int` and a `Float` key, and the custom types of two anchors.
pub fn registry() -> SchemaRegistry {
    use ValueType::{Float, Int, Str};
    let reg = retail_registry();
    let reading = [("TagId", Int), ("ProductName", Str), ("AreaId", Int)];
    let types: [(&str, &[(&str, ValueType)]); 14] = [
        ("moves", &[("tag", Int), ("area", Int)]),
        ("hops", &[("t2", Int)]),
        ("ORDERS", &[("UserId", Int), ("Amount", Int)]),
        ("SHIPMENTS", &[("UserId", Int), ("Amount", Int)]),
        ("AUDITS", &[("Note", Str)]),
        ("HOT_A", &[("Key", Int)]),
        ("HOT_B", &[("Key", Float)]),
        ("A", &[("TagId", Int), ("AreaId", Int)]),
        ("B", &[("AreaId", Int), ("TagId", Int)]),
        ("C", &[("AreaId", Int), ("Label", Str), ("TagId", Int)]),
        ("T0", &reading),
        ("T1", &reading),
        ("T2", &reading),
        ("T3", &reading),
    ];
    for (name, attrs) in types {
        reg.register(name, attrs).unwrap();
    }
    reg
}

/// Query templates over the retail readings; `{w}` becomes a window and
/// `{k}` a small literal. First one per runtime configuration the planner
/// selects (PAIS or unpartitioned SSC, indexed or flat negation buffers,
/// pushed filters, `ANY`, same-type sequences, one component, no window,
/// one- and two-part and string keys), then the routing shapes (a
/// mixed-case named stream, `INTO` producers and their `FROM` consumers, a
/// two-hop chain), a data-derived `INTO` schema and a stdlib call.
pub const RETAIL: [&str; 26] = [
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN {w}",
    "EVENT SEQ(SHELF_READING a, COUNTER_READING b, EXIT_READING c) WHERE [TagId] WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
     WHERE x.TagId = z.TagId AND x.AreaId != z.AreaId AND z.AreaId >= {k} WITHIN {w}",
    "EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) a, EXIT_READING b) \
     WHERE a.TagId = b.TagId WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId AND y.AreaId = {k} WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.AreaId < z.AreaId WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = z.TagId AND y.AreaId = {k} WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
     WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN {w}",
    "EVENT COUNTER_READING c WHERE c.AreaId >= {k}",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
     WHERE x.TagId = z.TagId AND x.AreaId = z.AreaId WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId \
     AND x.AreaId = y.AreaId AND x.AreaId = z.AreaId WITHIN {w}",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.ProductName = z.ProductName WITHIN {w}",
    "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
     WHERE a.TagId = b.TagId WITHIN {w} RETURN a.TagId AS tag",
    "EVENT SEQ(SHELF_READING a, !(COUNTER_READING c), EXIT_READING b) \
     WHERE a.TagId = b.TagId AND a.TagId = c.TagId WITHIN {w} RETURN a.TagId AS t",
    "FROM Retail EVENT SHELF_READING x RETURN x.TagId AS tag",
    "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
     WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN {w} \
     RETURN y.TagId AS tag, y.AreaId AS area INTO Moves",
    "FROM moves EVENT MOVES m WHERE m.area >= {k} RETURN m.tag AS t",
    "EVENT COUNTER_READING c RETURN c.TagId AS tag",
    "FROM moves EVENT SEQ(moves a, moves b) \
     WHERE a.tag = b.tag WITHIN {w} RETURN b.tag AS t2 INTO hops",
    "FROM HOPS EVENT hops h RETURN h.t2 AS f",
    "FROM moves EVENT MOVES m RETURN m.tag AS t",
    "EVENT EXIT_READING z RETURN z.TagId AS tag",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE [TagId] WITHIN {w} \
     RETURN x.TagId AS tag, z.AreaId AS area INTO pairs",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
     WHERE x.TagId = z.TagId AND _abs(x.AreaId - z.AreaId) >= {k} WITHIN {w}",
];

/// The `moves` producer and its consumers, and the two-hop chain. A
/// `ByQuery` deployment places a query on the shard of every query whose
/// derived stream it produces or consumes, and refuses a live registration
/// that would have to join two shards; consumers of one stream need not
/// share a shard until a producer arrives, so a late one could be refused.
pub const NEVER_LATE: [usize; 5] = [17, 18, 20, 21, 22];

/// Query templates over the keyed types: two queries sharing the `UserId`
/// key, a keyless one, a negation whose key misses the negated slot, an
/// `Int` = `Float` key, and a contradiction the analyzer flags for `{k}` ≥ 2.
pub const KEYED: [&str; 6] = [
    "EVENT SEQ(ORDERS x, SHIPMENTS y) WHERE x.UserId = y.UserId \
     WITHIN {w} RETURN x.UserId AS u, y.Amount AS amt",
    "EVENT SEQ(ORDERS x, ORDERS y) WHERE x.UserId = y.UserId \
     AND x.Amount != y.Amount WITHIN {w} RETURN x.UserId AS u",
    "EVENT AUDITS a RETURN a.Note AS note",
    "EVENT SEQ(ORDERS a, !(AUDITS n), SHIPMENTS b) WHERE a.UserId = b.UserId \
     WITHIN {w} RETURN a.UserId AS u",
    "EVENT SEQ(HOT_A x, HOT_B y) WHERE x.Key = y.Key WITHIN {w} RETURN x.Key AS k",
    "EVENT ORDERS x WHERE x.Amount > {k} AND x.Amount < 3 RETURN x.UserId AS u",
];

/// The stdlib plus `_faulty`, a host function that fails on 13 and
/// returns its argument otherwise.
pub fn functions() -> FunctionRegistry {
    let functions = FunctionRegistry::with_stdlib();
    functions.register_fn("_faulty", Some(1), |args| match &args[0] {
        Value::Int(13) => Err(SaseError::Function {
            name: "_faulty".into(),
            message: "fails on 13".into(),
        }),
        v => Ok(v.clone()),
    });
    functions
}

pub fn template(table: &[&str], t: usize, window: u64, literal: i64) -> String {
    let src = table[t].replace("{w}", &window.to_string());
    src.replace("{k}", &literal.to_string())
}

pub fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Scenario {
    pub script: Vec<Step>,
    pub columns: Vec<Column>,
}

#[derive(Clone, Debug)]
pub enum Step {
    Register(String, String),
    Unregister(String),
    /// A batch on a stream (`None` = the default input).
    Batch(Option<&'static str>, Vec<Event>),
    /// Every deployment is snapshot and restored into a fresh one.
    Snapshot,
    /// Durable deployments die, lose this many bytes off the log tail, and
    /// recover.
    Crash(u64),
}

/// A deployment checked against the reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Column {
    /// `Engine` with `RoutingMode::ScanAll`.
    ScanAll,
    /// The `Sase` facade, optionally sharded.
    Facade(Option<(ShardingMode, usize)>),
    Sharded(ShardingMode, usize),
    /// The `Sase` facade behind a write-ahead log, optionally sharded.
    Durable(Option<(ShardingMode, usize)>),
    /// A `Client` against a served `Sase`.
    Wire,
    /// A `Client` against a served durable `Sase`: a crash is a graceful
    /// shutdown, and the recovered facade then runs in process.
    WireDurable,
}

pub const STREAMS: [Option<&str>; 4] = [None, Some("retail"), Some("RETAIL"), Some("Retail")];

/// The stream a scenario plays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// An arbitrary soup of retail readings.
    Soup,
    /// A stream of the RFID generator.
    Generator,
    /// Keyed types in one of the partition-key shapes of [`keyed_stream`].
    Keyed,
}

/// What a property fixes of its scenarios; `None` leaves it to the draw.
#[derive(Clone, Copy, Debug, Default)]
pub struct Draw {
    pub shape: Option<Shape>,
    /// Whether batches go to named streams (never with keyed shapes).
    pub named: Option<bool>,
    /// The templates registered first: rows of `KEYED` if the shape is
    /// keyed, else of `RETAIL` (a keyed shape is then never drawn).
    pub templates: Option<&'static [usize]>,
}

/// The scenario generator: queries from one template table, a stream of
/// one of three shapes cut into random batches, and every operation at a
/// random batch boundary.
pub fn scenario(seed: u64, draw: Draw) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let reg = registry();
    let keyed = match draw.shape {
        Some(shape) => shape == Shape::Keyed,
        None => draw.templates.is_none() && rng.gen_bool(0.3),
    };
    let (table, share): (&[&str], f64) = if keyed {
        (&KEYED, 0.5)
    } else {
        (&RETAIL, 0.25)
    };
    let mut picked: Vec<usize> = match draw.templates {
        Some(templates) => templates.to_vec(),
        None => (0..table.len()).filter(|_| rng.gen_bool(share)).collect(),
    };
    if picked.is_empty() {
        picked.push(rng.gen_range(0..table.len()));
    }
    let query =
        |rng: &mut StdRng, t| template(table, t, rng.gen_range(5..=200), rng.gen_range(1..=4));

    let soup = match draw.shape {
        Some(shape) => shape == Shape::Soup,
        None => !keyed && rng.gen_bool(0.5),
    };
    let events = if keyed {
        keyed_stream(&mut rng, &reg)
    } else if soup {
        let soup = materialize(&reg, &arb_stream(60).generate(&mut rng));
        soup.iter()
            .map(|e| e.with_timestamp(e.timestamp() + 1))
            .collect()
    } else {
        let cfg = SyntheticConfig::retail(rng.gen(), rng.gen_range(40..120), rng.gen_range(2..10));
        generate(&reg, &cfg)
    };
    let named = match draw.named {
        Some(named) => named && !keyed,
        None => !keyed && rng.gen_bool(0.3),
    };
    let mut batches = Vec::new();
    let mut rest = &events[..];
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(rng.gen_range(1..=12usize).min(rest.len()));
        let stream = if named && rng.gen_bool(0.5) {
            pick(&mut rng, &STREAMS[1..])
        } else {
            None
        };
        batches.push((stream, batch.to_vec()));
        rest = tail;
    }
    if batches.len() > 1 && rng.gen_bool(0.5) {
        // Timestamps start at 1, so a 0 regresses a clock that has seen an
        // event, and its whole batch is rejected.
        let at = rng.gen_range(1..batches.len());
        let batch = &mut batches[at].1;
        let stale = events[rng.gen_range(0..events.len())].with_timestamp(0);
        batch.insert(rng.gen_range(0..=batch.len()), stale);
    }

    let n = batches.len();
    let [unregister, snapshot, crash] = [(); 3].map(|_| rng.gen_range(0..=n));
    let late = rng.gen_range(unregister..=n);
    let victim = format!("q{}", rng.gen_range(0..picked.len()));
    let mut script: Vec<Step> = (picked.iter().enumerate())
        .map(|(i, &t)| Step::Register(format!("q{i}"), query(&mut rng, t)))
        .collect();
    let mut batches = batches.into_iter();
    for i in 0..=n {
        if i == unregister {
            script.push(Step::Unregister(victim.clone()));
        }
        if i == late {
            let t = loop {
                let t = rng.gen_range(0..table.len());
                if keyed || !NEVER_LATE.contains(&t) {
                    break t;
                }
            };
            script.push(Step::Register("late".into(), query(&mut rng, t)));
        }
        if i == snapshot {
            script.push(Step::Snapshot);
        }
        if i == crash {
            script.push(Step::Crash(rng.gen_range(0..2000)));
        }
        script.extend(
            batches
                .next()
                .map(|(stream, events)| Step::Batch(stream, events)),
        );
    }

    // Scan-all plays every scenario; each other column about half of them,
    // still more than the suites it replaced.
    use ShardingMode::{ByPartitionKey as ByKey, ByQuery};
    let facade = pick(&mut rng, &[None, Some((ByQuery, 3)), Some((ByKey, 4))]);
    let inner = pick(
        &mut rng,
        &[
            (ByQuery, 2),
            (ByQuery, 3),
            (ByKey, 1),
            (ByKey, 2),
            (ByKey, 4),
        ],
    );
    let (by_query, by_key) = (rng.gen_range(2..=3), pick(&mut rng, &[1, 2, 4, 8]));
    let mut columns = vec![Column::ScanAll];
    let mut maybe = |column, share| columns.extend(rng.gen_bool(share).then_some(column));
    maybe(Column::Facade(facade), 0.5);
    maybe(Column::Sharded(ByQuery, by_query), 0.5);
    maybe(Column::Sharded(ByKey, by_key), 0.5);
    // Log records carry no stream name: durable deployments take the
    // default stream only.
    if !named {
        maybe(Column::Durable(None), 0.5);
        maybe(Column::Durable(Some(inner)), 0.5);
    }
    Scenario { script, columns }
}

/// Keyed streams in the partition-key shapes: a hot key taking ≈ 80 % of
/// events, uniform keys, or one key per event; `AUDITS` events carry no
/// key, and `HOT_B` keys are `Float` twins of `HOT_A`'s `Int` keys.
fn keyed_stream(rng: &mut StdRng, reg: &SchemaRegistry) -> Vec<Event> {
    let skew = rng.gen_range(0..3);
    let mut ts = 1u64;
    (0..rng.gen_range(0..64))
        .map(|i| {
            ts += rng.gen_range(0..3u64);
            let draw: i64 = rng.gen_range(0..40);
            let user = match skew {
                0 if draw % 10 < 8 => 0,
                0 => draw,
                1 => draw % 8,
                _ => i,
            };
            let (key, amount) = (user % 5, Value::Int(rng.gen_range(0..5)));
            let half = if rng.gen_bool(0.2) { 0.5 } else { 0.0 };
            let (ty, attrs) = match rng.gen_range(0..5) {
                0 => ("ORDERS", vec![Value::Int(user), amount]),
                1 => ("SHIPMENTS", vec![Value::Int(user), amount]),
                2 => ("AUDITS", vec![Value::str("n")]),
                3 => ("HOT_A", vec![Value::Int(key)]),
                _ => ("HOT_B", vec![Value::Float(key as f64 + half)]),
            };
            reg.build_event(ty, ts, attrs).unwrap()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

fn durable_options() -> DurableOptions {
    DurableOptions {
        segment_bytes: 512, // logs roll across segments
        sync_each_batch: false,
        ..DurableOptions::default()
    }
}

fn engine() -> Engine {
    let mut engine = Engine::with_functions(registry(), functions());
    engine.enable_metrics(&MetricsRegistry::new());
    engine
}

fn sharded((mode, shards): (ShardingMode, usize)) -> ShardedEngine {
    let mut builder = ShardedEngineBuilder::with_functions(registry(), functions());
    builder.set_sharding(mode);
    builder.set_metrics(true);
    builder.build(shards).unwrap()
}

fn facade(shards: Option<(ShardingMode, usize)>) -> sase::SaseBuilder {
    let builder = Sase::builder()
        .schemas(registry())
        .functions(functions())
        .metrics(true);
    match shards {
        Some((mode, n)) => builder.shards(n).sharding(mode),
        None => builder,
    }
}

/// Bring a fresh deployment to the state a restore expects: the derived
/// schemas of `snaps`, then the query history of `script` in order.
fn prepare<P: EventProcessor + ?Sized>(
    p: &mut P,
    snaps: Option<&SnapshotSet>,
    script: &[Step],
) -> CoreResult<()> {
    if let Some(snaps) = snaps {
        snaps.preregister_derived(p.schemas())?;
    }
    for step in script {
        match step {
            Step::Register(name, src) => p.register(name, src)?,
            Step::Unregister(name) => assert!(p.unregister(name)),
            _ => {}
        }
    }
    Ok(())
}

/// Where a sharded deployment hosts its queries.
struct Placement {
    mode: ShardingMode,
    workers: usize,
    /// The worker of each query; `None` for a query distributed over the
    /// `ByPartitionKey` data workers.
    hosts: Vec<Option<usize>>,
}

/// An in-process deployment; a durable one also checkpoints.
trait Deployment: EventProcessor {
    /// Write a checkpoint and return its log position.
    fn checkpoint(&mut self) -> u64 {
        unreachable!("no log")
    }
    /// Where a sharded engine hosts its queries.
    fn placement(&self) -> Option<Placement> {
        None
    }
}

impl Deployment for Engine {}

impl Deployment for Sase {
    fn checkpoint(&mut self) -> u64 {
        Sase::checkpoint(self).unwrap()
    }
}

impl Deployment for ShardedEngine {
    fn placement(&self) -> Option<Placement> {
        Some(Placement {
            mode: self.sharding_mode(),
            workers: self.shard_count(),
            hosts: (self.query_names().iter())
                .map(|name| self.shard_of(name))
                .collect(),
        })
    }
}

/// A fresh in-process deployment of `column` (logging in `dir` if it is
/// durable) with the query history of `script`, restored from `snaps`.
fn deploy(
    column: Column,
    dir: &Path,
    script: &[Step],
    snaps: Option<&SnapshotSet>,
) -> Box<dyn Deployment> {
    let opts = durable_options();
    let mut p: Box<dyn Deployment> = match column {
        Column::ScanAll => {
            let mut e = engine();
            e.set_routing(RoutingMode::ScanAll);
            Box::new(e)
        }
        Column::Facade(shards) => Box::new(facade(shards).build().unwrap()),
        Column::Sharded(mode, n) => Box::new(sharded((mode, n))),
        Column::Durable(shards) => Box::new(facade(shards).durable(dir, opts).build().unwrap()),
        Column::Wire | Column::WireDurable => unreachable!("served, not in process"),
    };
    prepare(p.as_mut(), snaps, script).unwrap();
    if let Some(snaps) = snaps {
        p.restore(snaps).unwrap();
    }
    p
}

type Recovered = (Box<dyn Deployment>, RecoveryReport);

fn recover(column: Column, dir: &Path, script: &[Step]) -> CoreResult<Recovered> {
    let Column::Durable(shards) = column else {
        unreachable!("{column:?} keeps no log")
    };
    let durable = facade(shards).durable(dir, durable_options());
    let (sase, report) = durable.recover(|p| prepare(p, None, script))?;
    Ok((Box::new(sase), report))
}

/// The last segment of the log in `dir`: segment names are the first
/// sequence number in fixed-width hex, so the greatest name is the tail.
fn tail_segment(dir: &Path) -> PathBuf {
    let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let segments = entries.filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"));
    segments.max().expect("a durable deployment has a segment")
}

fn tmp_dir() -> PathBuf {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sase-differential-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

fn tagged(out: &[ComplexEvent], tags: &[Tag]) -> Vec<String> {
    assert_eq!(out.len(), tags.len(), "one tag per emission");
    let tag = |(t, e): (&Tag, &ComplexEvent)| format!("{t:?}|{e}");
    tags.iter().zip(out).map(tag).collect()
}

fn rendered<T: ToString>(out: &[T]) -> Vec<String> {
    out.iter().map(T::to_string).collect()
}

/// The monotonic rows of a query's counters, the ones conserved across
/// deployment shapes (the gauges' per-worker sums are upper bounds).
/// Scan-all offers every event to every query, so its `events_processed`
/// is left out.
fn conserved(s: &RuntimeStats, column: Column) -> Vec<(&'static str, u64)> {
    let rows = s.rows().into_iter().filter(|row| row.2);
    let skip = usize::from(column == Column::ScanAll);
    rows.skip(skip)
        .map(|(label, value, _)| (label, value))
        .collect()
}

pub const SEVERITIES: [&str; 3] = ["info", "warning", "error"];

/// The reference's record of one step.
#[derive(Default)]
struct RefStep {
    /// What a batch emitted, in order: nothing when it was rejected.
    out: Vec<ComplexEvent>,
    /// `out` rendered with provenance tags.
    tagged: Vec<String>,
    /// The error of a batch that regressed its stream's clock, the only
    /// batch that fails.
    err: Option<String>,
    /// The analyzer's findings on the text of a `Register` step.
    diags: Vec<String>,
    /// The reference's emission and batch counters after the step.
    emitted: u64,
    batches: u64,
}

struct Reference<'s> {
    script: &'s [Step],
    engine: Engine,
    steps: Vec<RefStep>,
    /// The newest timestamp accepted on each input stream.
    clocks: HashMap<Option<String>, u64>,
}

impl Reference<'_> {
    fn apply(&mut self, i: usize) {
        let mut step = RefStep::default();
        match &self.script[i] {
            Step::Register(name, src) => {
                step.diags = rendered(&EventProcessor::check(&self.engine, src));
                self.engine.register(name, src).unwrap();
            }
            Step::Unregister(name) => assert!(self.engine.unregister(name)),
            Step::Batch(stream, events) => {
                let before = self.state();
                let mut tags = Vec::new();
                let result = self
                    .engine
                    .ingest(*stream, events, &mut step.out, Some(&mut tags));
                step.err = result.err().map(|e| e.to_string());
                step.tagged = tagged(&step.out, &tags);
                let clock = (self.clocks)
                    .entry(stream.map(str::to_ascii_lowercase))
                    .or_default();
                let last = (events.iter()).try_fold(*clock, |last, e| {
                    (e.timestamp() >= last).then_some(e.timestamp())
                });
                *clock = last.unwrap_or(*clock);
                assert_eq!(
                    step.err.is_some(),
                    last.is_none(),
                    "step {i}: a batch fails exactly when it regresses its clock: {:?}",
                    step.err
                );
                if step.err.is_some() {
                    assert!(
                        self.state() == before,
                        "step {i}: a rejected batch changes nothing"
                    );
                }
            }
            _ => {}
        }
        let snap = self.metrics();
        step.emitted = snap.counter("sase_ingest_emissions_total", &[]);
        step.batches = snap.counter("sase_ingest_batches_total", &[]);
        self.steps.push(step);
    }

    /// What a rejected batch leaves unchanged: the engine's metrics and
    /// every query's stats.
    fn state(&self) -> (MetricsSnapshot, Vec<RuntimeStats>) {
        let names = self.engine.query_names();
        let stats = names.iter().map(|n| self.engine.stats(n).unwrap());
        (self.metrics(), stats.collect())
    }

    /// The events of batch step `s` the reference's engine ingested: none
    /// if it was rejected for its clock.
    fn ingested(&self, s: usize) -> u64 {
        if self.steps[s].err.is_some() {
            0
        } else {
            batch_len(&self.script[s])
        }
    }

    /// The emission and batch counters after steps `..i`.
    fn counted_before(&self, i: usize) -> (u64, u64) {
        i.checked_sub(1)
            .map_or((0, 0), |j| (self.steps[j].emitted, self.steps[j].batches))
    }

    /// The engine's own series, without the per-query ones.
    fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics_registry().unwrap().snapshot()
    }
}

enum Live {
    InProcess(Box<dyn Deployment>),
    Wire(ServerHandle, Client),
    /// Recovery failed with `StoreError::Corrupt`: the deployment is gone.
    Dead,
}

/// One column: its live deployment, and what that deployment did since it
/// started from the state after script step `base - 1`.
struct Col {
    column: Column,
    live: Live,
    base: usize,
    /// Events of the batches ingested past their clock check (replayed
    /// ones included).
    events: u64,
    /// The script step of each log record, by sequence number.
    records: Vec<usize>,
    /// Log position and script step of the newest checkpoint.
    checkpoint: (u64, usize),
    /// The query set changed since the newest checkpoint.
    dirty: bool,
    appended: u64,
    replayed: u64,
    /// What the router of a sharded column sent each worker, as its rules
    /// predict: nothing of a batch rejected for its clock, and else the
    /// whole batch to each worker hosting a query, except that
    /// `ByPartitionKey` data workers share the events whose type carries a
    /// claimed key (`spread`).
    routed: Vec<u64>,
    spread: u64,
    /// The keys a `ByPartitionKey` router claimed; claims outlive their
    /// query.
    claims: Vec<TypeKeyAccess>,
    dirs: Vec<PathBuf>,
}

impl Col {
    fn new(column: Column) -> Col {
        let mut col = Col {
            column,
            live: Live::Dead,
            base: 0,
            events: 0,
            records: Vec::new(),
            checkpoint: (0, 0),
            dirty: false,
            appended: 0,
            replayed: 0,
            routed: Vec::new(),
            spread: 0,
            claims: Vec::new(),
            dirs: vec![tmp_dir()],
        };
        let served = match column {
            Column::Wire => facade(None),
            Column::WireDurable => facade(None).durable(&col.dirs[0], durable_options()),
            _ => {
                col.restart(0, &[], None);
                return col;
            }
        };
        let handle = served
            .build()
            .unwrap()
            .serve("127.0.0.1:0", ServerConfig::default());
        let handle = handle.unwrap();
        let client = Client::connect(handle.local_addr()).unwrap();
        col.live = Live::Wire(handle, client);
        col
    }

    fn durable(&self) -> bool {
        matches!(self.column, Column::Durable(_))
    }

    /// Replace the deployment with a fresh one as of script step `i`.
    fn restart(&mut self, i: usize, script: &[Step], snaps: Option<&SnapshotSet>) {
        let dir = tmp_dir();
        let mut p = deploy(self.column, &dir, script, snaps);
        self.dirs.push(dir);
        // A fresh deployment checkpoints once its first queries register.
        let restored = self.durable() && snaps.is_some();
        self.checkpoint = (if restored { p.checkpoint() } else { 0 }, i);
        self.live = Live::InProcess(p);
        (self.base, self.events, self.appended, self.replayed) = (i, 0, 0, 0);
        (self.routed, self.spread) = (Vec::new(), 0);
        self.records.clear();
    }

    fn apply(&mut self, i: usize, r: &Reference<'_>) {
        let step = &r.script[i];
        let durable = self.durable();
        let p = match &mut self.live {
            Live::InProcess(p) => p,
            Live::Wire(..) => return self.wire(i, r),
            Live::Dead => return,
        };
        let registration = matches!(step, Step::Register(..) | Step::Unregister(..));
        if durable && self.dirty && !registration {
            self.checkpoint = (p.checkpoint(), i);
            self.dirty = false;
        }
        self.dirty |= registration;
        match step {
            Step::Register(name, src) => {
                p.register(name, src).unwrap();
                self.claim(name, src);
            }
            Step::Unregister(name) => assert!(p.unregister(name)),
            Step::Batch(stream, events) => self.batch(i, *stream, events, r),
            Step::Snapshot => {
                let snaps = p.snapshot();
                self.check_laws(i, r);
                self.restart(i, &r.script[..i], Some(&snaps));
                let Live::InProcess(p) = &self.live else {
                    unreachable!()
                };
                assert!(
                    p.snapshot() == snaps,
                    "{:?} at step {i}: restoring and snapshotting again changed the snapshot",
                    self.column
                );
            }
            Step::Crash(cut) if durable => self.crash(i, *cut, r),
            Step::Crash(_) => {}
        }
    }

    fn batch(&mut self, i: usize, stream: Option<&str>, events: &[Event], r: &Reference<'_>) {
        let durable = self.durable();
        let Live::InProcess(p) = &mut self.live else {
            unreachable!()
        };
        self.events += r.ingested(i);
        if durable && !events.is_empty() {
            self.records.push(i);
            self.appended += events.len() as u64;
        }
        let (mut out, mut tags) = (Vec::new(), Vec::new());
        let err = p.ingest(stream, events, &mut out, Some(&mut tags)).err();
        let err = err.map(|e| e.to_string());
        let want = &r.steps[i];
        assert_eq!(
            (&tagged(&out, &tags), &err),
            (&want.tagged, &want.err),
            "{:?} at step {i}",
            self.column
        );
        self.route(i, r);
    }

    /// A `ByPartitionKey` router distributes a query when one of its
    /// routing keys agrees with the claims made so far, and claims that
    /// key for every type the query reacts to.
    fn claim(&mut self, name: &str, src: &str) {
        let Live::InProcess(p) = &self.live else {
            return;
        };
        let Some(at) = p.placement() else { return };
        let query = p.query_names().iter().position(|n| n == name).unwrap();
        if at.mode == ShardingMode::ByQuery || at.hosts[query].is_some() {
            return;
        }
        let plan = Planner::new(registry(), functions()).plan(&parse_query(src).unwrap());
        let fits = |tk: &TypeKeyAccess| {
            (self.claims.iter()).all(|c| c.type_id != tk.type_id || c.attr_lc == tk.attr_lc)
        };
        let keys = plan.unwrap().routing_keys;
        let key = keys
            .into_iter()
            .find(|key| !key.per_type.is_empty() && key.per_type.iter().all(fits))
            .expect("a distributed query claims a routing key");
        for tk in key.per_type {
            if !self.claims.iter().any(|c| c.type_id == tk.type_id) {
                self.claims.push(tk);
            }
        }
    }

    /// Count what the router of a sharded column sends its workers for the
    /// batch of script step `s`.
    fn route(&mut self, s: usize, r: &Reference<'_>) {
        let Live::InProcess(p) = &self.live else {
            unreachable!()
        };
        let Some(at) = p.placement() else { return };
        let Step::Batch(stream, events) = &r.script[s] else {
            unreachable!()
        };
        if r.steps[s].err.is_some() {
            return;
        }
        self.routed.resize(at.workers, 0);
        let mut whole: Vec<usize> = at.hosts.iter().flatten().copied().collect();
        whole.sort_unstable();
        whole.dedup();
        for w in whole {
            self.routed[w] += events.len() as u64;
        }
        // Distributed queries listen on the default stream only.
        if stream.is_none() && at.hosts.contains(&None) {
            let claimed = |e: &&Event| {
                (self.claims.iter()).any(|c| c.type_id == e.type_id() && c.key_of(e).is_some())
            };
            self.spread += events.iter().filter(claimed).count() as u64;
        }
    }

    /// Kill a durable column, tear `cut` bytes off its log tail, recover,
    /// and re-send what the log lost.
    fn crash(&mut self, i: usize, cut: u64, r: &Reference<'_>) {
        self.check_laws(i, r);
        let Live::InProcess(p) = std::mem::replace(&mut self.live, Live::Dead) else {
            unreachable!()
        };
        drop(p);
        let dir = self.dirs.last().unwrap();
        let segment = tail_segment(dir);
        let len = std::fs::metadata(&segment).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap();
        f.set_len(len.saturating_sub(cut)).unwrap();

        // Recovery fails exactly when the cut reached records the
        // checkpoint had already covered.
        let (seq, at) = self.checkpoint;
        let segment_bytes = durable_options().segment_bytes;
        let logged = EventLog::open(dir, LogOptions { segment_bytes })
            .unwrap()
            .next_seq();
        let recovered = recover(self.column, dir, &r.script[..i]);
        if logged < seq {
            assert!(
                recovered.is_err(),
                "{:?}: the cut log recovered",
                self.column
            );
            return;
        }
        let (p, report) =
            recovered.unwrap_or_else(|e| panic!("{:?}: recovery failed: {e}", self.column));
        assert_eq!(report.checkpoint_seq, Some(seq));
        let survived = seq + report.records_replayed;
        assert_eq!(survived, logged, "{:?}: records replayed", self.column);
        let survived = survived as usize;
        let replayed = self.records[seq as usize..survived].to_vec();
        let want: Vec<String> = replayed
            .iter()
            .flat_map(|&s| rendered(&r.steps[s].out))
            .collect();
        assert_eq!(
            rendered(&report.emissions),
            want,
            "{:?}: replay",
            self.column
        );
        let failed = replayed
            .iter()
            .filter(|&&s| r.steps[s].err.is_some())
            .count();
        assert_eq!(report.replay_errors.len(), failed);
        let events: u64 = replayed.iter().map(|&s| batch_len(&r.script[s])).sum();
        assert_eq!(report.events_replayed, events);

        let lost = self.records.split_off(survived);
        self.live = Live::InProcess(p);
        let ingested = replayed.iter().map(|&s| r.ingested(s)).sum();
        (self.base, self.events, self.appended, self.replayed) = (at, ingested, 0, events);
        (self.routed, self.spread) = (Vec::new(), 0);
        for &s in &replayed {
            self.route(s, r);
        }
        for s in lost {
            let Step::Batch(stream, events) = &r.script[s] else {
                unreachable!()
            };
            self.batch(s, *stream, events, r);
        }
    }

    /// A served column: what the client sees must render as the
    /// reference's output, findings included.
    fn wire(&mut self, i: usize, r: &Reference<'_>) {
        let Live::Wire(_, client) = &mut self.live else {
            unreachable!()
        };
        let (column, want) = (self.column, &r.steps[i]);
        match &r.script[i] {
            Step::Register(name, src) => {
                let diags = rendered(&client.register(name, src).unwrap());
                assert_eq!(diags, want.diags, "{column:?}: findings for {name}");
            }
            Step::Unregister(name) => assert!(client.unregister(name).unwrap()),
            // A failed batch answers with its error alone: the `Engine`
            // code and the engine's text.
            Step::Batch(stream, events) => {
                let got = client.ingest(*stream, TickMode::Explicit, events);
                match (got, &want.err) {
                    (Ok(got), None) => {
                        assert_eq!(rendered(&got), rendered(&want.out), "{column:?} at {i}")
                    }
                    (Err(ServerError::Engine(e)), Some(w)) => {
                        assert_eq!(&e, w, "{column:?} at {i}")
                    }
                    (got, want) => panic!("{column:?} at step {i}: {got:?} vs {want:?}"),
                }
            }
            // A graceful shutdown, then recovery in process: every
            // acknowledged batch replays.
            Step::Crash(_) if column == Column::WireDurable => {
                let Live::Wire(handle, _) = std::mem::replace(&mut self.live, Live::Dead) else {
                    unreachable!()
                };
                drop(handle.shutdown());
                let (sase, report) = facade(None)
                    .durable(&self.dirs[0], durable_options())
                    .recover(|p| prepare(p, None, &r.script[..i]))
                    .unwrap();
                let acked: Vec<String> = (0..i).flat_map(|s| rendered(&r.steps[s].out)).collect();
                assert_eq!(
                    rendered(&report.emissions),
                    acked,
                    "acknowledged batches replay"
                );
                let failed = (0..i).filter(|&s| r.steps[s].err.is_some()).count();
                assert_eq!(
                    report.replay_errors.len(),
                    failed,
                    "{:?}",
                    report.replay_errors
                );
                self.live = Live::InProcess(Box::new(sase));
                self.events = (0..i).map(|s| r.ingested(s)).sum();
            }
            _ => {}
        }
    }

    /// The conservation laws, checked on the live deployment before step
    /// `i`.
    fn check_laws(&mut self, i: usize, r: &Reference<'_>) {
        let column = self.column;
        let names = r.engine.query_names();
        let p = match &mut self.live {
            Live::InProcess(p) => p,
            Live::Wire(_, client) if column == Column::Wire => {
                assert_eq!(client.queries().unwrap(), names);
                for name in &names {
                    assert_eq!(client.stats(name).unwrap(), r.engine.stats(name).unwrap());
                    assert_eq!(
                        client.explain(name).unwrap(),
                        r.engine.explain(name).unwrap()
                    );
                }
                return;
            }
            _ => return,
        };
        let (snap, reference) = (p.metrics(), r.metrics());
        let ((emitted, batches), (e0, b0)) = (r.counted_before(i), r.counted_before(self.base));
        let (emitted, batches) = (emitted - e0, batches - b0);
        let emissions = snap.counter("sase_ingest_emissions_total", &[]);
        assert_eq!(
            emissions, emitted,
            "{column:?}: emissions since step {}",
            self.base
        );
        let ingested = (
            snap.counter("sase_ingest_events_total", &[]),
            snap.counter("sase_ingest_batches_total", &[]),
        );
        use Column::{Durable, Facade, Sharded};
        let shards = match column {
            Sharded(mode, n) | Facade(Some((mode, n))) | Durable(Some((mode, n))) => {
                Some((mode, n))
            }
            _ => None,
        };
        if let Some((mode, n)) = shards {
            // The workers ingest exactly what the router sends them, and
            // have drained it.
            let routed = |w: usize| {
                let w = w.to_string();
                snap.counter("sase_shard_events_routed_total", &[("shard", &w)])
            };
            let sent = (
                snap.counter_sum("sase_shard_events_routed_total"),
                snap.counter_sum("sase_shard_batches_total"),
            );
            assert_eq!(ingested, sent, "{column:?}: workers ingest what is routed");
            let mut depths = snap
                .samples
                .iter()
                .filter(|s| s.name == "sase_shard_queue_depth");
            let workers = n + usize::from(mode == ShardingMode::ByPartitionKey);
            assert_eq!(depths.clone().count(), workers, "{column:?}: queue depths");
            assert!(
                depths.all(|s| s.value == MetricValue::Gauge(0.0)),
                "{column:?}"
            );
            if (0..n).map(routed).sum::<u64>() > 0 {
                let ratio = snap.gauge("sase_shard_imbalance_ratio", &[]);
                assert!(ratio >= 1.0, "{column:?}: imbalance ratio {ratio}");
            }
            if let Some(at) = p.placement() {
                let whole = if mode == ShardingMode::ByQuery { 0 } else { n };
                self.routed.resize(at.workers, 0);
                for w in whole..at.workers {
                    assert_eq!(routed(w), self.routed[w], "{column:?}: routed to {w}");
                }
                let spread: u64 = (0..whole).map(routed).sum();
                assert_eq!(spread, self.spread, "{column:?}: claimed events routed");
            }
        } else {
            assert_eq!(ingested, (self.events, batches), "{column:?}: ingested");
        }
        let matched = |s: &MetricsSnapshot| s.counter_sum("sase_query_matches_emitted_total");
        assert_eq!(
            matched(&snap),
            matched(&EventProcessor::metrics(&r.engine)),
            "{column:?}: per-query matches"
        );
        for severity in SEVERITIES {
            let label = [("severity", severity)];
            let count = |s: &MetricsSnapshot| s.counter("sase_diagnostics_emitted_total", &label);
            assert_eq!(
                count(&snap),
                count(&reference),
                "{column:?}: {severity} findings"
            );
        }
        if matches!(column, Durable(_)) {
            let appended = snap.counter("sase_wal_append_events_total", &[]);
            let replayed = snap.counter("sase_recovery_events_replayed_total", &[]);
            assert_eq!(
                (appended, replayed),
                (self.appended, self.replayed),
                "{column:?}"
            );
        }
        for name in &names {
            let got = conserved(&p.stats(name).unwrap(), column);
            let want = conserved(&r.engine.stats(name).unwrap(), column);
            assert_eq!(got, want, "{column:?}: stats({name})");
        }
        if shards.is_some() && i == r.script.len() {
            let render = || render_prometheus(&p.metrics());
            assert_eq!(
                render(),
                render(),
                "{column:?}: worker registries merge deterministically"
            );
        }
    }

    fn finish(mut self, r: &Reference<'_>) {
        self.check_laws(r.script.len(), r);
        if let Live::Wire(handle, _) = std::mem::replace(&mut self.live, Live::Dead) {
            drop(handle.shutdown());
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn batch_len(step: &Step) -> u64 {
    match step {
        Step::Batch(_, events) => events.len() as u64,
        _ => 0,
    }
}

/// What a played scenario leaves for row-specific assertions.
pub struct Played {
    /// Every reference emission, untagged, in order.
    pub out: Vec<String>,
    /// Matches the oracle confirmed, in all and by query.
    pub judged: usize,
    pub judged_by: HashMap<String, usize>,
    /// The reference engine after the script.
    pub engine: Engine,
}

/// Play `s` on the reference and, in lockstep, on every column; then hold
/// the reference to the oracle and every column to its conservation laws.
pub fn play(s: &Scenario) -> Played {
    let mut r = Reference {
        script: &s.script,
        engine: engine(),
        steps: Vec::new(),
        clocks: HashMap::new(),
    };
    let mut cols: Vec<Col> = s.columns.iter().map(|&c| Col::new(c)).collect();
    for i in 0..s.script.len() {
        r.apply(i);
        for col in &mut cols {
            col.apply(i, &r);
        }
    }
    for col in cols {
        col.finish(&r);
    }
    if !s.script.iter().any(|s| matches!(s, Step::Unregister(_))) {
        let snap = EventProcessor::metrics(&r.engine);
        assert_eq!(
            snap.counter_sum("sase_query_matches_emitted_total"),
            snap.counter("sase_ingest_emissions_total", &[]),
            "the per-query matches sum to the emissions"
        );
    }
    let judged_by = judge(&r);
    let out = r.steps.iter().flat_map(|s| rendered(&s.out)).collect();
    Played {
        out,
        judged: judged_by.values().sum(),
        judged_by,
        engine: r.engine,
    }
}

/// Check 1: while it was registered, each query inside the oracle's
/// definition matched what the oracle matches over the default-stream
/// events of the batches the reference accepted. Returns the matches
/// judged by query.
fn judge(r: &Reference<'_>) -> HashMap<String, usize> {
    let mut accepted = Vec::new();
    let (mut open, mut spans) = (Vec::new(), Vec::new());
    for (step, done) in r.script.iter().zip(&r.steps) {
        match step {
            Step::Register(name, src) => open.push((name, src, accepted.len())),
            Step::Unregister(name) => {
                let (name, src, from) = open.remove(open.iter().position(|q| q.0 == name).unwrap());
                spans.push((name, src, from, accepted.len()));
            }
            Step::Batch(None, events) if done.err.is_none() => accepted.extend_from_slice(events),
            _ => {}
        }
    }
    spans.extend(
        open.into_iter()
            .map(|(n, s, from)| (n, s, from, accepted.len())),
    );
    let stdlib = FunctionRegistry::with_stdlib();
    let mut judged = HashMap::new();
    for (name, src, from, to) in spans {
        let query = parse_query(src).unwrap();
        let into = query
            .return_clause
            .as_ref()
            .is_some_and(|r| r.into.is_some());
        let host = query
            .called_functions()
            .iter()
            .any(|f| stdlib.resolve(f).is_err());
        if query.from.is_some() || into || host {
            continue;
        }
        let matches = crate::oracle::matches(&query, &accepted[from..to]);
        let mut want: Vec<Vec<String>> = matches.iter().map(|m| rendered(m)).collect();
        want.sort();
        let emitted = r.steps.iter().flat_map(|s| &s.out);
        let named = emitted.filter(|e| &*e.query == name.as_str());
        let mut got: Vec<Vec<String>> = named.map(|e| rendered(&e.events)).collect();
        got.sort();
        assert_eq!(
            got, want,
            "the reference and the oracle disagree on {name}: {src}"
        );
        judged.insert(name.clone(), want.len());
    }
    judged
}

// ---------------------------------------------------------------------------
// Random scenarios
// ---------------------------------------------------------------------------

/// What a property played: matches the oracle confirmed, and every column
/// of every scenario.
pub struct Tally {
    pub judged: usize,
    pub judged_by: HashMap<String, usize>,
    pub columns: Vec<Column>,
}

impl Tally {
    pub fn count(&self, f: impl Fn(&Column) -> bool) -> usize {
        self.columns.iter().filter(|c| f(c)).count()
    }
}

/// Play `cases` random scenarios drawn under `draw`; `adjust` may change
/// each one (by case number) before it plays. A failure prints its
/// scenario.
pub fn property(
    name: &str,
    cases: u32,
    draw: Draw,
    mut adjust: impl FnMut(usize, &mut Scenario),
) -> Tally {
    let mut tally = Tally {
        judged: 0,
        judged_by: HashMap::new(),
        columns: Vec::new(),
    };
    let mut case = 0;
    run_cases(&ProptestConfig::with_cases(cases), name, |rng| {
        let mut s = scenario(rng.gen(), draw);
        adjust(case, &mut s);
        case += 1;
        let played = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| play(&s)));
        let played = played.unwrap_or_else(|panic| {
            eprintln!("failing scenario: {s:?}");
            std::panic::resume_unwind(panic)
        });
        tally.judged += played.judged;
        for (name, n) in played.judged_by {
            *tally.judged_by.entry(name).or_default() += n;
        }
        tally.columns.extend(s.columns);
    });
    tally
}

// ---------------------------------------------------------------------------
// Pinned scenarios
// ---------------------------------------------------------------------------

/// The columns a pinned row plays; the first six take named streams.
pub const ALL: [Column; 8] = [
    Column::ScanAll,
    Column::Facade(None),
    Column::Facade(Some((ShardingMode::ByQuery, 3))),
    Column::Facade(Some((ShardingMode::ByPartitionKey, 4))),
    Column::Sharded(ShardingMode::ByQuery, 3),
    Column::Sharded(ShardingMode::ByPartitionKey, 4),
    Column::Durable(None),
    Column::Durable(Some((ShardingMode::ByQuery, 3))),
];

/// A pinned row: register `queries`, then play `batches` on the default
/// stream.
pub fn row(queries: &[(&str, String)], batches: Vec<Vec<Event>>, columns: &[Column]) -> Scenario {
    let register = queries
        .iter()
        .map(|(name, src)| Step::Register(name.to_string(), src.clone()));
    let script = register
        .chain(batches.into_iter().map(|b| Step::Batch(None, b)))
        .collect();
    Scenario {
        script,
        columns: columns.to_vec(),
    }
}

pub fn retail(t: usize, window: u64, literal: i64) -> String {
    template(&RETAIL, t, window, literal)
}

pub fn keyed(t: usize, window: u64, literal: i64) -> String {
    template(&KEYED, t, window, literal)
}

/// A retail reading of type `k mod 3` at timestamp `ts`.
pub fn reading(k: u64, ts: u64, tag: u64, area: u64) -> Event {
    let ty = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"][(k % 3) as usize];
    let attrs = vec![
        Value::Int(tag as i64),
        Value::str("p"),
        Value::Int(area as i64),
    ];
    retail_registry().build_event(ty, ts, attrs).unwrap()
}

/// `batches` × `per_batch` retail readings of a xorshift stream, one tick
/// apart.
pub fn xorshift_batches(mut state: u64, batches: usize, per_batch: usize) -> Vec<Vec<Event>> {
    let mut ts = 0;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ts += 1;
        reading(state, ts, (state >> 8) % 5, 1 + (state >> 16) % 3)
    };
    (0..batches)
        .map(|_| (0..per_batch).map(|_| next()).collect())
        .collect()
}
