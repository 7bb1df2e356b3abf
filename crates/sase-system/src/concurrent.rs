//! The sharded complex event processor.
//!
//! A [`ShardedEngine`] spreads the work across N engine workers, each an
//! [`Engine`] on its own thread fed through a command channel. Both
//! [`ShardingMode`]s run on one core: one host table (each query runs on
//! one worker or on every data worker), one router (per-stream clocks
//! that reject what the single engine rejects, then a placement rule that
//! picks each worker's sub-batch), and one dispatch loop that merges the
//! workers' emissions on their provenance tags ([`sase_core::engine::Tag`]),
//! so a sharded run reproduces the single-engine
//! output sequence byte for byte. It implements the unified
//! [`EventProcessor`] surface, so it stands wherever a single [`Engine`]
//! does, the durable wrapper included; the tests assert it against the
//! single-threaded [`crate::SaseSystem`] and a single [`Engine`].
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread;

use crossbeam::channel::{bounded, Receiver, Sender};

use sase_core::analyze::{self, Diagnostic};
use sase_core::engine::{Engine, RoutingMode, Sink, Tag};
use sase_core::error::{Result as CoreResult, SaseError};
use sase_core::event::{Event, SchemaRegistry};
use sase_core::functions::FunctionRegistry;
use sase_core::hash::FxHasher;
use sase_core::lang::{parse_query, Query};
use sase_core::output::ComplexEvent;
use sase_core::plan::{compile_query, QueryPlan, TypeKeyAccess};
use sase_core::processor::EventProcessor;
use sase_core::runtime::RuntimeStats;
use sase_core::snapshot::SnapshotSet;
use sase_core::time::{TimeScale, Timestamp};
use sase_obs::{Counter, Gauge, MetricValue, MetricsRegistry, MetricsSnapshot, TraceKind, Tracer};

/// Deployment-level shard-router metrics: per-shard routing counters and
/// queue-depth gauges, plus the registration-time diagnostics counter.
/// Handles are resolved once at build time; the dispatch path only does
/// atomic adds.
struct ShardMetrics {
    /// The deployment's own registry (worker engines each keep a
    /// worker-local registry; [`ShardedEngine::metrics`] merges them).
    registry: MetricsRegistry,
    /// Per shard: cumulative events shipped to that worker.
    events_routed: Vec<Counter>,
    /// Per shard: cumulative batches shipped to that worker.
    batches: Vec<Counter>,
    /// Per shard: events currently in flight to the worker — set at
    /// dispatch, cleared once the worker's result is drained. (The
    /// vendored channel exposes no queue length, so the router maintains
    /// the gauge at its own send/recv seam.)
    queue_depth: Vec<Gauge>,
    /// Diagnostics surfaced at query registration, indexed by
    /// `Severity as usize`.
    diagnostics: [Counter; 3],
}

impl ShardMetrics {
    fn new(shards: usize, diag_counts: [u64; 3]) -> ShardMetrics {
        let registry = MetricsRegistry::new();
        let mut events_routed = Vec::with_capacity(shards);
        let mut batches = Vec::with_capacity(shards);
        let mut queue_depth = Vec::with_capacity(shards);
        for s in 0..shards {
            let shard = s.to_string();
            let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
            events_routed.push(registry.counter("sase_shard_events_routed_total", labels));
            batches.push(registry.counter("sase_shard_batches_total", labels));
            queue_depth.push(registry.gauge("sase_shard_queue_depth", labels));
        }
        // Builder-time registrations were counted before the registry
        // existed; seed the counter with them.
        let diagnostics = ["info", "warning", "error"]
            .map(|sev| registry.counter("sase_diagnostics_emitted_total", &[("severity", sev)]));
        for (slot, n) in diagnostics.iter().zip(diag_counts) {
            slot.add(n);
        }
        ShardMetrics {
            registry,
            events_routed,
            batches,
            queue_depth,
            diagnostics,
        }
    }

    /// Record a sub-batch of `events` leaving for `shard`.
    fn dispatched(&self, shard: usize, events: usize) {
        self.events_routed[shard].add(events as u64);
        self.batches[shard].inc();
        self.queue_depth[shard].set(events as f64);
    }

    /// Record `shard`'s result having been drained.
    fn drained(&self, shard: usize) {
        self.queue_depth[shard].set(0.0);
    }
}

/// The pure stdlib functions ([`FunctionRegistry::with_stdlib`]); sharing
/// one of these across shards never needs co-location.
const STDLIB_FUNCTIONS: [&str; 5] = ["_abs", "_min", "_max", "_concat", "_len"];

/// The error text a panicking shard engine surfaces as; the router watches
/// for it to latch the deployment poisoned.
const SHARD_PANIC_MSG: &str = "engine shard panicked";

/// The deterministic rejection every ingest call gets after a worker
/// panic: a panicking worker may have lost arbitrary in-flight state, so
/// byte-identity with the reference can no longer be promised.
const POISONED_MSG: &str = "sharded deployment poisoned: an engine shard panicked mid-batch; \
                            rebuild the deployment and restore from a checkpoint";

/// How a [`ShardedEngine`] places queries and events on its engine
/// workers. Both modes share one router: it checks every batch against
/// per-stream clocks first, then applies the mode's placement rule.
///
/// * [`ShardingMode::ByQuery`] (query-parallel, the default) partitions
///   the *query set*: each query runs on one worker, and every worker
///   hosting a query sees every event. Scales with the number of
///   independent query components; each worker still pays the full
///   per-event routing loop.
/// * [`ShardingMode::ByPartitionKey`] (data-parallel) partitions the
///   *stream*: every worker runs **all** distributable queries, and each
///   event is routed to one worker by hashing its partition-key value.
///   Queries whose plan exposes no statically-resolvable routing key
///   ([`QueryPlan::routing_keys`]) — no `PARTITION BY`-shaped equivalence
///   class, an uncovered negated slot, `INTO`/`FROM` derivation chains,
///   or non-stdlib host functions — are pinned to a designated extra
///   worker that receives the whole stream. Scales with input rate, which
///   is what the paper's workloads (mostly per-tag equivalence queries)
///   need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardingMode {
    /// Partition the query set across workers (query-parallel).
    #[default]
    ByQuery,
    /// Partition the event stream by partition-key hash (data-parallel).
    ByPartitionKey,
}

/// Builds a [`ShardedEngine`]: register the full query set, then
/// [`ShardedEngineBuilder::build`] partitions it across N engine workers.
///
/// Partitioning is constrained by two co-location rules that keep sharding
/// semantics-preserving:
///
/// * **Derivation chains stay together.** A query consuming `FROM s` is
///   placed with every query producing `INTO s` (transitively), because
///   derived events are re-ingested inside the producing shard only.
/// * **Shared host functions stay together.** Queries calling a common
///   non-stdlib function are co-located so a stateful host function (the
///   paper's `_updateLocation`) sees its calls in the single-engine order.
///   Host functions with *hidden* shared state across different names are
///   the deployer's responsibility.
pub struct ShardedEngineBuilder {
    registry: SchemaRegistry,
    functions: FunctionRegistry,
    time_scale: TimeScale,
    routing: Option<RoutingMode>,
    mode: ShardingMode,
    metrics: bool,
    /// Diagnostics counted at builder registrations (indexed by
    /// `Severity as usize`), transferred into the deployment registry at
    /// [`ShardedEngineBuilder::build`].
    diag_counts: [u64; 3],
    queries: Vec<(String, QueryPlan)>,
}

impl ShardedEngineBuilder {
    /// Create a builder over a schema registry with the standard pure
    /// built-ins pre-registered.
    pub fn new(registry: SchemaRegistry) -> Self {
        Self::with_functions(registry, FunctionRegistry::with_stdlib())
    }

    /// Create a builder with an explicit function registry (shared by all
    /// shards).
    pub fn with_functions(registry: SchemaRegistry, functions: FunctionRegistry) -> Self {
        ShardedEngineBuilder {
            registry,
            functions,
            time_scale: TimeScale::default(),
            routing: None,
            mode: ShardingMode::ByQuery,
            metrics: false,
            diag_counts: [0; 3],
            queries: Vec::new(),
        }
    }

    /// Enable metrics on the deployment (default: off). Each worker engine
    /// gets a worker-local [`MetricsRegistry`] (see
    /// [`Engine::enable_metrics`]) and the router keeps per-shard routing
    /// counters; [`ShardedEngine::metrics`] merges all of them into one
    /// deterministic snapshot.
    pub fn set_metrics(&mut self, on: bool) {
        self.metrics = on;
    }

    /// Select how the deployment splits work across workers (default:
    /// [`ShardingMode::ByQuery`]). Both modes emit identical outputs; see
    /// [`ShardingMode`] for when each wins.
    pub fn set_sharding(&mut self, mode: ShardingMode) {
        self.mode = mode;
    }

    /// Set the logical time scale used for WITHIN conversion.
    pub fn set_time_scale(&mut self, scale: TimeScale) {
        self.time_scale = scale;
    }

    /// Select how each shard's engine matches events to queries (default:
    /// [`RoutingMode::Indexed`]). Both modes emit identical outputs.
    pub fn set_routing(&mut self, mode: RoutingMode) {
        self.routing = Some(mode);
    }

    /// Register a continuous query from source text.
    pub fn register(&mut self, name: &str, src: &str) -> CoreResult<()> {
        if self.queries.iter().any(|(n, _)| n == name) {
            return Err(SaseError::registration(
                name,
                None,
                "a query with this name is already registered",
            ));
        }
        // The counts land in the deployment registry at `build`.
        let counts = &mut self.diag_counts;
        let count = self
            .metrics
            .then_some(|d: &Diagnostic| counts[d.severity as usize] += 1);
        let plan = compile_query(
            name,
            src,
            &self.registry,
            &self.functions,
            self.time_scale,
            count,
        )?;
        self.queries.push((name.to_string(), plan));
        Ok(())
    }

    /// Partition the registered queries across the engine workers and
    /// instantiate the deployment: `shards` workers in
    /// [`ShardingMode::ByQuery`] mode, `shards` data workers plus one
    /// pinned worker in [`ShardingMode::ByPartitionKey`] mode. A deployment
    /// may be built with fewer queries than shards (even with none): later
    /// [`ShardedEngine::register`] calls place a query that no co-location
    /// rule ties to a shard by continuing the round-robin assignment of
    /// co-location components to shards.
    pub fn build(self, shards: usize) -> CoreResult<ShardedEngine> {
        let data = shards.max(1);
        let pinned = usize::from(self.mode == ShardingMode::ByPartitionKey);
        let workers: Vec<ShardWorker> = (0..data + pinned)
            .map(|_| ShardWorker::spawn(self.engine()))
            .collect();
        let metas: Vec<QueryMeta> = self.queries.iter().map(|(_, p)| QueryMeta::of(p)).collect();
        // ByQuery places the whole query set at once, so a later query can
        // merge two earlier components; ByPartitionKey decides per query.
        let assignment = (self.mode == ShardingMode::ByQuery).then(|| colocate(&metas, data));
        let mut engine = ShardedEngine {
            l2g: vec![Vec::new(); workers.len()],
            workers,
            mode: self.mode,
            data,
            registry: self.registry,
            functions: self.functions,
            time_scale: self.time_scale,
            names: Vec::new(),
            meta: Vec::new(),
            hosts: Vec::new(),
            components: assignment.as_ref().map_or(0, |(_, n)| *n),
            claims: Vec::new(),
            clocks: HashMap::new(),
            poisoned: false,
            metrics: self
                .metrics
                .then(|| ShardMetrics::new(data + pinned, self.diag_counts)),
            tracer: Tracer::disabled(),
            batch_seq: 0,
        };
        for (global, ((name, plan), meta)) in self.queries.into_iter().zip(metas).enumerate() {
            let host = match &assignment {
                Some((shard_of, _)) => Host::One(shard_of[global]),
                None => engine.place(&name, &meta, &plan)?,
            };
            engine.host(&name, plan, meta, host)?;
        }
        Ok(engine)
    }

    /// A fresh worker engine configured like every other one.
    fn engine(&self) -> Engine {
        let mut e = Engine::with_functions(self.registry.clone(), self.functions.clone());
        e.set_time_scale(self.time_scale);
        if let Some(mode) = self.routing {
            e.set_routing(mode);
        }
        if self.metrics {
            // Worker-local registry: recording stays uncontended;
            // `ShardedEngine::metrics` merges the workers' views.
            e.enable_metrics(&MetricsRegistry::new());
        }
        e
    }
}

/// The [`ShardingMode::ByQuery`] placement of a whole query set: union the
/// queries each co-location rule ties together, then assign the components
/// round-robin to `shards` in order of first appearance. Returns each
/// query's shard and the number of components.
fn colocate(metas: &[QueryMeta], shards: usize) -> (Vec<usize>, usize) {
    let mut parent: Vec<usize> = (0..metas.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Rule 1: producers of a stream with each other and with its
    // consumers. Rule 2: queries sharing a non-stdlib function.
    let mut groups: HashMap<(bool, &str), Vec<usize>> = HashMap::new();
    for (i, m) in metas.iter().enumerate() {
        let streams = m.into.iter().chain(&m.from);
        for key in streams.map(|s| (true, s.as_str())) {
            groups.entry(key).or_default().push(i);
        }
        for f in &m.funcs {
            groups.entry((false, f.as_str())).or_default().push(i);
        }
    }
    for (&(stream, name), members) in &groups {
        // A stream nobody produces links nothing: its consumers only see
        // externally injected events.
        if stream && !metas.iter().any(|m| m.into.as_deref() == Some(name)) {
            continue;
        }
        for w in members.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            parent[a] = b;
        }
    }
    let mut component_of: HashMap<usize, usize> = HashMap::new();
    let assignment = (0..metas.len())
        .map(|i| {
            let root = find(&mut parent, i);
            let next = component_of.len();
            *component_of.entry(root).or_insert(next) % shards
        })
        .collect();
    (assignment, component_of.len())
}

/// Co-location-relevant facts about a registered query, kept so queries
/// registered *after* [`ShardedEngineBuilder::build`] can be placed
/// consistently with the builder's partitioning rules.
#[derive(Debug, Clone)]
struct QueryMeta {
    /// `FROM` stream (normalized to lowercase).
    from: Option<String>,
    /// `INTO` stream (normalized to lowercase).
    into: Option<String>,
    /// Non-stdlib host functions the query calls.
    funcs: Vec<String>,
}

impl QueryMeta {
    fn of(plan: &QueryPlan) -> QueryMeta {
        QueryMeta {
            from: plan.query.from.as_deref().map(str::to_ascii_lowercase),
            into: plan
                .return_plan
                .into
                .as_deref()
                .map(str::to_ascii_lowercase),
            funcs: plan
                .query
                .called_functions()
                .into_iter()
                .filter(|f| !STDLIB_FUNCTIONS.contains(&f.as_str()))
                .collect(),
        }
    }

    /// Whether a query with these facts must share a worker with `other`.
    fn linked(&self, other: &QueryMeta) -> bool {
        (self.from.is_some() && other.into == self.from)
            || (self.into.is_some() && (other.into == self.into || other.from == self.into))
            || other.funcs.iter().any(|f| self.funcs.contains(f))
    }
}

/// The workers hosting a query.
#[derive(Debug, Clone, Copy)]
enum Host {
    /// One worker runs the query over every event it is sent.
    One(usize),
    /// Every data worker runs a copy of the query over its key slice of
    /// the stream ([`ShardingMode::ByPartitionKey`]).
    Data,
}

/// One worker's share of a batch.
struct SubBatch {
    worker: usize,
    events: Arc<Vec<Event>>,
    /// For a key slice, the batch index of each event; `None` when the
    /// worker gets the whole batch, whose indices are already the batch's.
    map: Option<Vec<u32>>,
}

/// Field-wise sum of two [`RuntimeStats`] (for aggregating a distributed
/// query's counters across data workers).
fn add_stats(total: &mut RuntimeStats, s: &RuntimeStats) {
    total.events_processed += s.events_processed;
    total.instances_appended += s.instances_appended;
    total.instances_pruned += s.instances_pruned;
    total.sequences_constructed += s.sequences_constructed;
    total.construction_filter_rejects += s.construction_filter_rejects;
    total.dropped_by_negation += s.dropped_by_negation;
    total.negation_candidates_buffered += s.negation_candidates_buffered;
    total.matches_emitted += s.matches_emitted;
    total.partitions += s.partitions;
    total.eval_errors += s.eval_errors;
}

/// Capacity of each shard worker's command and result channels.
const SHARD_QUEUE_CAPACITY: usize = 64;

/// A worker's answer to one batch: its emissions and their tags, aligned,
/// and the batch's outcome.
type WorkerResult = (Vec<ComplexEvent>, Vec<Tag>, CoreResult<()>);

/// A command executed by a shard worker thread.
enum ShardCmd {
    /// Process a batch; the tagged emissions go to the worker's persistent
    /// result channel.
    Batch {
        stream: Option<String>,
        events: Arc<Vec<Event>>,
    },
    /// Run an arbitrary closure against the shard's engine (stats,
    /// snapshot, restore); results travel through a channel the closure
    /// captures.
    With(Box<dyn FnOnce(&mut Engine) + Send>),
}

/// One persistent engine worker: the engine lives on its own thread for the
/// deployment's lifetime, fed through a command channel. Compared with
/// spawning scoped threads per batch this removes the per-batch
/// spawn/join and channel churn that made `sharded-4` *slower* than a
/// single indexed engine at high query counts.
struct ShardWorker {
    cmd_tx: Option<Sender<ShardCmd>>,
    batch_rx: Receiver<WorkerResult>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ShardWorker {
    fn spawn(mut engine: Engine) -> ShardWorker {
        let (cmd_tx, cmd_rx) = bounded::<ShardCmd>(SHARD_QUEUE_CAPACITY);
        let (batch_tx, batch_rx) = bounded::<WorkerResult>(SHARD_QUEUE_CAPACITY);
        let handle = thread::spawn(move || {
            for cmd in cmd_rx {
                match cmd {
                    ShardCmd::Batch { stream, events } => {
                        // Panic isolation: a panicking shard engine becomes
                        // an error result (which poisons the deployment);
                        // the worker (and so snapshot / stats / restore)
                        // stays alive.
                        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let (mut out, mut tags) = (Vec::new(), Vec::new());
                            let res = engine.ingest(
                                stream.as_deref(),
                                &events,
                                &mut out,
                                Some(&mut tags),
                            );
                            (out, tags, res)
                        }))
                        .unwrap_or_else(|_| {
                            (
                                Vec::new(),
                                Vec::new(),
                                Err(SaseError::engine(SHARD_PANIC_MSG)),
                            )
                        });
                        if batch_tx.send(res).is_err() {
                            break; // deployment dropped mid-batch
                        }
                    }
                    ShardCmd::With(f) => {
                        // A panicking closure surfaces to the caller as a
                        // disconnected reply channel; keep the worker alive.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            f(&mut engine)
                        }));
                    }
                }
            }
        });
        ShardWorker {
            cmd_tx: Some(cmd_tx),
            batch_rx,
            handle: Some(handle),
        }
    }

    fn send(&self, cmd: ShardCmd) -> CoreResult<()> {
        self.cmd_tx
            .as_ref()
            .expect("live until drop")
            .send(cmd)
            .map_err(|_| SaseError::engine("engine shard worker disconnected"))
    }

    /// Run a closure on the worker's engine and wait for its result.
    fn call<R, F>(&self, f: F) -> CoreResult<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Engine) -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        self.send(ShardCmd::With(Box::new(move |engine| {
            let _ = tx.send(f(engine));
        })))?;
        rx.recv()
            .map_err(|_| SaseError::engine("engine shard worker disconnected"))
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        // Closing the command channel ends the worker loop.
        self.cmd_tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// N engine workers over a placement of the registered queries.
///
/// Every query is hosted by one worker or, in
/// [`ShardingMode::ByPartitionKey`] mode, by every data worker; each
/// worker keeps its own local → global query-index table. Each engine
/// lives on a **persistent worker thread** fed through a command channel
/// (`ShardWorker`); a batch costs two channel hops per worker it reaches.
///
/// Ingest runs one router in both modes: it checks the batch against
/// per-stream clocks the way one engine would, rejecting a regressing
/// batch before dispatch, and gives the batch to every worker hosting a
/// query — except that `ByPartitionKey` data workers get only the events
/// whose key hashes to them. One dispatch loop then collects the
/// emissions and their [`Tag`]s, remaps the tags' per-worker indices to
/// the batch and to the global registration order, and merges on the tags
/// — reproducing, deterministically and byte for byte, the output
/// sequence of one engine running all the queries. A worker panic
/// poisons the deployment in either mode.
pub struct ShardedEngine {
    /// One persistent worker per engine: the data workers first, then (in
    /// [`ShardingMode::ByPartitionKey`] mode) the pinned worker.
    workers: Vec<ShardWorker>,
    /// Per worker: local query index -> global registration index.
    l2g: Vec<Vec<u32>>,
    mode: ShardingMode,
    /// Number of data workers: all of them in [`ShardingMode::ByQuery`]
    /// mode, all but the pinned last one in
    /// [`ShardingMode::ByPartitionKey`] mode.
    data: usize,
    /// The shared schema registry (every shard holds a handle to it).
    registry: SchemaRegistry,
    /// The shared function registry, kept so queries can be planned (and
    /// placed) after the deployment is built.
    functions: FunctionRegistry,
    /// Time scale for WITHIN conversion in post-build registrations.
    time_scale: TimeScale,
    /// Query names in global registration order.
    names: Vec<String>,
    /// Co-location facts per query, aligned with `names`.
    meta: Vec<QueryMeta>,
    /// The workers hosting each query, aligned with `names`.
    hosts: Vec<Host>,
    /// Co-location components created so far (monotone): post-build
    /// registrations of unconstrained queries continue the builder's
    /// round-robin component → shard assignment, so replaying the same
    /// registration sequence always reproduces the same partitioning
    /// (the property snapshot/restore depends on).
    components: usize,
    /// [`ShardingMode::ByPartitionKey`]: per event type (indexed by
    /// `EventTypeId.0`), the accessor that extracts the routing key from
    /// events of that type. **Sticky**: a claim survives unregistering the
    /// query that made it, so replaying the same registration sequence
    /// after a crash reproduces the same event → worker routing (the
    /// property restore depends on). A query re-registered after an
    /// unregister may therefore end up pinned where a fresh build would
    /// distribute it.
    claims: Vec<Option<TypeKeyAccess>>,
    /// Router-level per-stream monotonicity clocks, mirroring
    /// [`Engine`]'s: a worker sees only the batches (or key slices) it is
    /// sent, so its own clocks cannot catch every regression the single
    /// engine would reject.
    clocks: HashMap<Option<String>, Timestamp>,
    /// Latched after a worker panic: every subsequent ingest is rejected
    /// with [`POISONED_MSG`] until a restore.
    poisoned: bool,
    /// Deployment-level router metrics; `Some` iff the deployment was
    /// built with [`ShardedEngineBuilder::set_metrics`] on.
    metrics: Option<ShardMetrics>,
    /// Lifecycle tracing hook ([`ShardedEngine::set_tracer`]); disabled
    /// by default (one branch per batch).
    tracer: Tracer,
    /// Monotone batch id stamped on [`TraceKind::ShardDispatch`] spans.
    batch_seq: u64,
}

impl ShardedEngine {
    /// Number of engine workers.
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Query names in global registration order.
    pub fn query_names(&self) -> &[String] {
        &self.names
    }

    /// Register a continuous query on a live deployment.
    ///
    /// In [`ShardingMode::ByQuery`] mode placement follows the builder's
    /// co-location rules: a query that consumes a stream some registered
    /// query produces (`FROM` ↔ `INTO`), produces a stream another query
    /// produces or consumes, or shares a non-stdlib host function with a
    /// registered query is placed on that query's shard. An unconstrained
    /// query starts a new co-location component and continues the
    /// builder's round-robin component → shard assignment, so replaying
    /// the same registration sequence (build-time and post-build calls, in
    /// order) always reproduces the same partitioning — which is what lets
    /// a checkpointed deployment be rebuilt and restored. If the rules
    /// demand co-location with queries on *different* shards, registration
    /// fails — rebuild the deployment through [`ShardedEngineBuilder`] to
    /// repartition. In [`ShardingMode::ByPartitionKey`] mode the query is
    /// distributed or pinned exactly as at build time.
    pub fn register(&mut self, name: &str, src: &str) -> CoreResult<()> {
        if self.names.iter().any(|n| n == name) {
            return Err(SaseError::registration(
                name,
                None,
                "a query with this name is already registered",
            ));
        }
        // Post-build registrations count their diagnostics straight into
        // the deployment registry.
        let count = self
            .metrics
            .as_ref()
            .map(|m| |d: &Diagnostic| m.diagnostics[d.severity as usize].inc());
        let plan = compile_query(
            name,
            src,
            &self.registry,
            &self.functions,
            self.time_scale,
            count,
        )?;
        let meta = QueryMeta::of(&plan);
        let host = self.place(name, &meta, &plan)?;
        self.host(name, plan, meta, host)
    }

    /// Statically analyze query text against this deployment — its
    /// schemas, functions, time scale, and registered queries — *without*
    /// registering it. See [`sase_core::analyze()`] for the lint catalogue.
    pub fn check(&self, src: &str) -> Vec<analyze::Diagnostic> {
        let existing: Vec<(String, Query)> = self
            .names
            .iter()
            .filter_map(|n| {
                let text = self.query_text(n).ok()?;
                Some((n.clone(), parse_query(&text).ok()?))
            })
            .collect();
        analyze::check_src(
            src,
            &self.registry,
            &self.functions,
            self.time_scale,
            &existing,
        )
    }

    /// Decide where a new query runs. [`ShardingMode::ByPartitionKey`]
    /// distributes it when [`ShardedEngine::claim`] succeeds and pins it
    /// otherwise. [`ShardingMode::ByQuery`] puts it on the shard its
    /// co-location links tie it to, or — unconstrained — starts a new
    /// component on the next shard round-robin; links to two different
    /// shards are an error.
    fn place(&mut self, name: &str, meta: &QueryMeta, plan: &QueryPlan) -> CoreResult<Host> {
        if self.mode == ShardingMode::ByPartitionKey {
            return Ok(if self.claim(meta, plan) {
                Host::Data
            } else {
                Host::One(self.data)
            });
        }
        let mut constrained: Option<usize> = None;
        for (m, &host) in self.meta.iter().zip(&self.hosts) {
            // ByQuery hosts every query on exactly one worker.
            let Host::One(shard) = host else { continue };
            if !meta.linked(m) {
                continue;
            }
            match constrained {
                Some(s) if s != shard => {
                    return Err(SaseError::registration(
                        name,
                        None,
                        format!(
                            "must be co-located with queries on shards {s} and {shard}; \
                             rebuild the deployment with ShardedEngineBuilder to repartition"
                        ),
                    ))
                }
                _ => constrained = Some(shard),
            }
        }
        let shard = constrained.unwrap_or_else(|| {
            self.components += 1;
            (self.components - 1) % self.workers.len()
        });
        Ok(Host::One(shard))
    }

    /// Commit a query's routing-key claims if it can be distributed
    /// ([`ShardingMode::ByPartitionKey`]).
    ///
    /// A query is **pinned** when it consumes a derived stream (`FROM` —
    /// derived events are re-ingested inside the producing engine only),
    /// produces one (`INTO` — its consumers must see every derived
    /// event), or calls a non-stdlib host function (a stateful function
    /// must see its calls in single-engine order). Otherwise it is
    /// distributed iff one of its [`QueryPlan::routing_keys`] is
    /// compatible with the claims committed so far: every event type the
    /// query reacts to must either be unclaimed or already claimed with
    /// the same key attribute — the router extracts one key per event,
    /// so two queries asking different attributes of one type cannot
    /// both distribute.
    fn claim(&mut self, meta: &QueryMeta, plan: &QueryPlan) -> bool {
        if meta.from.is_some() || meta.into.is_some() || !meta.funcs.is_empty() {
            return false;
        }
        let claims = &mut self.claims;
        let fits = |tk: &TypeKeyAccess| match claims.get(tk.type_id.0 as usize) {
            Some(Some(existing)) => existing.attr_lc == tk.attr_lc,
            _ => true,
        };
        let Some(rk) = plan
            .routing_keys
            .iter()
            .find(|rk| !rk.per_type.is_empty() && rk.per_type.iter().all(fits))
        else {
            return false;
        };
        for tk in &rk.per_type {
            let idx = tk.type_id.0 as usize;
            if idx >= claims.len() {
                claims.resize_with(idx + 1, || None);
            }
            claims[idx].get_or_insert_with(|| tk.clone());
        }
        true
    }

    /// The workers hosting a query.
    fn workers_of(&self, host: Host) -> Range<usize> {
        match host {
            Host::One(w) => w..w + 1,
            Host::Data => 0..self.data,
        }
    }

    /// Global registration index of a query.
    fn global(&self, name: &str) -> CoreResult<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))
    }

    /// Install a query on its hosting workers and record it in the host
    /// table — the one path of build-time and post-build registration.
    fn host(&mut self, name: &str, plan: QueryPlan, meta: QueryMeta, host: Host) -> CoreResult<()> {
        let workers = self.workers_of(host);
        for w in workers.clone() {
            let (n, p) = (name.to_string(), plan.clone());
            self.workers[w].call(move |engine| engine.install(&n, p))??;
        }
        let global = self.names.len() as u32;
        for table in &mut self.l2g[workers] {
            table.push(global);
        }
        self.names.push(name.to_string());
        self.meta.push(meta);
        self.hosts.push(host);
        Ok(())
    }

    /// Delete a query, wherever it is hosted. Returns true if it existed.
    /// In [`ShardingMode::ByPartitionKey`] mode the routing-key claims it
    /// committed stay in place, so replaying the same registration sequence
    /// reproduces the same event → worker routing.
    pub fn unregister(&mut self, name: &str) -> bool {
        let Ok(global) = self.global(name) else {
            return false;
        };
        let mut removed = true;
        for w in self.workers_of(self.hosts[global]) {
            let n = name.to_string();
            removed &= self.workers[w]
                .call(move |engine| engine.unregister(&n))
                .unwrap_or(false);
        }
        if !removed {
            return false;
        }
        self.names.remove(global);
        self.meta.remove(global);
        self.hosts.remove(global);
        // Renumber the global registration indices past the removed one.
        let g = global as u32;
        for table in &mut self.l2g {
            table.retain(|&x| x != g);
            for x in table.iter_mut() {
                if *x > g {
                    *x -= 1;
                }
            }
        }
        true
    }

    /// Attach an output sink to a query, wherever it is hosted. Sinks fire
    /// on the hosting worker's thread. A query with several hosts (a
    /// distributed [`ShardingMode::ByPartitionKey`] query) shares one sink
    /// behind a mutex: it sees every output, but cross-worker delivery
    /// order is unspecified (per-worker order is preserved).
    pub fn add_sink(&mut self, name: &str, sink: Sink) -> CoreResult<()> {
        let workers = self.workers_of(self.hosts[self.global(name)?]);
        if workers.len() == 1 {
            let n = name.to_string();
            return self.workers[workers.start].call(move |engine| engine.add_sink(&n, sink))?;
        }
        let shared = Arc::new(Mutex::new(sink));
        for w in workers {
            let (n, s) = (name.to_string(), shared.clone());
            let sink: Sink = Box::new(move |ce| s.lock().expect("sink lock")(ce));
            self.workers[w].call(move |engine| engine.add_sink(&n, sink))??;
        }
        Ok(())
    }

    /// Runtime counters of a query, summed field-wise over its hosting
    /// workers.
    pub fn stats(&self, name: &str) -> CoreResult<RuntimeStats> {
        let mut total = RuntimeStats::default();
        for w in self.workers_of(self.hosts[self.global(name)?]) {
            let n = name.to_string();
            add_stats(&mut total, &self.workers[w].call(move |e| e.stats(&n))??);
        }
        Ok(total)
    }

    /// EXPLAIN output of a query's plan, wherever it is hosted.
    pub fn explain(&self, name: &str) -> CoreResult<String> {
        self.query_call(name, |engine, name| engine.explain(name))
    }

    /// The source text (canonical form) of a query, wherever it is hosted.
    pub fn query_text(&self, name: &str) -> CoreResult<String> {
        self.query_call(name, |engine, name| engine.query_text(name))
    }

    /// Run a read-only per-query accessor on the first worker hosting
    /// `name` (every host holds an identical copy of the plan).
    fn query_call<R, F>(&self, name: &str, f: F) -> CoreResult<R>
    where
        R: Send + 'static,
        F: FnOnce(&Engine, &str) -> CoreResult<R> + Send + 'static,
    {
        let w = self.workers_of(self.hosts[self.global(name)?]).start;
        let name = name.to_string();
        self.workers[w].call(move |engine| f(engine, &name))?
    }

    /// The shared schema registry (all shards hold handles to one
    /// registry, so derived `INTO` types registered by any shard are
    /// visible to every other).
    pub fn schemas(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// Install a lifecycle tracer on the router and every worker engine
    /// ([`TraceKind::ShardDispatch`] spans here, per-engine batch/query
    /// spans inside the workers). Worker spans fire on the worker threads.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        for w in &self.workers {
            let t = tracer.clone();
            let _ = w.call(move |engine| engine.set_tracer(t));
        }
    }

    /// The deployment-level registry (per-shard routing series), when the
    /// deployment was built with [`ShardedEngineBuilder::set_metrics`] on.
    /// Worker-local engine registries are folded in by
    /// [`ShardedEngine::metrics`], not reachable from here.
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// A deterministic metrics snapshot of the whole deployment: the
    /// router's per-shard series, every worker engine's local registry
    /// (merged — same-identity series sum), a derived
    /// `sase_shard_imbalance_ratio` gauge (max/mean events routed across
    /// data shards), and the per-query [`RuntimeStats`] promoted to
    /// `sase_query_*{query=…}` series.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut parts: Vec<MetricsSnapshot> = Vec::new();
        if let Some(m) = &self.metrics {
            parts.push(m.registry.snapshot());
        }
        for w in &self.workers {
            if let Ok(Some(snap)) = w.call(|engine| engine.metrics_registry().map(|r| r.snapshot()))
            {
                parts.push(snap);
            }
        }
        let mut snap = MetricsSnapshot::merged(parts);
        if let Some(m) = &self.metrics {
            let routed: Vec<u64> = m.events_routed[..self.data]
                .iter()
                .map(|c| c.get())
                .collect();
            let total: u64 = routed.iter().sum();
            if total > 0 {
                let mean = total as f64 / routed.len() as f64;
                let max = routed.iter().copied().max().unwrap_or(0) as f64;
                snap.push(
                    "sase_shard_imbalance_ratio",
                    &[],
                    MetricValue::Gauge(max / mean),
                );
            }
        }
        for name in &self.names {
            if let Ok(s) = self.stats(name) {
                s.export_metrics(name, &mut snap);
            }
        }
        snap
    }

    /// Serializable image of every shard's engine state, one
    /// [`sase_core::snapshot::EngineSnapshot`] per shard in shard order.
    ///
    /// Together with deterministic partitioning — replaying the same
    /// registration sequence (builder registrations, then any post-build
    /// [`ShardedEngine::register`] / [`ShardedEngine::unregister`] calls,
    /// in the same order) always reproduces the same query → shard
    /// assignment — this makes a sharded deployment checkpointable:
    /// rebuild it the same way, then restore the snapshot set.
    pub fn snapshot(&self) -> SnapshotSet {
        let mut set = SnapshotSet {
            engines: self
                .workers
                .iter()
                .map(|w| {
                    // Workers isolate engine panics (batch errors leave
                    // them alive and snapshotable); this can only fail if
                    // `Engine::snapshot` itself panics.
                    w.call(|engine| engine.snapshot())
                        .expect("shard workers survive batch errors")
                })
                .collect(),
        };
        // A worker hosting no queries is skipped entirely, so its own
        // clocks may lag the router's. Overlay the authoritative router
        // clocks onto the last slot — `restore` takes the router clocks
        // from that slot alone. Streams only the last engine has (derived
        // streams it minted itself) keep their entries, and `max` keeps the
        // later clock of a stream both have; sorting makes snapshot bytes
        // deterministic.
        let snap = set.engines.last_mut().expect("at least one worker");
        for (stream, ts) in &self.clocks {
            match snap.stream_clocks.iter_mut().find(|(s, _)| s == stream) {
                Some((_, t)) => *t = (*t).max(*ts),
                None => snap.stream_clocks.push((stream.clone(), *ts)),
            }
        }
        snap.stream_clocks.sort();
        set
    }

    /// Restore a snapshot set (one engine snapshot per shard, in shard
    /// order) onto a freshly rebuilt deployment with the same queries.
    /// The router clocks become the last slot's, and a poison latch clears
    /// (the restored state is consistent).
    pub fn restore(&mut self, snaps: &SnapshotSet) -> CoreResult<()> {
        if snaps.len() != self.shard_count() {
            return Err(SaseError::engine(format!(
                "snapshot mismatch: snapshot has {} shards, deployment has {}",
                snaps.len(),
                self.shard_count()
            )));
        }
        for (worker, snap) in self.workers.iter().zip(&snaps.engines) {
            let snap = snap.clone();
            worker.call(move |engine| engine.restore(&snap))??;
        }
        // The last slot carries the router's clocks (see `snapshot`). The
        // other slots' own clocks stay theirs: taken into the router, a
        // derived stream one of them minted would be written into the last
        // slot by the next snapshot.
        let last = snaps.engines.last().map(|s| s.stream_clocks.iter());
        self.clocks = last.into_iter().flatten().cloned().collect();
        self.poisoned = false;
        Ok(())
    }

    /// The deployment's sharding mode.
    pub fn sharding_mode(&self) -> ShardingMode {
        self.mode
    }

    /// Shard index hosting a query, for inspection. In
    /// [`ShardingMode::ByPartitionKey`] mode a distributed query runs on
    /// every data worker, so it has no single hosting shard (`None`);
    /// pinned queries report the designated pinned worker's index.
    pub fn shard_of(&self, name: &str) -> Option<usize> {
        match self.hosts[self.global(name).ok()?] {
            Host::One(w) => Some(w),
            Host::Data => None,
        }
    }

    /// The router's clock check: reject a batch whose timestamps regress
    /// the stream's clock, or an earlier event of the batch, exactly like
    /// [`Engine`] does; otherwise advance the clock to the batch's last
    /// event.
    fn check_clock(&mut self, stream: Option<&str>, events: &[Event]) -> CoreResult<()> {
        let stream_key = stream.map(str::to_ascii_lowercase);
        // An absent clock starts at 0: timestamps are unsigned, so the
        // first event always passes, exactly like `Engine`'s
        // insert-on-first-sight.
        let mut last = self.clocks.get(&stream_key).copied().unwrap_or(0);
        for event in events {
            if event.timestamp() < last {
                return Err(SaseError::engine(format!(
                    "out-of-order event: timestamp {} after {last} on stream `{}`",
                    event.timestamp(),
                    stream_key.as_deref().unwrap_or("<default>"),
                )));
            }
            last = event.timestamp();
        }
        self.clocks.insert(stream_key, last);
        Ok(())
    }

    /// The router's placement: every worker hosting a query gets the whole
    /// batch, except [`ShardingMode::ByPartitionKey`] data workers: each
    /// gets the events whose claimed key hashes to it. Workers hosting no
    /// query are skipped — there is nothing they could emit.
    fn route(&self, stream: Option<&str>, events: &[Event]) -> Vec<SubBatch> {
        let mut subs = Vec::new();
        if events.is_empty() {
            return subs;
        }
        let keyed = self.mode == ShardingMode::ByPartitionKey;
        // Distributed queries listen on the default stream only (FROM
        // consumers are pinned), so named-stream events skip the data
        // workers.
        if keyed && stream.is_none() && !self.l2g[0].is_empty() {
            let mut slices = vec![(Vec::new(), Vec::new()); self.data];
            for (i, event) in events.iter().enumerate() {
                // Claimed accessors are statically resolved, so `key_of`
                // is infallible for events of the claimed type; an event
                // of an unclaimed type routes nowhere (no distributed
                // query reacts to it).
                let claim = self.claims.get(event.type_id().0 as usize);
                if let Some(key) = claim
                    .and_then(Option::as_ref)
                    .and_then(|tk| tk.key_of(event))
                {
                    let mut h = FxHasher::default();
                    key.hash(&mut h);
                    let (events, map) = &mut slices[(h.finish() % self.data as u64) as usize];
                    events.push(event.clone());
                    map.push(i as u32);
                }
            }
            for (worker, (events, map)) in slices.into_iter().enumerate() {
                if !events.is_empty() {
                    let events = Arc::new(events);
                    subs.push(SubBatch {
                        worker,
                        events,
                        map: Some(map),
                    });
                }
            }
        }
        // One shared copy of the batch; events are cheap `Arc` handles.
        let mut shared: Option<Arc<Vec<Event>>> = None;
        let whole = if keyed { self.data } else { 0 };
        for worker in (whole..self.workers.len()).filter(|&w| !self.l2g[w].is_empty()) {
            let events = shared.get_or_insert_with(|| Arc::new(events.to_vec()));
            subs.push(SubBatch {
                worker,
                events: events.clone(),
                map: None,
            });
        }
        subs
    }

    /// The dispatch loop: send each sub-batch, drain exactly one result per
    /// dispatched worker, remap tags to the batch and to the global
    /// registration order, and merge on the tags into `out` (and `tags`).
    /// A worker that panicked, or whose own clock rejected its batch, fails
    /// the call; a panic also poisons the deployment.
    fn dispatch(
        &mut self,
        stream: Option<&str>,
        subs: Vec<SubBatch>,
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> CoreResult<()> {
        let mut sent = Vec::with_capacity(subs.len());
        let mut send_err = None;
        for SubBatch {
            worker,
            events,
            map,
        } in subs
        {
            let len = events.len();
            let stream = stream.map(str::to_string);
            if let Err(e) = self.workers[worker].send(ShardCmd::Batch { stream, events }) {
                send_err = Some(e);
                break;
            }
            if let Some(m) = &self.metrics {
                m.dispatched(worker, len);
            }
            sent.push((worker, map));
        }
        // Drain every dispatched worker — even on error — so the
        // persistent result channels never desync: a leftover result would
        // be merged into the *next* batch.
        let mut first_err = send_err;
        let mut merged: Vec<(Tag, ComplexEvent)> = Vec::new();
        for (worker, map) in sent {
            let (emitted, emitted_tags, result) =
                self.workers[worker].batch_rx.recv().unwrap_or_else(|_| {
                    let e = SaseError::engine("engine shard worker disconnected");
                    (Vec::new(), Vec::new(), Err(e))
                });
            if let Some(m) = &self.metrics {
                m.drained(worker);
            }
            if let Err(e) = result {
                self.poisoned |= e.to_string().contains(SHARD_PANIC_MSG);
                first_err.get_or_insert(e);
            }
            let table = &self.l2g[worker];
            for (mut tag, emission) in emitted_tags.into_iter().zip(emitted) {
                if let Some(map) = &map {
                    tag.input_index = map[tag.input_index as usize];
                }
                for hop in &mut tag.path {
                    hop.0 = table[hop.0 as usize];
                }
                merged.push((tag, emission));
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        match tags {
            Some(tags) => {
                for (tag, emission) in merged {
                    tags.push(tag);
                    out.push(emission);
                }
            }
            None => out.extend(merged.into_iter().map(|(_, emission)| emission)),
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// The sharded implementation of the unified processor surface: ingest
/// runs the router and the dispatch loop, and every other method delegates
/// to the inherent method of the same name, so a sharded
/// deployment is a drop-in replacement for a single [`Engine`] behind
/// `dyn EventProcessor` — including post-build registration, per-query
/// sinks, and snapshot/restore (one engine snapshot per shard).
impl EventProcessor for ShardedEngine {
    fn register(&mut self, name: &str, src: &str) -> CoreResult<()> {
        ShardedEngine::register(self, name, src)
    }

    fn check(&self, src: &str) -> Vec<analyze::Diagnostic> {
        ShardedEngine::check(self, src)
    }

    fn unregister(&mut self, name: &str) -> bool {
        ShardedEngine::unregister(self, name)
    }

    fn ingest(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> CoreResult<()> {
        let seq = self.batch_seq;
        self.batch_seq = self.batch_seq.wrapping_add(1);
        if self.poisoned {
            return Err(SaseError::engine(POISONED_MSG));
        }
        self.check_clock(stream, events)?;
        let span = self
            .tracer
            .begin(TraceKind::ShardDispatch, seq, events.len() as u64);
        let out_before = out.len();
        let subs = self.route(stream, events);
        let result = self.dispatch(stream, subs, out, tags);
        if let Some(span) = span {
            self.tracer.end(span, (out.len() - out_before) as u64);
        }
        result
    }

    fn query_names(&self) -> Vec<String> {
        self.names.clone()
    }

    fn stats(&self, name: &str) -> CoreResult<RuntimeStats> {
        ShardedEngine::stats(self, name)
    }

    fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        ShardedEngine::metrics_registry(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardedEngine::metrics(self)
    }

    fn explain(&self, name: &str) -> CoreResult<String> {
        ShardedEngine::explain(self, name)
    }

    fn query_text(&self, name: &str) -> CoreResult<String> {
        ShardedEngine::query_text(self, name)
    }

    fn add_sink(&mut self, name: &str, sink: Sink) -> CoreResult<()> {
        ShardedEngine::add_sink(self, name, sink)
    }

    fn schemas(&self) -> &SchemaRegistry {
        ShardedEngine::schemas(self)
    }

    fn snapshot(&self) -> SnapshotSet {
        ShardedEngine::snapshot(self)
    }

    fn restore(&mut self, snaps: &SnapshotSet) -> CoreResult<()> {
        ShardedEngine::restore(self, snaps)
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("mode", &self.sharding_mode())
            .field("shards", &self.shard_count())
            .field("queries", &self.names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use sase_core::value::{Value, ValueType};
    use sase_rfid::noise::NoiseModel;
    use sase_rfid::scenario::RetailScenario;
    use sase_rfid::sim::RfidSimulator;
    use sase_stream::CleaningConfig;

    /// One ingest call on the default stream, returning its emissions.
    fn batch(p: &mut dyn EventProcessor, events: &[Event]) -> CoreResult<Vec<ComplexEvent>> {
        let mut out = Vec::new();
        p.ingest(None, events, &mut out, None).map(|()| out)
    }

    fn reference_detections(scenario: &RetailScenario) -> Vec<String> {
        let mut reference = crate::SaseSystem::retail(NoiseModel::realistic(), 9, 40).unwrap();
        reference.register_demo_queries().unwrap();
        reference.run_scenario(scenario).unwrap();
        reference
            .detections()
            .iter()
            .map(|d| d.to_string())
            .collect()
    }

    #[test]
    fn sharded_pipelined_matches_single_threaded() {
        let cfg = CleaningConfig::retail_demo();
        let scenario = RetailScenario::build(&cfg, 42, 4, 2, 1);
        let expect = reference_detections(&scenario);

        // The reference's cleaning pipeline and host functions, without
        // the rest of the system.
        let (registry, functions, _db, mut pipeline) = crate::system::retail_parts(40).unwrap();
        let mut builder = ShardedEngineBuilder::with_functions(registry, functions);
        builder
            .register("shoplifting", queries::SHOPLIFTING)
            .unwrap();
        builder
            .register("location_change", queries::LOCATION_CHANGE)
            .unwrap();
        builder
            .register("archive_location", queries::ARCHIVE_LOCATION)
            .unwrap();
        let mut sharded = builder.build(3).unwrap();
        // location_change and archive_location share the stateful
        // `_updateLocation` built-in, so they are co-located; shoplifting
        // runs on its own shard.
        assert_eq!(
            sharded.shard_of("location_change"),
            sharded.shard_of("archive_location")
        );
        assert_ne!(
            sharded.shard_of("shoplifting"),
            sharded.shard_of("location_change")
        );

        // The same device stream (same sim seed and noise), one batch per
        // scan cycle, as `SaseSystem::tick` drives it.
        let mut sim = RfidSimulator::retail_demo(NoiseModel::realistic(), 9);
        let mut got = Vec::new();
        for tick in 0..scenario.duration {
            scenario.apply_tick(&mut sim, tick);
            let events = pipeline.process_tick(tick, &sim.tick()).unwrap();
            let detections = batch(&mut sharded, &events).unwrap();
            got.extend(detections.iter().map(|d| d.to_string()));
        }
        assert!(!expect.is_empty());
        assert_eq!(
            expect, got,
            "sharded deployment must agree with the single-threaded reference byte for byte"
        );
    }

    #[test]
    fn sharded_matches_single_engine_with_derivation_chains() {
        // Synthetic query set with an INTO/FROM chain plus independent
        // queries, compared against one engine running everything.
        let mk_registry = || {
            let reg = sase_core::event::retail_registry();
            reg.register(
                "moves",
                &[("tag", ValueType::Int), ("area", ValueType::Int)],
            )
            .unwrap();
            reg
        };
        let srcs: [(&str, &str); 5] = [
            (
                "producer",
                "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                 WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 100 \
                 RETURN y.TagId AS tag, y.AreaId AS area INTO Moves",
            ),
            ("mover", "FROM moves EVENT MOVES m RETURN m.tag AS t"),
            ("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag"),
            ("counters", "EVENT COUNTER_READING c RETURN c.TagId AS tag"),
            (
                "pairs",
                "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                 WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
            ),
        ];

        let single_reg = mk_registry();
        let mut single = Engine::new(single_reg.clone());
        for (name, src) in srcs {
            single.register(name, src).unwrap();
        }

        let sharded_reg = mk_registry();
        let mut builder = ShardedEngineBuilder::new(sharded_reg.clone());
        for (name, src) in srcs {
            builder.register(name, src).unwrap();
        }
        let mut sharded = builder.build(4).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        // The INTO chain is co-located.
        assert_eq!(sharded.shard_of("producer"), sharded.shard_of("mover"));

        let mk_events = |reg: &SchemaRegistry| -> Vec<Event> {
            let types = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"];
            (0u64..120)
                .map(|k| {
                    reg.build_event(
                        types[(k % 3) as usize],
                        k + 1,
                        vec![
                            Value::Int((k % 5) as i64),
                            Value::str("p"),
                            Value::Int(1 + (k % 3) as i64),
                        ],
                    )
                    .unwrap()
                })
                .collect()
        };

        let render = |v: &[ComplexEvent]| v.iter().map(|d| d.to_string()).collect::<Vec<_>>();
        // Feed in several batches to exercise cross-batch state.
        let single_events = mk_events(&single_reg);
        let sharded_events = mk_events(&sharded_reg);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for (se, he) in single_events.chunks(17).zip(sharded_events.chunks(17)) {
            expect.extend(single.process_batch(se).unwrap());
            got.extend(batch(&mut sharded, he).unwrap());
        }
        assert!(!expect.is_empty());
        assert_eq!(render(&expect), render(&got));
    }

    /// A worker's evaluation error propagates to its query's counter, not
    /// to the caller, and leaves no stale result behind.
    #[test]
    fn sharded_error_propagates() {
        let registry = sase_core::event::retail_registry();
        let functions = FunctionRegistry::with_stdlib();
        functions.register_fn("_boom", Some(1), |_| {
            Err(SaseError::Function {
                name: "_boom".into(),
                message: "injected".into(),
            })
        });
        let mut builder = ShardedEngineBuilder::with_functions(registry.clone(), functions);
        builder
            .register("ok", "EVENT EXIT_READING z RETURN z.TagId AS tag")
            .unwrap();
        builder
            .register("bad", "EVENT SHELF_READING x RETURN _boom(x.TagId)")
            .unwrap();
        let mut sharded = builder.build(2).unwrap();
        let e = registry
            .build_event(
                "SHELF_READING",
                1,
                vec![Value::Int(1), Value::str("p"), Value::Int(1)],
            )
            .unwrap();
        assert!(batch(&mut sharded, &[e]).unwrap().is_empty());
        assert_eq!(sharded.stats("bad").unwrap().eval_errors, 1);

        // The next batch merges only its own results, and the deployment
        // stays snapshotable.
        let exit = registry
            .build_event(
                "EXIT_READING",
                2,
                vec![Value::Int(9), Value::str("p"), Value::Int(4)],
            )
            .unwrap();
        let out = batch(&mut sharded, &[exit]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value("tag"), Some(&Value::Int(9)));
        assert_eq!(sharded.snapshot().len(), 2);
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut builder = ShardedEngineBuilder::new(sase_core::event::retail_registry());
        builder.register("q", "EVENT SHELF_READING x").unwrap();
        assert!(builder.register("q", "EVENT EXIT_READING x").is_err());
    }

    #[test]
    fn sharded_engine_matches_engine_surface() {
        // Parity regression: unregister, explain, query_text, and
        // per-query sinks — the surfaces the sharded deployment used to
        // silently lack — behave exactly like a single engine's.
        use std::sync::atomic::{AtomicUsize, Ordering};

        let registry = sase_core::event::retail_registry();
        let mut builder = ShardedEngineBuilder::new(registry.clone());
        builder
            .register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag")
            .unwrap();
        builder
            .register("shelves", "EVENT SHELF_READING x RETURN x.TagId AS tag")
            .unwrap();
        let mut sharded = builder.build(2).unwrap();

        assert!(sharded.explain("exits").unwrap().contains("EXIT_READING"));
        assert!(sharded
            .query_text("shelves")
            .unwrap()
            .contains("SHELF_READING"));
        assert!(sharded.explain("missing").is_err());

        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = hits.clone();
        sharded
            .add_sink(
                "exits",
                Box::new(move |_ce| {
                    h2.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        let exit = registry
            .build_event(
                "EXIT_READING",
                1,
                vec![Value::Int(7), Value::str("p"), Value::Int(4)],
            )
            .unwrap();
        batch(&mut sharded, std::slice::from_ref(&exit)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "sink fired on its shard");

        // Post-build registration starts a new co-location component on
        // the next shard round-robin and is fully routable; unregister
        // renumbers the merge tables.
        sharded
            .register("counters", "EVENT COUNTER_READING c RETURN c.TagId AS t")
            .unwrap();
        assert!(sharded
            .register("counters", "EVENT SHELF_READING x")
            .is_err());
        assert!(sharded.unregister("exits"));
        assert!(!sharded.unregister("exits"));
        assert_eq!(sharded.query_names(), ["shelves", "counters"]);
        let counter = registry
            .build_event(
                "COUNTER_READING",
                2,
                vec![Value::Int(7), Value::str("p"), Value::Int(3)],
            )
            .unwrap();
        let out = batch(&mut sharded, &[exit, counter]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query.as_ref(), "counters");
        assert_eq!(sharded.stats("counters").unwrap().matches_emitted, 1);
    }

    #[test]
    fn post_build_register_respects_colocation() {
        // A late consumer of a derived stream must land on its producer's
        // shard; a late query linked to two different shards is rejected.
        let registry = sase_core::event::retail_registry();
        registry
            .register(
                "moves",
                &[("tag", ValueType::Int), ("area", ValueType::Int)],
            )
            .unwrap();
        let mut builder = ShardedEngineBuilder::new(registry.clone());
        builder
            .register(
                "producer",
                "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                 WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 100 \
                 RETURN y.TagId AS tag, y.AreaId AS area INTO Moves",
            )
            .unwrap();
        builder
            .register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag")
            .unwrap();
        let mut sharded = builder.build(2).unwrap();
        assert_ne!(sharded.shard_of("producer"), sharded.shard_of("exits"));

        sharded
            .register("mover", "FROM moves EVENT MOVES m RETURN m.tag AS t")
            .unwrap();
        assert_eq!(
            sharded.shard_of("mover"),
            sharded.shard_of("producer"),
            "derived-stream consumer is co-located with its producer"
        );

        // The derived chain actually fires across the worker boundary.
        let mk = |ts: u64, area: i64| {
            registry
                .build_event(
                    "SHELF_READING",
                    ts,
                    vec![Value::Int(1), Value::str("p"), Value::Int(area)],
                )
                .unwrap()
        };
        let out = batch(&mut sharded, &[mk(1, 1), mk(2, 2)]).unwrap();
        assert_eq!(out.len(), 2, "producer + mover: {out:?}");

        // A second producer into `moves` must also co-locate.
        sharded
            .register(
                "producer2",
                "EVENT EXIT_READING z RETURN z.TagId AS tag, z.AreaId AS area INTO Moves",
            )
            .unwrap();
        assert_eq!(sharded.shard_of("producer2"), sharded.shard_of("producer"));
    }

    #[test]
    fn by_partition_key_matches_single_engine() {
        // The data-parallel deployment reproduces the single-engine output
        // byte for byte, with distributed and pinned queries mixed.
        let registry = sase_core::event::retail_registry();
        let srcs: [(&str, &str); 3] = [
            (
                "pairs",
                "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                 WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
            ),
            ("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag"),
            (
                "same_shelf",
                "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                 WHERE [TagId] WITHIN 40 RETURN y.TagId AS tag",
            ),
        ];
        let mut single = Engine::new(registry.clone());
        let mut builder = ShardedEngineBuilder::new(registry.clone());
        builder.set_sharding(ShardingMode::ByPartitionKey);
        for (name, src) in srcs {
            single.register(name, src).unwrap();
            builder.register(name, src).unwrap();
        }
        let mut sharded = builder.build(4).unwrap();
        assert_eq!(sharded.sharding_mode(), ShardingMode::ByPartitionKey);
        assert_eq!(sharded.shard_count(), 5, "4 data workers + 1 pinned");
        // Both SEQ queries distribute on TagId; `exits` has no partition
        // key at all and is pinned.
        assert_eq!(sharded.shard_of("pairs"), None);
        assert_eq!(sharded.shard_of("same_shelf"), None);
        assert_eq!(sharded.shard_of("exits"), Some(4));

        let types = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"];
        let events: Vec<Event> = (0u64..150)
            .map(|k| {
                registry
                    .build_event(
                        types[(k % 3) as usize],
                        k + 1,
                        vec![
                            Value::Int((k % 7) as i64),
                            Value::str("p"),
                            Value::Int(1 + (k % 3) as i64),
                        ],
                    )
                    .unwrap()
            })
            .collect();
        let mut expect = Vec::new();
        let mut got = Vec::new();
        let tagged = |p: &mut dyn EventProcessor, chunk: &[Event], rendered: &mut Vec<String>| {
            let (mut out, mut tags) = (Vec::new(), Vec::new());
            p.ingest(None, chunk, &mut out, Some(&mut tags)).unwrap();
            rendered.extend(tags.iter().zip(&out).map(|(t, e)| format!("{t:?}|{e}")));
        };
        for chunk in events.chunks(13) {
            tagged(&mut single, chunk, &mut expect);
            tagged(&mut sharded, chunk, &mut got);
        }
        assert!(!expect.is_empty());
        assert_eq!(expect, got);
        // Distributed stats are summed across data workers and agree with
        // the single engine on the exact counters.
        assert_eq!(
            sharded.stats("pairs").unwrap().matches_emitted,
            single.stats("pairs").unwrap().matches_emitted
        );
    }

    /// Both sharding modes, for tests that hold in either.
    const MODES: [ShardingMode; 2] = [ShardingMode::ByQuery, ShardingMode::ByPartitionKey];

    #[test]
    fn worker_panic_poisons_deployment() {
        // A worker panic mid-batch must surface as a typed error — not a
        // hang or a silent drop — and every subsequent ingest must be
        // rejected deterministically, whatever the sharding mode.
        for mode in MODES {
            let registry = sase_core::event::retail_registry();
            let functions = FunctionRegistry::with_stdlib();
            functions.register_fn("_detonate", Some(1), |args| {
                if args[0] == Value::Int(13) {
                    panic!("injected detonation");
                }
                Ok(args[0].clone())
            });
            let mut builder = ShardedEngineBuilder::with_functions(registry.clone(), functions);
            builder.set_sharding(mode);
            builder
                .register(
                    "pairs",
                    "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                     WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
                )
                .unwrap();
            builder
                .register(
                    "boomy",
                    "EVENT SHELF_READING x RETURN _detonate(x.TagId) AS v",
                )
                .unwrap();
            let mut sharded = builder.build(2).unwrap();
            if mode == ShardingMode::ByPartitionKey {
                // The host-function caller is pinned; the equivalence
                // query distributes.
                assert_eq!(sharded.shard_of("pairs"), None);
                assert_eq!(sharded.shard_of("boomy"), Some(2));
            }

            let mk = |ts: u64, tag: i64| {
                registry
                    .build_event(
                        "SHELF_READING",
                        ts,
                        vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
                    )
                    .unwrap()
            };
            assert_eq!(batch(&mut sharded, &[mk(1, 1)]).unwrap().len(), 1);

            let err = batch(&mut sharded, &[mk(2, 13)]).unwrap_err();
            assert!(
                err.to_string().contains("panicked"),
                "{mode:?}: panic must surface as a typed error: {err}"
            );

            // Deterministic rejection from here on: identical message, twice.
            let e1 = batch(&mut sharded, &[mk(3, 1)]).unwrap_err().to_string();
            let e2 = batch(&mut sharded, &[mk(4, 2)]).unwrap_err().to_string();
            assert!(e1.contains("poisoned"), "{mode:?}: got: {e1}");
            assert_eq!(e1, e2, "{mode:?}: rejection must be deterministic");
            // The workers themselves survive (panic isolation): the
            // poisoned deployment is still snapshotable for post-mortem
            // inspection.
            assert_eq!(sharded.snapshot().len(), sharded.shard_count());
        }
    }

    #[test]
    fn error_does_not_poison() {
        // A failing host function mid-batch drops only its own match and
        // counts, whatever the sharding mode: the batch succeeds and the
        // deployment stays usable.
        for mode in MODES {
            let registry = sase_core::event::retail_registry();
            let functions = FunctionRegistry::with_stdlib();
            functions.register_fn("_faulty", Some(1), |args| {
                if args[0] == Value::Int(13) {
                    return Err(SaseError::Function {
                        name: "_faulty".into(),
                        message: "injected".into(),
                    });
                }
                Ok(args[0].clone())
            });
            let mut builder = ShardedEngineBuilder::with_functions(registry.clone(), functions);
            builder.set_sharding(mode);
            builder
                .register("q", "EVENT SHELF_READING x RETURN _faulty(x.TagId) AS v")
                .unwrap();
            let mut sharded = builder.build(2).unwrap();
            let mk = |ts: u64, tag: i64| {
                registry
                    .build_event(
                        "SHELF_READING",
                        ts,
                        vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
                    )
                    .unwrap()
            };
            let out = batch(&mut sharded, &[mk(1, 5), mk(2, 13), mk(3, 6)]).unwrap();
            let kept: Vec<_> = out.iter().map(|e| e.value("v").cloned()).collect();
            assert_eq!(kept, [Some(Value::Int(5)), Some(Value::Int(6))], "{mode:?}");
            assert_eq!(sharded.stats("q").unwrap().eval_errors, 1, "{mode:?}");
            let out = batch(&mut sharded, &[mk(4, 7)]).unwrap();
            assert_eq!(out.len(), 1, "{mode:?}");
        }
    }

    #[test]
    fn router_rejects_out_of_order_like_single_engine() {
        // The router-level clocks reproduce the single engine's
        // out-of-order rejection even when the regressing event would have
        // reached a worker that never saw the earlier timestamp, and, like
        // the engine, reject the whole batch before dispatch.
        const PAIRS: &str = "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                             WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag";
        for mode in MODES {
            let registry = sase_core::event::retail_registry();
            let mut single = Engine::new(registry.clone());
            single.register("pairs", PAIRS).unwrap();
            let mut builder = ShardedEngineBuilder::new(registry.clone());
            builder.set_sharding(mode);
            builder.register("pairs", PAIRS).unwrap();
            let mut sharded = builder.build(4).unwrap();
            let mk = |ty: &str, ts: u64, tag: i64| {
                registry
                    .build_event(
                        ty,
                        ts,
                        vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
                    )
                    .unwrap()
            };
            let rejected = vec![mk("SHELF_READING", 10, 1), mk("SHELF_READING", 5, 2)];
            let e1 = batch(&mut single, &rejected).unwrap_err().to_string();
            let e2 = batch(&mut sharded, &rejected).unwrap_err().to_string();
            assert!(e1.contains("out-of-order"), "got: {e1}");
            assert_eq!(
                e1, e2,
                "{mode:?}: clock rejection must match the single engine"
            );
            // The rejected batch changed nothing: the clock did not move to
            // 10, and its SHELF_READING of tag 1 pairs with no exit.
            let next = [
                mk("SHELF_READING", 6, 3),
                mk("EXIT_READING", 12, 1),
                mk("EXIT_READING", 13, 3),
            ];
            let render = |v: Vec<ComplexEvent>| v.iter().map(|e| e.to_string()).collect::<Vec<_>>();
            let want = render(batch(&mut single, &next).unwrap());
            assert_eq!(want.len(), 1, "only tag 3 pairs: {want:?}");
            assert_eq!(
                render(batch(&mut sharded, &next).unwrap()),
                want,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn by_query_late_shard_rejects_what_single_engine_rejects() {
        // A ByQuery shard idle while the stream clock advanced, then given
        // a query, must still reject what the single engine rejects: the
        // router's clocks saw every event, the idle worker's own did not.
        const Q0: &str = "EVENT EXIT_READING z RETURN z.TagId AS tag";
        const Q1: &str = "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                          WHERE a.TagId = b.TagId WITHIN 100 RETURN a.TagId AS tag";
        let registry = sase_core::event::retail_registry();
        let script = |p: &mut dyn EventProcessor| -> Vec<String> {
            let mk = |ty: &str, ts: u64| {
                registry
                    .build_event(ty, ts, vec![Value::Int(1), Value::str("p"), Value::Int(1)])
                    .unwrap()
            };
            let mut out = Vec::new();
            let mut feed = |p: &mut dyn EventProcessor, event: Event| match batch(p, &[event]) {
                Ok(detections) => out.extend(detections.iter().map(|d| d.to_string())),
                Err(e) => out.push(format!("rejected: {e}")),
            };
            feed(p, mk("EXIT_READING", 10));
            p.register("q1", Q1).unwrap();
            feed(p, mk("SHELF_READING", 5));
            feed(p, mk("EXIT_READING", 20));
            out
        };

        let mut single = Engine::new(registry.clone());
        single.register("q0", Q0).unwrap();
        let expect = script(&mut single);
        assert!(
            expect
                .iter()
                .any(|l| l.starts_with("rejected:") && l.contains("out-of-order")),
            "the single engine rejects SHELF@5: {expect:?}"
        );

        let mut builder = ShardedEngineBuilder::new(registry.clone());
        builder.register("q0", Q0).unwrap();
        let mut sharded = builder.build(2).unwrap();
        let got = script(&mut sharded);
        assert_eq!(
            sharded.shard_of("q1"),
            Some(1),
            "q1 lands on the idle shard"
        );
        assert_eq!(expect, got);
    }

    #[test]
    fn post_build_register_rejects_cross_shard_colocation() {
        // Two queries pinned to different shards by distinct stateful host
        // functions; a late query calling both cannot be placed anywhere.
        let registry = sase_core::event::retail_registry();
        let functions = FunctionRegistry::with_stdlib();
        functions.register_fn("_fa", Some(1), |args| Ok(args[0].clone()));
        functions.register_fn("_fb", Some(1), |args| Ok(args[0].clone()));
        let mut builder = ShardedEngineBuilder::with_functions(registry, functions);
        builder
            .register("qa", "EVENT SHELF_READING x RETURN _fa(x.TagId) AS a")
            .unwrap();
        builder
            .register("qb", "EVENT EXIT_READING z RETURN _fb(z.TagId) AS b")
            .unwrap();
        let mut sharded = builder.build(2).unwrap();
        assert_ne!(sharded.shard_of("qa"), sharded.shard_of("qb"));

        let err = sharded
            .register(
                "both",
                "EVENT COUNTER_READING c RETURN _fa(c.TagId) AS a, _fb(c.TagId) AS b",
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("co-located"),
            "placement conflict must be explicit: {err}"
        );
        // The failed registration left no trace.
        assert_eq!(sharded.query_names(), ["qa", "qb"]);
        // A single-function late query still places on its pinned shard.
        sharded
            .register("more_a", "EVENT COUNTER_READING c RETURN _fa(c.TagId) AS a")
            .unwrap();
        assert_eq!(sharded.shard_of("more_a"), sharded.shard_of("qa"));
    }
}
