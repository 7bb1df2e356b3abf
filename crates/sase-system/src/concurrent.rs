//! The sharded complex event processor.
//!
//! A [`ShardedEngine`] spreads the work across N engine workers, each an
//! [`Engine`] on its own thread fed through a command channel: by query
//! set or by partition key ([`ShardingMode`]). It implements the unified
//! [`EventProcessor`] surface, so it stands wherever a single [`Engine`]
//! does, the durable wrapper included. Each query's state is independent,
//! so sharding by query is semantics-preserving; the shards' emissions are
//! merged on their provenance tags ([`sase_core::engine::Emission`]) so a
//! sharded run reproduces the single-engine output sequence byte for byte,
//! which the tests assert against the single-threaded
//! [`crate::SaseSystem`].
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::thread;

use crossbeam::channel::{bounded, Receiver, Sender};

use sase_core::analyze;
use sase_core::engine::{Emission, Engine, RoutingMode, Sink};
use sase_core::error::{Result as CoreResult, SaseError};
use sase_core::event::{Event, SchemaRegistry};
use sase_core::functions::FunctionRegistry;
use sase_core::hash::FxHasher;
use sase_core::lang::{parse_query, Query};
use sase_core::output::ComplexEvent;
use sase_core::plan::{Planner, QueryPlan, TypeKeyAccess};
use sase_core::processor::EventProcessor;
use sase_core::runtime::RuntimeStats;
use sase_core::snapshot::SnapshotSet;
use sase_core::time::{TimeScale, Timestamp};
use sase_obs::{Counter, Gauge, MetricValue, MetricsRegistry, MetricsSnapshot, TraceKind, Tracer};

/// Wrap a planner failure in a [`SaseError::Registration`], attaching the
/// static analyzer's lint code when it can pin the failure to one.
fn registration_error(
    name: &str,
    query: &Query,
    registry: &SchemaRegistry,
    functions: &FunctionRegistry,
    time_scale: Option<TimeScale>,
    err: SaseError,
) -> SaseError {
    let code = analyze::analyze_with(query, registry, functions, time_scale.unwrap_or_default())
        .into_iter()
        .find(|d| d.severity == analyze::Severity::Error)
        .map(|d| d.code.to_string());
    SaseError::registration(name, code, err.to_string())
}

/// The slot a diagnostic severity counts into (`sase_diagnostics_emitted_total`).
fn severity_index(s: analyze::Severity) -> usize {
    match s {
        analyze::Severity::Info => 0,
        analyze::Severity::Warning => 1,
        analyze::Severity::Error => 2,
    }
}

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
    /// [`severity_index`].
    diagnostics: [Counter; 3],
}

impl ShardMetrics {
    fn new(registry: MetricsRegistry, shards: usize) -> ShardMetrics {
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
        let diagnostics = [
            registry.counter("sase_diagnostics_emitted_total", &[("severity", "info")]),
            registry.counter("sase_diagnostics_emitted_total", &[("severity", "warning")]),
            registry.counter("sase_diagnostics_emitted_total", &[("severity", "error")]),
        ];
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
/// for it to latch a data-parallel deployment poisoned.
const SHARD_PANIC_MSG: &str = "engine shard panicked";

/// The deterministic rejection every ingest call gets after a worker panic
/// in [`ShardingMode::ByPartitionKey`]: a panicking worker may have lost
/// arbitrary in-flight state, so byte-identity with the reference can no
/// longer be promised.
const POISONED_MSG: &str = "sharded deployment poisoned: an engine shard panicked mid-batch; \
                            rebuild the deployment and restore from a checkpoint";

/// How a [`ShardedEngine`] splits work across its engine workers.
///
/// * [`ShardingMode::ByQuery`] (query-parallel, the default) partitions
///   the *query set*: every worker sees every event but runs only its
///   queries. Scales with the number of independent query components;
///   each worker still pays the full per-event routing loop.
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
    time_scale: Option<TimeScale>,
    routing: Option<RoutingMode>,
    mode: ShardingMode,
    metrics: bool,
    /// Diagnostics counted at builder registrations (by
    /// [`severity_index`]), transferred into the deployment registry at
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
            time_scale: None,
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
        self.time_scale = Some(scale);
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
        let query =
            parse_query(src).map_err(|e| SaseError::registration(name, None, e.to_string()))?;
        if self.metrics {
            // Mirror `Engine::register`: every diagnostic the static
            // analyzer raises at registration is counted by severity (the
            // counts land in the deployment registry at `build`).
            for d in analyze::analyze_with(
                &query,
                &self.registry,
                &self.functions,
                self.time_scale.unwrap_or_default(),
            ) {
                self.diag_counts[severity_index(d.severity)] += 1;
            }
        }
        let mut planner = Planner::new(self.registry.clone(), self.functions.clone());
        if let Some(scale) = self.time_scale {
            planner = planner.with_time_scale(scale);
        }
        let plan = planner.plan(&query).map_err(|e| {
            registration_error(
                name,
                &query,
                &self.registry,
                &self.functions,
                self.time_scale,
                e,
            )
        })?;
        self.queries.push((name.to_string(), plan));
        Ok(())
    }

    /// Partition the registered queries across `shards` engine workers and
    /// instantiate the deployment. A deployment may be built with fewer
    /// queries than shards (even with none): later
    /// [`ShardedEngine::register`] calls place new queries on the
    /// least-loaded compatible shard.
    pub fn build(self, shards: usize) -> CoreResult<ShardedEngine> {
        if self.mode == ShardingMode::ByPartitionKey {
            return self.build_partitioned(shards);
        }
        let n_queries = self.queries.len();
        // Union-find over query indices.
        let mut parent: Vec<usize> = (0..n_queries).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }

        // Rule 1: producers of a stream with each other and with its
        // consumers.
        let mut producers: HashMap<String, Vec<usize>> = HashMap::new();
        let mut consumers: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, (_, plan)) in self.queries.iter().enumerate() {
            if let Some(into) = &plan.return_plan.into {
                producers
                    .entry(into.to_ascii_lowercase())
                    .or_default()
                    .push(i);
            }
            if let Some(from) = &plan.query.from {
                consumers
                    .entry(from.to_ascii_lowercase())
                    .or_default()
                    .push(i);
            }
        }
        for (stream, prod) in &producers {
            let mut members = prod.clone();
            if let Some(cons) = consumers.get(stream) {
                members.extend_from_slice(cons);
            }
            for w in members.windows(2) {
                union(&mut parent, w[0], w[1]);
            }
        }

        // Rule 2: queries sharing a non-stdlib function.
        let mut by_function: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, (_, plan)) in self.queries.iter().enumerate() {
            for f in plan.query.called_functions() {
                if !STDLIB_FUNCTIONS.contains(&f.as_str()) {
                    by_function.entry(f).or_default().push(i);
                }
            }
        }
        for members in by_function.values() {
            for w in members.windows(2) {
                union(&mut parent, w[0], w[1]);
            }
        }

        // Components in first-appearance order, assigned round-robin.
        let shard_count = shards.max(1);
        let mut component_of: HashMap<usize, usize> = HashMap::new();
        let assignment: Vec<usize> = (0..n_queries)
            .map(|i| {
                let root = find(&mut parent, i);
                let next = component_of.len();
                *component_of.entry(root).or_insert(next) % shard_count
            })
            .collect();

        // Instantiate shards; queries installed in global registration
        // order so every shard's local order is consistent with it.
        let mut shards_vec: Vec<Engine> = (0..shard_count)
            .map(|_| {
                let mut e = Engine::with_functions(self.registry.clone(), self.functions.clone());
                if let Some(scale) = self.time_scale {
                    e.set_time_scale(scale);
                }
                if let Some(mode) = self.routing {
                    e.set_routing(mode);
                }
                if self.metrics {
                    // Worker-local registry: recording stays uncontended;
                    // `ShardedEngine::metrics` merges the workers' views.
                    e.enable_metrics(&MetricsRegistry::new());
                }
                e
            })
            .collect();
        let mut local_to_global: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        let mut names = Vec::with_capacity(n_queries);
        let mut meta = Vec::with_capacity(n_queries);
        for (global, (name, plan)) in self.queries.into_iter().enumerate() {
            let s = assignment[global];
            meta.push(QueryMeta::of(&plan));
            shards_vec[s].install(&name, plan)?;
            local_to_global[s].push(global as u32);
            names.push(name);
        }

        // A single shard runs inline (no worker thread, no tagging/merge
        // overhead); multi-shard deployments get one persistent worker
        // thread per shard.
        let (inline, workers) = if shards_vec.len() == 1 {
            (Some(shards_vec.pop().expect("one shard")), Vec::new())
        } else {
            (
                None,
                shards_vec.into_iter().map(ShardWorker::spawn).collect(),
            )
        };

        Ok(ShardedEngine {
            inline,
            workers,
            registry: self.registry,
            functions: self.functions,
            time_scale: self.time_scale,
            local_to_global,
            names,
            meta,
            components: component_of.len(),
            partition: None,
            metrics: Self::deployment_metrics(self.metrics, shard_count, self.diag_counts),
            tracer: Tracer::disabled(),
            batch_seq: 0,
        })
    }

    /// Build the deployment-level [`ShardMetrics`] (when enabled),
    /// seeding the diagnostics counter with the builder-time counts.
    fn deployment_metrics(on: bool, shards: usize, diag_counts: [u64; 3]) -> Option<ShardMetrics> {
        if !on {
            return None;
        }
        let m = ShardMetrics::new(MetricsRegistry::new(), shards);
        for (slot, n) in m.diagnostics.iter().zip(diag_counts) {
            slot.add(n);
        }
        Some(m)
    }

    /// Instantiate a [`ShardingMode::ByPartitionKey`] deployment: `shards`
    /// data workers plus one designated *pinned* worker. Distributable
    /// queries (see [`PartitionState::claim`]) are installed on **every**
    /// data worker; everything else goes to the pinned worker, which
    /// receives the whole stream.
    fn build_partitioned(self, shards: usize) -> CoreResult<ShardedEngine> {
        let data = shards.max(1);
        let mk = |registry: &SchemaRegistry, functions: &FunctionRegistry| {
            let mut e = Engine::with_functions(registry.clone(), functions.clone());
            if let Some(scale) = self.time_scale {
                e.set_time_scale(scale);
            }
            if let Some(mode) = self.routing {
                e.set_routing(mode);
            }
            if self.metrics {
                e.enable_metrics(&MetricsRegistry::new());
            }
            e
        };
        let mut engines: Vec<Engine> = (0..data + 1)
            .map(|_| mk(&self.registry, &self.functions))
            .collect();
        let mut st = PartitionState {
            data,
            claims: Vec::new(),
            distributed: Vec::new(),
            data_l2g: Vec::new(),
            pinned_l2g: Vec::new(),
            clocks: HashMap::new(),
            poisoned: false,
        };
        let mut names = Vec::with_capacity(self.queries.len());
        let mut meta = Vec::with_capacity(self.queries.len());
        for (global, (name, plan)) in self.queries.into_iter().enumerate() {
            let m = QueryMeta::of(&plan);
            let dist = st.claim(&m, &plan);
            if dist {
                for e in &mut engines[..data] {
                    e.install(&name, plan.clone())?;
                }
                st.data_l2g.push(global as u32);
            } else {
                engines[data].install(&name, plan)?;
                st.pinned_l2g.push(global as u32);
            }
            st.distributed.push(dist);
            names.push(name);
            meta.push(m);
        }
        Ok(ShardedEngine {
            inline: None,
            workers: engines.into_iter().map(ShardWorker::spawn).collect(),
            registry: self.registry,
            functions: self.functions,
            time_scale: self.time_scale,
            local_to_global: Vec::new(),
            names,
            meta,
            components: 0,
            partition: Some(Box::new(st)),
            // `data + 1` shards: the pinned worker is the last index.
            metrics: Self::deployment_metrics(self.metrics, data + 1, self.diag_counts),
            tracer: Tracer::disabled(),
            batch_seq: 0,
        })
    }
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
}

/// Router state of a [`ShardingMode::ByPartitionKey`] deployment.
///
/// Workers `0..data` are *data* workers, each running every distributable
/// query over its hash-slice of the stream; worker `data` is the *pinned*
/// worker running everything else over the whole stream.
struct PartitionState {
    /// Number of data workers (the pinned worker is at index `data`).
    data: usize,
    /// Per event type (indexed by `EventTypeId.0`): the accessor that
    /// extracts the routing key from events of that type. **Sticky**: a
    /// claim survives unregistering the query that made it, so replaying
    /// the same registration sequence after a crash reproduces the same
    /// event → worker routing (the property restore depends on). A query
    /// re-registered after an unregister may therefore end up pinned where
    /// a fresh build would distribute it.
    claims: Vec<Option<TypeKeyAccess>>,
    /// Per query (global registration order): distributed or pinned.
    distributed: Vec<bool>,
    /// Local → global query-index tables for emission remapping: all data
    /// workers share one table (they run the same queries in the same
    /// local order); the pinned worker has its own.
    data_l2g: Vec<u32>,
    pinned_l2g: Vec<u32>,
    /// Router-level per-stream monotonicity clocks, mirroring
    /// [`Engine`]'s: a data worker only sees a slice of the stream, so
    /// its own clocks cannot catch every regression the single-engine
    /// reference would reject.
    clocks: HashMap<Option<String>, Timestamp>,
    /// Latched after a worker panic: every subsequent ingest is rejected
    /// with [`POISONED_MSG`] (a panicking worker may have lost in-flight
    /// state, so byte-identity can no longer be promised).
    poisoned: bool,
}

impl PartitionState {
    /// Decide a query's disposition and commit its routing-key claims.
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
        'candidate: for rk in &plan.routing_keys {
            if rk.per_type.is_empty() {
                continue;
            }
            for tk in &rk.per_type {
                if let Some(Some(existing)) = self.claims.get(tk.type_id.0 as usize) {
                    if existing.attr_lc != tk.attr_lc {
                        continue 'candidate;
                    }
                }
            }
            for tk in &rk.per_type {
                let idx = tk.type_id.0 as usize;
                if idx >= self.claims.len() {
                    self.claims.resize_with(idx + 1, || None);
                }
                if self.claims[idx].is_none() {
                    self.claims[idx] = Some(tk.clone());
                }
            }
            return true;
        }
        false
    }
}

/// Field-wise sum of two [`RuntimeStats`] (for aggregating a distributed
/// query's counters across data workers).
fn add_stats(total: &mut RuntimeStats, s: &RuntimeStats) {
    total.events_processed += s.events_processed;
    total.instances_appended += s.instances_appended;
    total.instances_pruned += s.instances_pruned;
    total.sequences_constructed += s.sequences_constructed;
    total.construction_filter_rejects += s.construction_filter_rejects;
    total.dropped_by_window += s.dropped_by_window;
    total.dropped_by_negation += s.dropped_by_negation;
    total.negation_candidates_buffered += s.negation_candidates_buffered;
    total.matches_emitted += s.matches_emitted;
    // Peaks on different workers need not coincide in time; the sum is an
    // upper bound on the deployment-wide peak.
    total.partial_runs_peak += s.partial_runs_peak;
    total.partitions += s.partitions;
}

/// Capacity of each shard worker's command and result channels.
const SHARD_QUEUE_CAPACITY: usize = 64;

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
    batch_rx: Receiver<CoreResult<Vec<Emission>>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ShardWorker {
    fn spawn(mut engine: Engine) -> ShardWorker {
        let (cmd_tx, cmd_rx) = bounded::<ShardCmd>(SHARD_QUEUE_CAPACITY);
        let (batch_tx, batch_rx) = bounded::<CoreResult<Vec<Emission>>>(SHARD_QUEUE_CAPACITY);
        let handle = thread::spawn(move || {
            for cmd in cmd_rx {
                match cmd {
                    ShardCmd::Batch { stream, events } => {
                        // Panic isolation: a panicking shard engine becomes
                        // an error result, exactly like the former scoped
                        // per-batch threads; the worker (and so snapshot /
                        // stats / restore) stays alive.
                        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            engine.process_batch_tagged(stream.as_deref(), &events)
                        }))
                        .unwrap_or_else(|_| Err(SaseError::engine(SHARD_PANIC_MSG)));
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

/// N engine workers over a partition of the registered queries.
///
/// [`ShardedEngine::process_batch`] broadcasts each batch to every shard in
/// parallel, collects provenance-tagged emissions
/// ([`sase_core::engine::Emission`]), remaps their per-shard query indices
/// to the global registration order, and merges on
/// [`Emission::order_key`] — reproducing, deterministically and byte for
/// byte, the output sequence of one engine running all the queries.
///
/// Each shard's engine lives on a **persistent worker thread** fed through
/// a command channel (`ShardWorker`); a batch costs two channel hops per
/// shard instead of a thread spawn/join. A deployment built with one shard
/// keeps its engine inline and pays no thread or merge overhead at all.
pub struct ShardedEngine {
    /// The single-shard fast path: the engine runs on the caller's thread.
    inline: Option<Engine>,
    /// Multi-shard deployments: one persistent worker per shard.
    workers: Vec<ShardWorker>,
    /// The shared schema registry (every shard holds a handle to it).
    registry: SchemaRegistry,
    /// The shared function registry, kept so queries can be planned (and
    /// placed) after the deployment is built.
    functions: FunctionRegistry,
    /// Time scale for WITHIN conversion in post-build registrations.
    time_scale: Option<TimeScale>,
    /// Per shard: local query index -> global registration index.
    local_to_global: Vec<Vec<u32>>,
    /// Query names in global registration order.
    names: Vec<String>,
    /// Co-location facts per query, aligned with `names`.
    meta: Vec<QueryMeta>,
    /// Co-location components created so far (monotone): post-build
    /// registrations of unconstrained queries continue the builder's
    /// round-robin component → shard assignment, so replaying the same
    /// registration sequence always reproduces the same partitioning
    /// (the property snapshot/restore depends on).
    components: usize,
    /// Data-parallel router state; `Some` iff the deployment was built
    /// with [`ShardingMode::ByPartitionKey`].
    partition: Option<Box<PartitionState>>,
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
        if self.inline.is_some() {
            1
        } else {
            self.workers.len()
        }
    }

    /// Query names in global registration order.
    pub fn query_names(&self) -> &[String] {
        &self.names
    }

    /// Register a continuous query on a live deployment.
    ///
    /// Placement follows the builder's co-location rules: a query that
    /// consumes a stream some registered query produces (`FROM` ↔ `INTO`),
    /// produces a stream another query produces or consumes, or shares a
    /// non-stdlib host function with a registered query is placed on that
    /// query's shard. An unconstrained query starts a new co-location
    /// component and continues the builder's round-robin component →
    /// shard assignment, so replaying the same registration sequence
    /// (build-time and post-build calls, in order) always reproduces the
    /// same partitioning — which is what lets a checkpointed deployment
    /// be rebuilt and restored. If the rules demand co-location with
    /// queries on *different* shards, registration fails — rebuild the
    /// deployment through [`ShardedEngineBuilder`] to repartition.
    pub fn register(&mut self, name: &str, src: &str) -> CoreResult<()> {
        if self.names.iter().any(|n| n == name) {
            return Err(SaseError::registration(
                name,
                None,
                "a query with this name is already registered",
            ));
        }
        let query =
            parse_query(src).map_err(|e| SaseError::registration(name, None, e.to_string()))?;
        if let Some(m) = &self.metrics {
            // Post-build registrations count their diagnostics straight
            // into the deployment registry (the builder path accumulates
            // and transfers at `build`).
            for d in analyze::analyze_with(
                &query,
                &self.registry,
                &self.functions,
                self.time_scale.unwrap_or_default(),
            ) {
                m.diagnostics[severity_index(d.severity)].inc();
            }
        }
        let mut planner = Planner::new(self.registry.clone(), self.functions.clone());
        if let Some(scale) = self.time_scale {
            planner = planner.with_time_scale(scale);
        }
        let plan = planner.plan(&query).map_err(|e| {
            registration_error(
                name,
                &query,
                &self.registry,
                &self.functions,
                self.time_scale,
                e,
            )
        })?;
        let meta = QueryMeta::of(&plan);
        if self.partition.is_some() {
            return self.register_partitioned(name, plan, meta);
        }
        let placed = self.place(&meta, name)?;
        let shard = placed.unwrap_or(self.components % self.shard_count());
        match &mut self.inline {
            Some(engine) => engine.install(name, plan)?,
            None => {
                let n = name.to_string();
                self.workers[shard].call(move |engine| engine.install(&n, plan))??;
            }
        }
        if placed.is_none() {
            self.components += 1;
        }
        self.local_to_global[shard].push(self.names.len() as u32);
        self.names.push(name.to_string());
        self.meta.push(meta);
        Ok(())
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
            self.time_scale.unwrap_or_default(),
            &existing,
        )
    }

    /// The shard a new query's co-location links pin it to (`None` when
    /// unconstrained); an error when the links span two shards.
    fn place(&self, meta: &QueryMeta, name: &str) -> CoreResult<Option<usize>> {
        let mut constrained: Option<usize> = None;
        for (global, m) in self.meta.iter().enumerate() {
            let linked = (meta.from.is_some() && m.into == meta.from)
                || (meta.into.is_some() && (m.into == meta.into || m.from == meta.into))
                || m.funcs.iter().any(|f| meta.funcs.contains(f));
            if !linked {
                continue;
            }
            let shard = self
                .shard_of_global(global as u32)
                .expect("registered queries have a shard");
            match constrained {
                None => constrained = Some(shard),
                Some(s) if s == shard => {}
                Some(s) => {
                    return Err(SaseError::registration(
                        name,
                        None,
                        format!(
                            "must be co-located with queries on shards {s} and {shard}; \
                             rebuild the deployment with ShardedEngineBuilder to repartition"
                        ),
                    ))
                }
            }
        }
        Ok(constrained)
    }

    /// Post-build registration in [`ShardingMode::ByPartitionKey`] mode:
    /// decide the disposition (see [`PartitionState::claim`]), install on
    /// every data worker or on the pinned worker, extend the bookkeeping.
    fn register_partitioned(
        &mut self,
        name: &str,
        plan: QueryPlan,
        meta: QueryMeta,
    ) -> CoreResult<()> {
        let st = self.partition.as_mut().expect("partition mode");
        let dist = st.claim(&meta, &plan);
        let data = st.data;
        if dist {
            for w in &self.workers[..data] {
                let n = name.to_string();
                let p = plan.clone();
                w.call(move |engine| engine.install(&n, p))??;
            }
        } else {
            let n = name.to_string();
            self.workers[data].call(move |engine| engine.install(&n, plan))??;
        }
        let global = self.names.len() as u32;
        let st = self.partition.as_mut().expect("partition mode");
        if dist {
            st.data_l2g.push(global);
        } else {
            st.pinned_l2g.push(global);
        }
        st.distributed.push(dist);
        self.names.push(name.to_string());
        self.meta.push(meta);
        Ok(())
    }

    /// Delete a query in [`ShardingMode::ByPartitionKey`] mode. The
    /// routing-key claims it committed stay in place (see
    /// [`PartitionState::claims`]).
    fn unregister_partitioned(&mut self, name: &str) -> bool {
        let Some(global) = self.names.iter().position(|n| n == name) else {
            return false;
        };
        let st = self.partition.as_ref().expect("partition mode");
        let dist = st.distributed[global];
        let data = st.data;
        let removed = if dist {
            let mut all = true;
            for w in &self.workers[..data] {
                let n = name.to_string();
                all &= w.call(move |engine| engine.unregister(&n)).unwrap_or(false);
            }
            all
        } else {
            let n = name.to_string();
            self.workers[data]
                .call(move |engine| engine.unregister(&n))
                .unwrap_or(false)
        };
        if !removed {
            return false;
        }
        let g = global as u32;
        self.names.remove(global);
        self.meta.remove(global);
        let st = self.partition.as_mut().expect("partition mode");
        st.distributed.remove(global);
        for table in [&mut st.data_l2g, &mut st.pinned_l2g] {
            table.retain(|&x| x != g);
            for x in table.iter_mut() {
                if *x > g {
                    *x -= 1;
                }
            }
        }
        true
    }

    /// Delete a query, wherever it is hosted. Returns true if it existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        if self.partition.is_some() {
            return self.unregister_partitioned(name);
        }
        let Some(global) = self.names.iter().position(|n| n == name) else {
            return false;
        };
        let g = global as u32;
        let shard = self
            .shard_of_global(g)
            .expect("registered queries have a shard");
        let removed = match &mut self.inline {
            Some(engine) => engine.unregister(name),
            None => {
                let n = name.to_string();
                self.workers[shard]
                    .call(move |engine| engine.unregister(&n))
                    .unwrap_or(false)
            }
        };
        if !removed {
            return false;
        }
        self.names.remove(global);
        self.meta.remove(global);
        // Renumber the global registration indices past the removed one.
        for table in &mut self.local_to_global {
            table.retain(|&x| x != g);
            for x in table.iter_mut() {
                if *x > g {
                    *x -= 1;
                }
            }
        }
        true
    }

    /// Attach an output sink to a query, wherever it is hosted. Sinks of
    /// queries on worker shards fire on the worker's thread. In
    /// [`ShardingMode::ByPartitionKey`] mode a distributed query's sink is
    /// shared by every data worker behind a mutex: it sees every output,
    /// but cross-worker delivery order is unspecified (per-worker order is
    /// preserved).
    pub fn add_sink(&mut self, name: &str, sink: Sink) -> CoreResult<()> {
        if let Some(st) = &self.partition {
            let global = self
                .names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))?;
            if st.distributed[global] {
                let shared = Arc::new(Mutex::new(sink));
                for w in &self.workers[..st.data] {
                    let n = name.to_string();
                    let s = shared.clone();
                    w.call(move |engine| {
                        engine.add_sink(
                            &n,
                            Box::new(move |ce| {
                                let mut sink = s.lock().expect("sink lock");
                                sink(ce);
                            }),
                        )
                    })??;
                }
                return Ok(());
            }
        }
        let shard = self
            .shard_of(name)
            .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))?;
        match &mut self.inline {
            Some(engine) => engine.add_sink(name, sink),
            None => {
                let name = name.to_string();
                self.workers[shard].call(move |engine| engine.add_sink(&name, sink))?
            }
        }
    }

    /// Runtime counters of a query, wherever it is hosted. A distributed
    /// query's counters ([`ShardingMode::ByPartitionKey`]) are summed
    /// field-wise across the data workers; `partial_runs_peak` becomes an
    /// upper bound on the deployment-wide peak (per-worker peaks need not
    /// coincide in time).
    pub fn stats(&self, name: &str) -> CoreResult<RuntimeStats> {
        if let Some(st) = &self.partition {
            let global = self
                .names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))?;
            if st.distributed[global] {
                let mut total = RuntimeStats::default();
                for w in &self.workers[..st.data] {
                    let n = name.to_string();
                    let s = w.call(move |engine| engine.stats(&n))??;
                    add_stats(&mut total, &s);
                }
                return Ok(total);
            }
        }
        self.query_call(name, |engine, name| engine.stats(name))
    }

    /// EXPLAIN output of a query's plan, wherever it is hosted.
    pub fn explain(&self, name: &str) -> CoreResult<String> {
        self.query_call(name, |engine, name| engine.explain(name))
    }

    /// The source text (canonical form) of a query, wherever it is hosted.
    pub fn query_text(&self, name: &str) -> CoreResult<String> {
        self.query_call(name, |engine, name| engine.query_text(name))
    }

    /// Run a read-only per-query accessor on the engine hosting `name`.
    fn query_call<R, F>(&self, name: &str, f: F) -> CoreResult<R>
    where
        R: Send + 'static,
        F: FnOnce(&Engine, &str) -> CoreResult<R> + Send + 'static,
    {
        if let Some(st) = &self.partition {
            let global = self
                .names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))?;
            // Every data worker holds an identical copy of a distributed
            // query's plan; worker 0 answers for all of them.
            let w = if st.distributed[global] { 0 } else { st.data };
            let name = name.to_string();
            return self.workers[w].call(move |engine| f(engine, &name))?;
        }
        let shard = self
            .shard_of(name)
            .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))?;
        if let Some(engine) = &self.inline {
            return f(engine, name);
        }
        let name = name.to_string();
        self.workers[shard].call(move |engine| f(engine, &name))?
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
        if let Some(engine) = &mut self.inline {
            engine.set_tracer(tracer);
            return;
        }
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
        if let Some(engine) = &self.inline {
            if let Some(r) = engine.metrics_registry() {
                parts.push(r.snapshot());
            }
        }
        for w in &self.workers {
            if let Ok(Some(snap)) = w.call(|engine| engine.metrics_registry().map(|r| r.snapshot()))
            {
                parts.push(snap);
            }
        }
        let mut snap = MetricsSnapshot::merged(parts);
        if let Some(m) = &self.metrics {
            // Imbalance over the shards that share routed work: the data
            // workers in ByPartitionKey mode, every shard in ByQuery mode.
            let data = self
                .partition
                .as_ref()
                .map(|st| st.data)
                .unwrap_or(m.events_routed.len());
            let routed: Vec<u64> = m.events_routed[..data].iter().map(|c| c.get()).collect();
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
        if let Some(engine) = &self.inline {
            return SnapshotSet::single(engine.snapshot());
        }
        let mut set = SnapshotSet {
            engines: self
                .workers
                .iter()
                .map(|w| {
                    // Workers isolate engine panics (batch errors leave
                    // them alive and snapshotable); this can only fail if
                    // `Engine::snapshot` itself panics, which propagates
                    // just as it did when the engines lived inline.
                    w.call(|engine| engine.snapshot())
                        .expect("shard workers survive batch errors")
                })
                .collect(),
        };
        if let Some(st) = &self.partition {
            // The pinned worker is skipped entirely while it hosts no
            // queries, so its own clocks may lag the router's. Overlay
            // the authoritative router clocks onto the pinned slot —
            // `restore` rebuilds the router clocks from there. `max`
            // keeps derived-stream entries the pinned engine minted
            // itself; sorting makes snapshot bytes deterministic.
            let snap = &mut set.engines[st.data];
            for (stream, ts) in &st.clocks {
                match snap.stream_clocks.iter_mut().find(|(s, _)| s == stream) {
                    Some((_, t)) => *t = (*t).max(*ts),
                    None => snap.stream_clocks.push((stream.clone(), *ts)),
                }
            }
            snap.stream_clocks.sort();
        }
        set
    }

    /// Restore a snapshot set (one engine snapshot per shard, in shard
    /// order) onto a freshly rebuilt deployment with the same queries.
    pub fn restore(&mut self, snaps: &SnapshotSet) -> CoreResult<()> {
        if snaps.len() != self.shard_count() {
            return Err(SaseError::engine(format!(
                "snapshot mismatch: snapshot has {} shards, deployment has {}",
                snaps.len(),
                self.shard_count()
            )));
        }
        if let Some(engine) = &mut self.inline {
            return engine.restore(&snaps.engines[0]);
        }
        for (worker, snap) in self.workers.iter().zip(&snaps.engines) {
            let snap = snap.clone();
            worker.call(move |engine| engine.restore(&snap))??;
        }
        if let Some(st) = &mut self.partition {
            // `snapshot()` overlays the authoritative router clocks onto
            // the pinned slot, so that slot always carries the complete
            // stream clocks; restoring also clears a poison latch (the
            // restored state is consistent).
            st.clocks = snaps.engines[st.data]
                .stream_clocks
                .iter()
                .cloned()
                .collect();
            st.poisoned = false;
        }
        Ok(())
    }

    /// The deployment's sharding mode.
    pub fn sharding_mode(&self) -> ShardingMode {
        if self.partition.is_some() {
            ShardingMode::ByPartitionKey
        } else {
            ShardingMode::ByQuery
        }
    }

    /// Shard index hosting a query, for inspection. In
    /// [`ShardingMode::ByPartitionKey`] mode a distributed query runs on
    /// every data worker, so it has no single hosting shard (`None`);
    /// pinned queries report the designated pinned worker's index.
    pub fn shard_of(&self, name: &str) -> Option<usize> {
        let global = self.names.iter().position(|n| n == name)? as u32;
        self.shard_of_global(global)
    }

    fn shard_of_global(&self, global: u32) -> Option<usize> {
        if let Some(st) = &self.partition {
            return if st.distributed[global as usize] {
                None
            } else {
                Some(st.data)
            };
        }
        self.local_to_global
            .iter()
            .position(|t| t.contains(&global))
    }

    /// Process a batch of events on the default input stream.
    pub fn process_batch(&mut self, events: &[Event]) -> CoreResult<Vec<ComplexEvent>> {
        self.process_batch_on(None, events)
    }

    /// Process a batch of events on a named stream, merging the shards'
    /// emissions deterministically.
    pub fn process_batch_on(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
    ) -> CoreResult<Vec<ComplexEvent>> {
        if let Some(engine) = &mut self.inline {
            // Single shard: skip the tagging/merge machinery entirely.
            return engine.process_batch_on(stream, events);
        }
        Ok(self
            .process_batch_tagged(stream, events)?
            .into_iter()
            .map(|e| e.output)
            .collect())
    }

    /// Process a batch and return each emission with its provenance tag,
    /// with per-shard query indices already remapped to the global
    /// registration order and the whole sequence sorted by
    /// [`Emission::order_key`] — exactly what one engine over the union of
    /// the queries would have tagged.
    pub fn process_batch_tagged(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
    ) -> CoreResult<Vec<Emission>> {
        let seq = self.batch_seq;
        self.batch_seq = self.batch_seq.wrapping_add(1);
        if let Some(engine) = &mut self.inline {
            let span = self
                .tracer
                .begin(TraceKind::ShardDispatch, seq, events.len() as u64);
            if let Some(m) = &self.metrics {
                m.dispatched(0, events.len());
            }
            let out = engine.process_batch_tagged(stream, events);
            if let Some(m) = &self.metrics {
                m.drained(0);
            }
            if let Some(span) = span {
                self.tracer
                    .end(span, out.as_ref().map(|v| v.len() as u64).unwrap_or(0));
            }
            return out;
        }
        if self.partition.is_some() {
            return self.process_batch_partitioned(stream, events, seq);
        }
        let span = self
            .tracer
            .begin(TraceKind::ShardDispatch, seq, events.len() as u64);
        // One shared copy of the batch; events are cheap `Arc` handles.
        // Shards hosting no queries are skipped entirely — a deployment
        // with more shards than queries pays nothing for the idle workers.
        // (With no queries anywhere, every shard still sees the batch so
        // the engine-level stream-clock validation keeps running.)
        let shared = Arc::new(events.to_vec());
        let any_populated = self.local_to_global.iter().any(|t| !t.is_empty());
        let mut dispatched: Vec<usize> = Vec::with_capacity(self.workers.len());
        let mut send_err: Option<SaseError> = None;
        for (shard, worker) in self.workers.iter().enumerate() {
            if any_populated && self.local_to_global[shard].is_empty() {
                continue;
            }
            match worker.send(ShardCmd::Batch {
                stream: stream.map(str::to_string),
                events: shared.clone(),
            }) {
                Ok(()) => {
                    if let Some(m) = &self.metrics {
                        m.dispatched(shard, events.len());
                    }
                    dispatched.push(shard);
                }
                Err(e) => {
                    send_err = Some(e);
                    break;
                }
            }
        }
        // Drain exactly one result from every worker that received the
        // batch — even on error — so the persistent result channels never
        // desync: a leftover result would be merged into the *next* batch.
        let mut results: Vec<(usize, CoreResult<Vec<Emission>>)> =
            Vec::with_capacity(dispatched.len());
        for &shard in &dispatched {
            results.push((
                shard,
                self.workers[shard]
                    .batch_rx
                    .recv()
                    .map_err(|_| SaseError::engine("engine shard worker disconnected"))
                    .and_then(|r| r),
            ));
            if let Some(m) = &self.metrics {
                m.drained(shard);
            }
        }
        if let Some(e) = send_err {
            return Err(e);
        }
        let mut merged: Vec<Emission> = Vec::new();
        for (shard, result) in results {
            let table = &self.local_to_global[shard];
            for mut emission in result? {
                for hop in &mut emission.path {
                    hop.0 = table[hop.0 as usize];
                }
                merged.push(emission);
            }
        }
        merged.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        if let Some(span) = span {
            self.tracer.end(span, merged.len() as u64);
        }
        Ok(merged)
    }

    /// Data-parallel ingest ([`ShardingMode::ByPartitionKey`]): route each
    /// event to a data worker by hashing its claimed partition-key value,
    /// ship the whole batch to the pinned worker, then merge the tagged
    /// emissions on their provenance order keys — byte-identical to one
    /// engine running all the queries.
    fn process_batch_partitioned(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        seq: u64,
    ) -> CoreResult<Vec<Emission>> {
        let span = self
            .tracer
            .begin(TraceKind::ShardDispatch, seq, events.len() as u64);
        let st: &mut PartitionState = self.partition.as_mut().expect("partition mode");
        if st.poisoned {
            return Err(SaseError::engine(POISONED_MSG));
        }
        if events.is_empty() {
            return Ok(Vec::new());
        }
        let data = st.data;
        let stream_key = stream.map(str::to_ascii_lowercase);
        // Route the batch, enforcing per-stream monotonicity exactly like
        // `Engine` does for input events — a data worker only sees a slice
        // of the stream, so its own clocks cannot catch every regression
        // the single-engine reference would reject. On a regression the
        // valid prefix is still dispatched (the reference has processed
        // those events by the time it errors, and subsequent batches must
        // observe the same state) and the clock error returned afterwards.
        let mut subs: Vec<Vec<Event>> = vec![Vec::new(); data];
        let mut maps: Vec<Vec<u32>> = vec![Vec::new(); data];
        let mut cut = events.len();
        let mut clock_err: Option<SaseError> = None;
        // The whole batch targets one stream, so the clock entry is looked
        // up once and the per-event check is a bare compare. An absent
        // entry starts at 0: timestamps are unsigned, so the first event
        // always passes, exactly like `Engine`'s insert-on-first-sight.
        let route_distributed = stream_key.is_none() && !st.data_l2g.is_empty();
        let clock = st.clocks.entry(stream_key.clone()).or_insert(0);
        for (i, event) in events.iter().enumerate() {
            if event.timestamp() < *clock {
                clock_err = Some(SaseError::engine(format!(
                    "out-of-order event: timestamp {} after {} on stream `{}`",
                    event.timestamp(),
                    clock,
                    stream_key.as_deref().unwrap_or("<default>"),
                )));
                cut = i;
                break;
            }
            *clock = event.timestamp();
            // Distributed queries listen on the default stream only (FROM
            // consumers are pinned), so named-stream events route to the
            // pinned worker alone.
            if !route_distributed {
                continue;
            }
            if let Some(Some(tk)) = st.claims.get(event.type_id().0 as usize) {
                // Claimed accessors are statically resolved, so `key_of`
                // is infallible for events of the claimed type; an event
                // of an unclaimed type routes nowhere (no distributed
                // query reacts to it).
                if let Some(key) = tk.key_of(event) {
                    let mut h = FxHasher::default();
                    key.hash(&mut h);
                    let shard = (h.finish() % data as u64) as usize;
                    subs[shard].push(event.clone());
                    maps[shard].push(i as u32);
                }
            }
        }
        // Dispatch: each data worker gets its slice; the pinned worker
        // gets the whole valid prefix whenever it hosts at least one
        // query. While it hosts none it is skipped entirely — there is
        // nothing it could emit, and duplicating the stream into it would
        // cost a full extra ingest pass. `snapshot()` overlays the router
        // clocks onto the pinned slot, so recovery never depends on the
        // pinned engine having seen every event.
        let mut dispatched: Vec<usize> = Vec::new();
        let mut send_err: Option<SaseError> = None;
        for (w, sub) in subs.iter_mut().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let routed = sub.len();
            match self.workers[w].send(ShardCmd::Batch {
                stream: None,
                events: Arc::new(std::mem::take(sub)),
            }) {
                Ok(()) => {
                    if let Some(m) = &self.metrics {
                        m.dispatched(w, routed);
                    }
                    dispatched.push(w);
                }
                Err(e) => {
                    send_err = Some(e);
                    break;
                }
            }
        }
        if send_err.is_none() && cut > 0 && !st.pinned_l2g.is_empty() {
            match self.workers[data].send(ShardCmd::Batch {
                stream: stream.map(str::to_string),
                events: Arc::new(events[..cut].to_vec()),
            }) {
                Ok(()) => {
                    if let Some(m) = &self.metrics {
                        m.dispatched(data, cut);
                    }
                    dispatched.push(data);
                }
                Err(e) => send_err = Some(e),
            }
        }
        // Drain exactly one result from every worker that received a
        // sub-batch — even on error — so the persistent result channels
        // never desync (see `process_batch_tagged`).
        let mut results: Vec<(usize, CoreResult<Vec<Emission>>)> =
            Vec::with_capacity(dispatched.len());
        for &w in &dispatched {
            results.push((
                w,
                self.workers[w]
                    .batch_rx
                    .recv()
                    .map_err(|_| SaseError::engine("engine shard worker disconnected"))
                    .and_then(|r| r),
            ));
            if let Some(m) = &self.metrics {
                m.drained(w);
            }
        }
        if let Some(e) = send_err {
            return Err(e);
        }
        // Merge. A worker panic latches the deployment poisoned — every
        // subsequent ingest is rejected with the same typed error.
        // Ordinary errors (host functions, clock regressions inside a
        // worker) do not poison: the drain discipline keeps the workers
        // consistent, matching ByQuery behavior. Worker errors take
        // precedence over the router's clock error — workers only saw the
        // pre-regression prefix, so theirs happened earlier in the
        // single-engine order.
        let mut first_err: Option<SaseError> = None;
        let mut merged: Vec<Emission> = Vec::new();
        for (w, result) in results {
            match result {
                Err(e) => {
                    if e.to_string().contains(SHARD_PANIC_MSG) {
                        st.poisoned = true;
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Ok(emissions) if first_err.is_none() => {
                    if w < data {
                        let map = &maps[w];
                        for mut emission in emissions {
                            emission.input_index = map[emission.input_index as usize];
                            for hop in &mut emission.path {
                                hop.0 = st.data_l2g[hop.0 as usize];
                            }
                            merged.push(emission);
                        }
                    } else {
                        // The pinned worker saw the whole prefix: its
                        // input indices are already global.
                        for mut emission in emissions {
                            for hop in &mut emission.path {
                                hop.0 = st.pinned_l2g[hop.0 as usize];
                            }
                            merged.push(emission);
                        }
                    }
                }
                Ok(_) => {}
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Some(e) = clock_err {
            return Err(e);
        }
        merged.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        if let Some(span) = span {
            self.tracer.end(span, merged.len() as u64);
        }
        Ok(merged)
    }
}

/// The sharded implementation of the unified processor surface: every
/// method delegates to the inherent method of the same name, so a sharded
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

    fn process_batch_on(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
    ) -> CoreResult<Vec<ComplexEvent>> {
        ShardedEngine::process_batch_on(self, stream, events)
    }

    fn process_batch_tagged(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
    ) -> CoreResult<Vec<Emission>> {
        ShardedEngine::process_batch_tagged(self, stream, events)
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
            let detections = sharded.process_batch(&events).unwrap();
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
            got.extend(sharded.process_batch(he).unwrap());
        }
        assert!(!expect.is_empty());
        assert_eq!(render(&expect), render(&got));
    }

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
        let err = sharded.process_batch(&[e]).unwrap_err();
        assert!(err.to_string().contains("injected"));

        // Regression: the failed batch must not leave stale results in any
        // worker's result channel — the next batch merges only its own
        // results, and the deployment stays snapshotable.
        let exit = registry
            .build_event(
                "EXIT_READING",
                2,
                vec![Value::Int(9), Value::str("p"), Value::Int(4)],
            )
            .unwrap();
        let out = sharded.process_batch(&[exit]).unwrap();
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
        sharded.process_batch(std::slice::from_ref(&exit)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "sink fired on its shard");

        // Post-build registration lands on the least-loaded shard and is
        // fully routable; unregister renumbers the merge tables.
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
        let out = sharded.process_batch(&[exit, counter]).unwrap();
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
        let out = sharded.process_batch(&[mk(1, 1), mk(2, 2)]).unwrap();
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
        for chunk in events.chunks(13) {
            expect.extend(single.process_batch_tagged(None, chunk).unwrap());
            got.extend(sharded.process_batch_tagged(None, chunk).unwrap());
        }
        assert!(!expect.is_empty());
        let render = |v: &[Emission]| {
            v.iter()
                .map(|e| format!("{}|{}|{:?}|{}", e.input_index, e.depth, e.path, e.output))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&expect), render(&got));
        // Distributed stats are summed across data workers and agree with
        // the single engine on the exact counters.
        assert_eq!(
            sharded.stats("pairs").unwrap().matches_emitted,
            single.stats("pairs").unwrap().matches_emitted
        );
    }

    #[test]
    fn partitioned_worker_panic_poisons_deployment() {
        // A worker panic mid-batch must surface as a typed error — not a
        // hang or a silent drop — and every subsequent ingest must be
        // rejected deterministically.
        let registry = sase_core::event::retail_registry();
        let functions = FunctionRegistry::with_stdlib();
        functions.register_fn("_detonate", Some(1), |args| {
            if args[0] == Value::Int(13) {
                panic!("injected detonation");
            }
            Ok(args[0].clone())
        });
        let mut builder = ShardedEngineBuilder::with_functions(registry.clone(), functions);
        builder.set_sharding(ShardingMode::ByPartitionKey);
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
        // The host-function caller is pinned; the equivalence query
        // distributes.
        assert_eq!(sharded.shard_of("pairs"), None);
        assert_eq!(sharded.shard_of("boomy"), Some(2));

        let mk = |ts: u64, tag: i64| {
            registry
                .build_event(
                    "SHELF_READING",
                    ts,
                    vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
                )
                .unwrap()
        };
        assert_eq!(sharded.process_batch(&[mk(1, 1)]).unwrap().len(), 1);

        let err = sharded.process_batch(&[mk(2, 13)]).unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "panic must surface as a typed error: {err}"
        );

        // Deterministic rejection from here on: identical message, twice.
        let e1 = sharded.process_batch(&[mk(3, 1)]).unwrap_err().to_string();
        let e2 = sharded.process_batch(&[mk(4, 2)]).unwrap_err().to_string();
        assert!(e1.contains("poisoned"), "got: {e1}");
        assert_eq!(e1, e2, "rejection must be deterministic");
        // The workers themselves survive (panic isolation): the poisoned
        // deployment is still snapshotable for post-mortem inspection.
        assert_eq!(sharded.snapshot().len(), 3);
    }

    #[test]
    fn partitioned_error_does_not_poison() {
        // An ordinary engine error (failing host function) propagates but
        // leaves the deployment usable — parity with ByQuery behavior.
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
        builder.set_sharding(ShardingMode::ByPartitionKey);
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
        let err = sharded.process_batch(&[mk(1, 13)]).unwrap_err();
        assert!(err.to_string().contains("injected"));
        let out = sharded.process_batch(&[mk(2, 5)]).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn partitioned_router_rejects_out_of_order_like_single_engine() {
        // The router-level clocks reproduce the single engine's
        // out-of-order rejection even when the regressing event would have
        // hashed to a worker that never saw the earlier timestamp.
        let registry = sase_core::event::retail_registry();
        let mk_engine = || {
            let mut e = Engine::new(registry.clone());
            e.register(
                "pairs",
                "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                 WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
            )
            .unwrap();
            e
        };
        let mut single = mk_engine();
        let mut builder = ShardedEngineBuilder::new(registry.clone());
        builder.set_sharding(ShardingMode::ByPartitionKey);
        builder
            .register(
                "pairs",
                "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
                 WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
            )
            .unwrap();
        let mut sharded = builder.build(4).unwrap();
        let mk = |ts: u64, tag: i64| {
            registry
                .build_event(
                    "SHELF_READING",
                    ts,
                    vec![Value::Int(tag), Value::str("p"), Value::Int(1)],
                )
                .unwrap()
        };
        let batch = vec![mk(10, 1), mk(5, 2)];
        let e1 = single.process_batch(&batch).unwrap_err().to_string();
        let e2 = sharded.process_batch(&batch).unwrap_err().to_string();
        assert!(e1.contains("out-of-order"), "got: {e1}");
        assert_eq!(e1, e2, "clock rejection must match the single engine");
        // Not poisoned: the next in-order batch is accepted by both.
        assert!(single.process_batch(&[mk(11, 3)]).is_ok());
        assert!(sharded.process_batch(&[mk(11, 3)]).is_ok());
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
