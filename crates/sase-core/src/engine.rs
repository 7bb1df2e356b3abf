//! The complex event processor engine.
//!
//! §3: "The complex event processor supports continuous long-running
//! queries written in the SASE language over event streams. ... The event
//! processor immediately starts executing the query over the RFID stream
//! and returns a result to the user every time the query is satisfied.
//! Such processing continues until the query is deleted by the user."
//!
//! An [`Engine`] owns the schema registry, the built-in function registry,
//! and every registered continuous query. Batches of events are pushed
//! with [`EventProcessor::ingest`]; emitted composite events go to the
//! caller's buffer and to any registered sinks.
//!
//! ## Routing
//!
//! The engine routes events to queries through an inverted index keyed by
//! `(stream, event type)`: each query's plan exposes the set of event types
//! it can react to ([`crate::plan::QueryPlan::relevant_types`] — positive
//! component types plus negation counterexample types), so an arriving
//! event touches only the queries that can change state because of it
//! instead of every registered query. The index is dense: per stream, a
//! vector indexed by [`EventTypeId`], so a route is one bounds-checked
//! load. [`RoutingMode::ScanAll`] retains the original scan-every-query
//! semantics (every query listening on the stream) as a baseline for
//! differential testing and benchmarking.
//!
//! ## Ingest
//!
//! A batch is first checked against its stream's monotonicity clock as a
//! whole, so a regressing batch is rejected before any event is offered.
//! Then one loop serves input and derived events alike: each input event
//! is offered straight to its routed queries, then the `INTO` events its
//! emissions derive are offered breadth-first from a queue that holds only
//! derived events, before the next input. A derived offer checks its
//! stream's clock first. The failure contract and the evaluation rule are
//! stated in [`crate::processor`].
//!
//! The emissions of a query declaring `RETURN ... INTO s` are re-ingested
//! as first-class events on stream `s` (§2.1.1: the RETURN clause "can
//! also name the output stream and the type of events in the output"), so
//! queries compose. The derived event type is the stream name; if it is
//! not already registered, a schema is derived from the first emission's
//! column types. Cyclic INTO graphs are cut off after
//! `MAX_DERIVATION_DEPTH` hops: the event past the limit is dropped.
//!
//! ## Partition keys
//!
//! The engine owns one partition-key table for all its queries. An offered
//! event's key is extracted and interned at most once per distinct key
//! accessor, by the first query that needs it; every other routed query
//! reuses the slot and reaches its PAIS group or negation bucket with two
//! array loads (see [`crate::runtime`]).
//!
//! Stream names (`FROM` / `INTO`) are case-insensitive, like event type
//! and attribute names; the engine normalizes them once at query
//! registration and once per ingest call, so `RETURN ... INTO Foo` feeds
//! `FROM foo`.

use std::collections::VecDeque;

use crate::hash::{FxHashMap, FxHashSet};

use crate::error::{Result, SaseError};
use crate::event::{Event, EventTypeId, SchemaRegistry};
use crate::functions::FunctionRegistry;
use crate::output::ComplexEvent;
use crate::plan::{compile_query, QueryPlan};
use crate::processor::EventProcessor;
use crate::runtime::{KeyTable, QueryRuntime, RuntimeStats};
use crate::snapshot::{mismatch, DerivedStreamSnapshot, EngineSnapshot, EventTable};
use crate::time::{TimeScale, Timestamp};

/// A per-query output callback.
pub type Sink = Box<dyn FnMut(&ComplexEvent) + Send>;

/// How the engine matches arriving events to registered queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Inverted `(stream, event type) -> queries` index: an event is
    /// offered only to the queries whose relevant-type set contains its
    /// type. The default.
    #[default]
    Indexed,
    /// Scan every registered query per event (the pre-index baseline).
    /// Kept as a column of the workspace's differential harness and as
    /// the reference of the benchmark's output check; emits exactly what
    /// [`RoutingMode::Indexed`] emits.
    ScanAll,
}

/// One hop of an emission's derivation path: `(query index, output ordinal
/// within that query's reaction to one event)`.
pub type EmissionHop = (u32, u32);

/// An emission's provenance within its batch: the optional second buffer
/// of [`EventProcessor::ingest`], one tag per emission.
///
/// The derived order (`input_index`, then `depth`, then `path`) is the
/// order in which a single engine emits. Sharded deployments merge their
/// workers' outputs by it into exactly the sequence a single engine over
/// the union of the queries would have produced.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tag {
    /// Index of the input event (within the ingested batch) that
    /// ultimately caused the emission.
    pub input_index: u32,
    /// Derivation depth: 0 for direct reactions to the input event, `n`
    /// for reactions to an `INTO` event derived at depth `n - 1`.
    pub depth: u16,
    /// One hop per derivation level, ending at the emitting query. Hops
    /// hold the engine-local query index (registration order); callers
    /// merging across engines remap them to a global order first.
    pub path: Vec<EmissionHop>,
}

struct Registered {
    runtime: QueryRuntime,
    /// Input stream this query listens on (`FROM`), normalized to
    /// lowercase; `None` = default input.
    from: Option<String>,
    /// Event types this query can react to (from the plan).
    relevant: Vec<EventTypeId>,
    sinks: Vec<Sink>,
}

/// The routes of one input stream: query indices per event type, in
/// registration order so routed delivery preserves the scan loop's output
/// order.
#[derive(Debug, Default)]
struct StreamRoutes {
    /// Dense by event type: `by_type[t]` serves `EventTypeId(t)`.
    by_type: Vec<Vec<usize>>,
    /// Every query listening on the stream ([`RoutingMode::ScanAll`]).
    all: Vec<usize>,
}

/// The inverted routing index: `(stream, event type) -> query indices`.
/// Rebuilt on register/unregister (rare) rather than maintained
/// incrementally.
#[derive(Debug, Default)]
struct RouterIndex {
    /// Routes for the default (unnamed) input stream.
    default_stream: StreamRoutes,
    /// Routes per named stream (keys normalized to lowercase).
    named: FxHashMap<String, StreamRoutes>,
}

impl RouterIndex {
    fn rebuild(&mut self, queries: &[Registered]) {
        *self = RouterIndex::default();
        for (idx, q) in queries.iter().enumerate() {
            let routes = match &q.from {
                None => &mut self.default_stream,
                Some(s) => self.named.entry(s.clone()).or_default(),
            };
            routes.all.push(idx);
            for &ty in &q.relevant {
                let t = ty.0 as usize;
                if routes.by_type.len() <= t {
                    routes.by_type.resize_with(t + 1, Vec::new);
                }
                routes.by_type[t].push(idx);
            }
        }
    }

    fn route(&self, mode: RoutingMode, stream: Option<&str>, ty: EventTypeId) -> &[usize] {
        let routes = match stream {
            None => &self.default_stream,
            Some(s) => match self.named.get(s) {
                Some(routes) => routes,
                None => return &[],
            },
        };
        match mode {
            RoutingMode::Indexed => routes.by_type.get(ty.0 as usize).map_or(&[], Vec::as_slice),
            RoutingMode::ScanAll => &routes.all,
        }
    }
}

/// The engine's registry handles, resolved once when metrics are
/// enabled (see [`Engine::enable_metrics`]) so the ingest path records
/// through pre-resolved atomic cells — wait-free and allocation-free.
#[derive(Debug, Clone)]
struct EngineMetrics {
    registry: sase_obs::MetricsRegistry,
    /// Input events of accepted batches (not counting derived INTO
    /// re-ingestions).
    events_ingested: sase_obs::Counter,
    /// Batches accepted by the clock check.
    batches: sase_obs::Counter,
    /// Wall-clock nanoseconds per accepted batch.
    batch_latency_ns: sase_obs::Histogram,
    /// Composite events emitted (all queries, including INTO producers).
    emissions: sase_obs::Counter,
    /// Events (input or derived) the router matched to ≥ 1 query.
    router_hits: sase_obs::Counter,
    /// Events the router matched to no query.
    router_misses: sase_obs::Counter,
    /// Derived (`INTO`) events re-ingested.
    derived_events: sase_obs::Counter,
    /// Analyzer diagnostics observed at registration, indexed by
    /// `Severity as usize` (`diagnostics_emitted{severity=…}`).
    diagnostics: [sase_obs::Counter; 3],
}

impl EngineMetrics {
    fn new(registry: sase_obs::MetricsRegistry) -> Self {
        EngineMetrics {
            events_ingested: registry.counter("sase_ingest_events_total", &[]),
            batches: registry.counter("sase_ingest_batches_total", &[]),
            batch_latency_ns: registry.histogram("sase_ingest_batch_latency_ns", &[]),
            emissions: registry.counter("sase_ingest_emissions_total", &[]),
            router_hits: registry.counter("sase_router_hit_total", &[]),
            router_misses: registry.counter("sase_router_miss_total", &[]),
            derived_events: registry.counter("sase_derived_events_total", &[]),
            diagnostics: ["info", "warning", "error"].map(|sev| {
                registry.counter("sase_diagnostics_emitted_total", &[("severity", sev)])
            }),
            registry,
        }
    }
}

/// The breadth-first queue of `INTO`-derived events awaiting their offer:
/// `(normalized stream, event, path)`. Input events never enter it.
type DerivedQueue = VecDeque<(String, Event, Vec<EmissionHop>)>;

/// Memoized event type of a derived (`INTO`) output stream.
#[derive(Debug, Clone, Copy)]
struct DerivedEntry {
    id: EventTypeId,
    /// True when the engine itself registered the type (schema derived
    /// from the first emission) as opposed to a user-preregistered type.
    engine_registered: bool,
}

/// The continuous-query engine.
pub struct Engine {
    registry: SchemaRegistry,
    functions: FunctionRegistry,
    time_scale: TimeScale,
    queries: Vec<Registered>,
    by_name: FxHashMap<String, usize>,
    routing: RoutingMode,
    router: RouterIndex,
    /// Lazily-registered event types of derived (`INTO`) output streams,
    /// keyed by normalized stream name.
    derived_types: FxHashMap<String, DerivedEntry>,
    /// Streams whose event type the engine registered but whose producers
    /// are all gone: the next producer may redefine the schema.
    reusable_derived: FxHashSet<String>,
    /// Monotonicity clock of the default stream. Events must arrive in
    /// non-decreasing timestamp order per stream; the engine enforces this
    /// before routing, so both routing modes reject regressions
    /// identically, and every query sees its events in order.
    default_clock: Option<Timestamp>,
    /// Monotonicity clocks of named streams (keys normalized to lowercase).
    named_clocks: FxHashMap<String, Timestamp>,
    /// Pre-resolved metric handles; `None` (the default) keeps ingest
    /// entirely uninstrumented.
    metrics: Option<EngineMetrics>,
    /// Sampled lifecycle tracing; disabled by default (one branch).
    tracer: sase_obs::Tracer,
    /// Batch sequence number — the provenance id of batch-ingest spans.
    batch_seq: u64,
    /// The derivation queue (see [`DerivedQueue`]): empty between calls,
    /// capacity kept, so steady-state batches allocate nothing.
    derived_queue: DerivedQueue,
    /// The partition keys of every query's groups and negation buckets.
    keys: KeyTable,
}

/// Maximum chain of query-to-query derivations one input event may cause;
/// exceeding it means the INTO graph is cyclic, and the event past it is
/// dropped.
const MAX_DERIVATION_DEPTH: u16 = 16;

impl Engine {
    /// Create an engine over a schema registry, with the standard pure
    /// built-in functions pre-registered.
    pub fn new(registry: SchemaRegistry) -> Self {
        Self::with_functions(registry, FunctionRegistry::with_stdlib())
    }

    /// Create an engine with an explicit function registry.
    pub fn with_functions(registry: SchemaRegistry, functions: FunctionRegistry) -> Self {
        Engine {
            registry,
            functions,
            time_scale: TimeScale::default(),
            queries: Vec::new(),
            by_name: FxHashMap::default(),
            routing: RoutingMode::default(),
            router: RouterIndex::default(),
            derived_types: FxHashMap::default(),
            reusable_derived: FxHashSet::default(),
            default_clock: None,
            named_clocks: FxHashMap::default(),
            metrics: None,
            tracer: sase_obs::Tracer::disabled(),
            batch_seq: 0,
            derived_queue: DerivedQueue::new(),
            keys: KeyTable::default(),
        }
    }

    /// Enable metrics: resolve this engine's series in `registry` once,
    /// so every subsequent batch records through pre-resolved atomic
    /// handles (see the `sase_obs` crate docs for the cost model). The
    /// registry handle is shared — pass the same registry to several
    /// components to aggregate, or a fresh one per engine and merge
    /// snapshots later.
    pub fn enable_metrics(&mut self, registry: &sase_obs::MetricsRegistry) {
        self.metrics = Some(EngineMetrics::new(registry.clone()));
    }

    /// The metrics registry enabled on this engine, if any.
    pub fn metrics_registry(&self) -> Option<&sase_obs::MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Install a lifecycle tracer (batch-ingest and query-eval spans).
    /// The default is [`sase_obs::Tracer::disabled`].
    pub fn set_tracer(&mut self, tracer: sase_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Set the logical time scale used for WITHIN conversion in queries
    /// registered afterwards.
    pub fn set_time_scale(&mut self, scale: TimeScale) {
        self.time_scale = scale;
    }

    /// Select how events are matched to queries (default:
    /// [`RoutingMode::Indexed`]). Both modes emit identical outputs.
    pub fn set_routing(&mut self, mode: RoutingMode) {
        self.routing = mode;
    }

    /// The active routing mode.
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// The schema registry (shared handle).
    pub fn schemas(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// The function registry (shared handle); register host functions here
    /// before registering queries that call them.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }

    /// Register a continuous query from source text.
    ///
    /// Failures are reported as [`SaseError::Registration`], carrying the
    /// query name and — when the static analyzer can pin the failure to a
    /// lint — the diagnostic code (see [`crate::analyze()`]).
    pub fn register(&mut self, name: &str, src: &str) -> Result<()> {
        if self.by_name.contains_key(name) {
            return Err(SaseError::registration(
                name,
                None,
                "a query with this name is already registered",
            ));
        }
        // With metrics on, count every diagnostic into
        // `sase_diagnostics_emitted_total{severity=…}`.
        let count = self
            .metrics
            .as_ref()
            .map(|m| |d: &crate::analyze::Diagnostic| m.diagnostics[d.severity as usize].inc());
        let plan = compile_query(
            name,
            src,
            &self.registry,
            &self.functions,
            self.time_scale,
            count,
        )?;
        self.install(name, plan)
    }

    /// Statically analyze query text against this engine — its schemas,
    /// registered functions, time scale, and already-registered queries —
    /// *without* registering it. See [`crate::analyze()`] for the lint
    /// catalogue.
    pub fn check(&self, src: &str) -> Vec<crate::analyze::Diagnostic> {
        let existing: Vec<(String, crate::lang::Query)> = self
            .query_names()
            .into_iter()
            .filter_map(|n| {
                let idx = *self.by_name.get(&n)?;
                Some((n, self.queries[idx].runtime.plan().query.clone()))
            })
            .collect();
        crate::analyze::check_src(
            src,
            &self.registry,
            &self.functions,
            self.time_scale,
            &existing,
        )
    }

    /// Register a pre-compiled plan under a name.
    pub fn install(&mut self, name: &str, plan: QueryPlan) -> Result<()> {
        if self.by_name.contains_key(name) {
            return Err(SaseError::registration(
                name,
                None,
                "a query with this name is already registered",
            ));
        }
        // Stream names are case-insensitive everywhere: normalize once so
        // routing never compares mixed-case spellings.
        let from = plan.query.from.as_deref().map(str::to_ascii_lowercase);
        let relevant = plan.relevant_types();
        let runtime = QueryRuntime::in_table(name, plan, &mut self.keys);
        self.by_name.insert(name.to_string(), self.queries.len());
        self.queries.push(Registered {
            runtime,
            from,
            relevant,
            sinks: Vec::new(),
        });
        self.router.rebuild(&self.queries);
        Ok(())
    }

    /// Delete a query. Returns true if it existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        let Some(idx) = self.by_name.remove(name) else {
            return false;
        };
        let mut removed = self.queries.remove(idx);
        removed.runtime.release(&mut self.keys);
        // Reindex the queries after the removed one.
        for v in self.by_name.values_mut() {
            if *v > idx {
                *v -= 1;
            }
        }
        // Derived-type memo lifecycle: when the last producer of an INTO
        // stream leaves, drop the memo entry so a future producer derives
        // the stream's schema afresh instead of reusing a stale one.
        if let Some(into) = removed.runtime.plan().return_plan.into.as_ref() {
            let key = into.to_ascii_lowercase();
            let still_produced = self.queries.iter().any(|q| {
                q.runtime
                    .plan()
                    .return_plan
                    .into
                    .as_ref()
                    .is_some_and(|s| s.eq_ignore_ascii_case(&key))
            });
            if !still_produced {
                if let Some(d) = self.derived_types.remove(&key) {
                    if d.engine_registered {
                        self.reusable_derived.insert(key);
                    }
                }
            }
        }
        self.router.rebuild(&self.queries);
        true
    }

    /// Attach an output sink to a query.
    pub fn add_sink(&mut self, name: &str, sink: Sink) -> Result<()> {
        let idx = self.index_of(name)?;
        self.queries[idx].sinks.push(sink);
        Ok(())
    }

    /// Names of registered queries, in registration order.
    pub fn query_names(&self) -> Vec<String> {
        let mut names: Vec<(usize, &String)> = self.by_name.iter().map(|(n, i)| (*i, n)).collect();
        names.sort_unstable_by_key(|(i, _)| *i);
        names.into_iter().map(|(_, n)| n.clone()).collect()
    }

    /// Runtime counters of a query.
    pub fn stats(&self, name: &str) -> Result<RuntimeStats> {
        Ok(self.queries[self.index_of(name)?].runtime.stats().clone())
    }

    /// EXPLAIN output of a query's plan, followed by any static-analysis
    /// diagnostics (see [`crate::analyze()`]).
    pub fn explain(&self, name: &str) -> Result<String> {
        let plan = self.queries[self.index_of(name)?].runtime.plan();
        let mut out = plan.explain();
        let diags = crate::analyze::analyze_with(
            &plan.query,
            &self.registry,
            &self.functions,
            self.time_scale,
        );
        if !diags.is_empty() {
            out.push_str("\ndiagnostics:");
            for d in &diags {
                out.push_str(&format!("\n  {d}"));
            }
        }
        Ok(out)
    }

    /// The source text (canonical form) of a query, for the "Present
    /// Queries" UI window.
    pub fn query_text(&self, name: &str) -> Result<String> {
        Ok(self.queries[self.index_of(name)?]
            .runtime
            .plan()
            .query
            .to_string())
    }

    /// Ingest a batch on the default input stream and return its
    /// emissions: [`EventProcessor::ingest`] into a fresh buffer.
    pub fn process_batch(&mut self, events: &[Event]) -> Result<Vec<ComplexEvent>> {
        let mut out = Vec::new();
        self.ingest_on(None, events, &mut out, None)?;
        Ok(out)
    }

    /// The batched core behind [`EventProcessor::ingest`]; `stream` is
    /// already normalized to lowercase.
    fn ingest_on(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> Result<()> {
        self.check_clock(stream, events)?;
        // Instrumentation wraps the core loop at batch grain: one
        // latency sample, one batch-ingest span, and counter deltas per
        // call. Per-event cost is limited to the router hit/miss
        // counters inside the loop — pre-resolved atomic cells.
        let t0 = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let span = self.tracer.begin(
            sase_obs::TraceKind::BatchIngest,
            self.batch_seq,
            events.len() as u64,
        );
        self.batch_seq = self.batch_seq.wrapping_add(1);
        let out_before = out.len();

        self.ingest_queued(stream, events, out, tags);

        if let Some(m) = &self.metrics {
            m.batches.inc();
            m.events_ingested.add(events.len() as u64);
            m.emissions.add((out.len() - out_before) as u64);
            if let Some(t0) = t0 {
                m.batch_latency_ns.record_duration(t0.elapsed());
            }
        }
        if let Some(span) = span {
            self.tracer.end(span, (out.len() - out_before) as u64);
        }
        Ok(())
    }

    /// The input clock check: a batch whose timestamps regress the
    /// stream's clock, or an earlier event of the batch, is rejected whole,
    /// before any event is offered.
    fn check_clock(&self, stream: Option<&str>, events: &[Event]) -> Result<()> {
        // Timestamps are unsigned: a stream not seen yet starts at 0.
        let mut last = match stream {
            None => self.default_clock,
            Some(s) => self.named_clocks.get(s).copied(),
        }
        .unwrap_or(0);
        for event in events {
            let ts = event.timestamp();
            if ts < last {
                return Err(SaseError::engine(format!(
                    "out-of-order event: timestamp {ts} after {last} on stream `{}`",
                    stream.unwrap_or("<default>"),
                )));
            }
            last = ts;
        }
        Ok(())
    }

    /// The ingest loop proper: each input event is offered straight to
    /// its routed queries, then the `INTO` events it derived are offered
    /// breadth-first before the next input. `stream` is already normalized
    /// to lowercase.
    fn ingest_queued(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        mut tags: Option<&mut Vec<Tag>>,
    ) {
        for (input_index, input) in events.iter().enumerate() {
            let input_index = input_index as u32;
            self.offer(stream, input, input_index, &[], out, tags.as_deref_mut());
            while let Some((derived_stream, event, path)) = self.derived_queue.pop_front() {
                let stream = Some(derived_stream.as_str());
                self.offer(stream, &event, input_index, &path, out, tags.as_deref_mut());
            }
        }
    }

    /// Offer one event — an input (empty `path`) or an `INTO` event derived
    /// along `path`, whose length is its derivation depth — to the queries
    /// routed for it, and queue the `INTO` events its emissions derive.
    fn offer(
        &mut self,
        stream: Option<&str>,
        event: &Event,
        input_index: u32,
        path: &[EmissionHop],
        out: &mut Vec<ComplexEvent>,
        mut tags: Option<&mut Vec<Tag>>,
    ) {
        let depth = path.len() as u16;
        // Per-stream monotonicity, so every query sees its events in order.
        // Input events passed the batch's clock check; a derived event can
        // still regress a named stream that a direct ingest has advanced,
        // and is then dropped as an error of its producer.
        let ts = event.timestamp();
        let last = match stream {
            None => self.default_clock.get_or_insert(ts),
            Some(s) => match self.named_clocks.get_mut(s) {
                Some(last) => last,
                None => self.named_clocks.entry(s.to_owned()).or_insert(ts),
            },
        };
        if depth > 0 && ts < *last {
            let (producer, _) = path[path.len() - 1];
            self.queries[producer as usize].runtime.count_eval_error();
            return;
        }
        *last = ts;
        self.keys.begin_offer();
        // This event's INTO outputs, collected first: deriving needs
        // `&mut self` while the router slice is borrowed.
        let mut derived: Vec<(ComplexEvent, Vec<EmissionHop>)> = Vec::new();
        let routed = self.router.route(self.routing, stream, event.type_id());
        if let Some(m) = &self.metrics {
            if routed.is_empty() {
                m.router_misses.inc();
            } else {
                m.router_hits.inc();
            }
        }
        for &qi in routed {
            let qspan = self
                .tracer
                .begin(sase_obs::TraceKind::QueryEval, qi as u64, 0);
            let q = &mut self.queries[qi];
            let start = out.len();
            q.runtime.offer(&mut self.keys, event, out);
            if let Some(qspan) = qspan {
                self.tracer.end(qspan, (out.len() - start) as u64);
            }
            for (j, ce) in out[start..].iter().enumerate() {
                for sink in &mut q.sinks {
                    sink(ce);
                }
                if tags.is_none() && ce.into.is_none() {
                    continue;
                }
                let mut hop_path = Vec::with_capacity(path.len() + 1);
                hop_path.extend_from_slice(path);
                hop_path.push((qi as u32, j as u32));
                if ce.into.is_some() {
                    derived.push((ce.clone(), hop_path.clone()));
                }
                if let Some(t) = tags.as_deref_mut() {
                    t.push(Tag {
                        input_index,
                        depth,
                        path: hop_path,
                    });
                }
            }
        }
        // A derived event past the depth limit, or one its stream's schema
        // cannot hold, is dropped as an error of its producer.
        for (ce, hop_path) in derived {
            let producer = hop_path[hop_path.len() - 1].0 as usize;
            let derived = (hop_path.len() <= MAX_DERIVATION_DEPTH as usize)
                .then(|| self.derive_event(&ce).ok())
                .flatten();
            let Some((derived_stream, derived_event)) = derived else {
                self.queries[producer].runtime.count_eval_error();
                continue;
            };
            if let Some(m) = &self.metrics {
                m.derived_events.inc();
            }
            self.derived_queue
                .push_back((derived_stream, derived_event, hop_path));
        }
    }

    /// Turn an `INTO` composite event into a first-class event on its
    /// output stream, registering (or, after all previous producers left,
    /// redefining) the stream's event type on first use. Returns the
    /// normalized stream name, or the registry's error when the emission
    /// does not fit the stream's schema.
    fn derive_event(&mut self, ce: &ComplexEvent) -> Result<(String, Event)> {
        let stream = ce.into.as_ref().expect("caller checked").to_string();
        let key = stream.to_ascii_lowercase();
        let type_id = match self.derived_types.get(&key) {
            Some(entry) => entry.id,
            None => {
                let attrs: Vec<(&str, crate::value::ValueType)> = ce
                    .values
                    .iter()
                    .map(|(n, v)| (n.as_ref(), v.value_type()))
                    .collect();
                let (id, engine_registered) = match self.registry.type_id(&stream) {
                    Some(id) => {
                        if self.reusable_derived.contains(&key) {
                            // The engine derived this type for producers
                            // that are all gone. The new producer's RETURN
                            // shape wins (the id stays stable) — unless a
                            // registered query still consumes the stream
                            // or reacts to the type: redefining under a
                            // live consumer would silently invalidate its
                            // plan, so the old schema stays authoritative
                            // (a mismatched emission then fails at event
                            // construction below).
                            self.reusable_derived.remove(&key);
                            if self.type_in_use(id, &key) {
                                (id, true)
                            } else {
                                (self.registry.redefine(&stream, &attrs)?, true)
                            }
                        } else {
                            // The user pre-registered the output type.
                            (id, false)
                        }
                    }
                    // Derive the schema from this first emission.
                    None => (self.registry.register(&stream, &attrs)?, true),
                };
                self.derived_types.insert(
                    key.clone(),
                    DerivedEntry {
                        id,
                        engine_registered,
                    },
                );
                id
            }
        };
        let event = self.registry.build_event_by_id(
            type_id,
            ce.detected_at,
            ce.values.iter().map(|(_, v)| v.clone()).collect(),
        )?;
        Ok((key, event))
    }

    /// True when any registered query still depends on an event type:
    /// listening on its stream (`FROM`) or reacting to the type itself.
    fn type_in_use(&self, id: crate::event::EventTypeId, stream_key: &str) -> bool {
        self.queries
            .iter()
            .any(|q| q.from.as_deref() == Some(stream_key) || q.relevant.contains(&id))
    }

    /// Serializable image of the engine's complete mutable state: every
    /// query's runtime, the per-stream monotonicity clocks, and the derived
    /// (`INTO`) schema registry. See [`crate::snapshot`] for the restore
    /// protocol.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut stream_clocks: Vec<(Option<String>, Timestamp)> = self
            .default_clock
            .map(|ts| (None, ts))
            .into_iter()
            .chain(self.named_clocks.iter().map(|(k, v)| (Some(k.clone()), *v)))
            .collect();
        stream_clocks.sort();

        let mut derived_streams = Vec::new();
        let mut derived: Vec<(&String, &DerivedEntry)> = self.derived_types.iter().collect();
        derived.sort_by_key(|(k, _)| k.as_str());
        for (_, entry) in derived {
            let schema = self
                .registry
                .schema(entry.id)
                .expect("derived entry ids come from this registry");
            derived_streams.push(DerivedStreamSnapshot {
                type_name: schema.name.to_string(),
                attrs: schema
                    .attributes
                    .iter()
                    .map(|a| (a.name.to_string(), a.ty))
                    .collect(),
                engine_registered: entry.engine_registered,
                reusable: false,
            });
        }
        let mut reusable: Vec<&String> = self.reusable_derived.iter().collect();
        reusable.sort();
        for key in reusable {
            let schema = self
                .registry
                .schema_by_name(key)
                .expect("reusable streams keep their registered type");
            derived_streams.push(DerivedStreamSnapshot {
                type_name: schema.name.to_string(),
                attrs: schema
                    .attributes
                    .iter()
                    .map(|a| (a.name.to_string(), a.ty))
                    .collect(),
                engine_registered: true,
                reusable: true,
            });
        }

        let mut table = EventTable::default();
        let queries = (self.queries.iter())
            .map(|q| q.runtime.snapshot_in(&self.keys, &mut table))
            .collect();
        EngineSnapshot {
            events: table.into_events(),
            queries,
            stream_clocks,
            derived_streams,
        }
    }

    /// Restore a snapshot onto this engine.
    ///
    /// The engine must already have the snapshot's queries registered, with
    /// the same text and in the same order, and every
    /// derived stream type must exist in the schema registry
    /// ([`EngineSnapshot::preregister_derived`] arranges that). Sinks are
    /// not part of snapshots — whatever is attached to this engine stays
    /// attached. On error nothing observable is guaranteed to have been
    /// restored; re-run the full restore protocol.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<()> {
        if snap.queries.len() != self.queries.len() {
            return Err(mismatch(format!(
                "snapshot has {} queries, engine has {}",
                snap.queries.len(),
                self.queries.len()
            )));
        }
        let mut derived_types = FxHashMap::default();
        let mut reusable_derived = FxHashSet::default();
        for d in &snap.derived_streams {
            let key = d.type_name.to_ascii_lowercase();
            let id = self.registry.type_id(&d.type_name).ok_or_else(|| {
                mismatch(format!(
                    "derived stream type `{}` is not registered; call \
                     EngineSnapshot::preregister_derived before re-registering queries",
                    d.type_name
                ))
            })?;
            if d.reusable {
                reusable_derived.insert(key);
            } else {
                derived_types.insert(
                    key,
                    DerivedEntry {
                        id,
                        engine_registered: d.engine_registered,
                    },
                );
            }
        }
        let events = (snap.events.iter())
            .map(|e| e.rebuild(&self.registry))
            .collect::<Result<Vec<Event>>>()?;
        for (q, qs) in self.queries.iter_mut().zip(&snap.queries) {
            q.runtime.restore_in(qs, &events, &mut self.keys)?;
        }

        self.derived_types = derived_types;
        self.reusable_derived = reusable_derived;
        let clocks = &snap.stream_clocks;
        self.default_clock = clocks.iter().find(|(s, _)| s.is_none()).map(|c| c.1);
        self.named_clocks = clocks
            .iter()
            .filter_map(|(s, ts)| Some((s.clone()?, *ts)))
            .collect();
        Ok(())
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| SaseError::engine(format!("no query named `{name}`")))
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("queries", &self.query_names())
            .field("schemas", &self.registry.len())
            .field("routing", &self.routing)
            .finish()
    }
}

/// The single-engine implementation of the unified processor surface:
/// ingest runs the engine's batched core, and every other method delegates
/// to the inherent method of the same name. The
/// trait's [`SnapshotSet`](crate::snapshot::SnapshotSet) holds exactly one
/// [`EngineSnapshot`] here (the inherent [`Engine::snapshot`] /
/// [`Engine::restore`] remain the single-engine-typed forms, used per
/// shard by sharded deployments).
impl EventProcessor for Engine {
    fn register(&mut self, name: &str, src: &str) -> Result<()> {
        Engine::register(self, name, src)
    }

    fn check(&self, src: &str) -> Vec<crate::analyze::Diagnostic> {
        Engine::check(self, src)
    }

    fn unregister(&mut self, name: &str) -> bool {
        Engine::unregister(self, name)
    }

    fn ingest(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> Result<()> {
        match stream {
            None => self.ingest_on(None, events, out, tags),
            Some(s) => crate::event::with_ascii_lowercase(s, |s| {
                self.ingest_on(Some(s), events, out, tags)
            }),
        }
    }

    fn query_names(&self) -> Vec<String> {
        Engine::query_names(self)
    }

    fn stats(&self, name: &str) -> Result<RuntimeStats> {
        Engine::stats(self, name)
    }

    fn metrics_registry(&self) -> Option<&sase_obs::MetricsRegistry> {
        Engine::metrics_registry(self)
    }

    fn explain(&self, name: &str) -> Result<String> {
        Engine::explain(self, name)
    }

    fn query_text(&self, name: &str) -> Result<String> {
        Engine::query_text(self, name)
    }

    fn add_sink(&mut self, name: &str, sink: Sink) -> Result<()> {
        Engine::add_sink(self, name, sink)
    }

    fn schemas(&self) -> &SchemaRegistry {
        Engine::schemas(self)
    }

    fn snapshot(&self) -> crate::snapshot::SnapshotSet {
        crate::snapshot::SnapshotSet::single(Engine::snapshot(self))
    }

    fn restore(&mut self, snaps: &crate::snapshot::SnapshotSet) -> Result<()> {
        match snaps.engines.as_slice() {
            [one] => Engine::restore(self, one),
            _ => Err(mismatch(format!(
                "snapshot set holds {} engines, deployment is a single engine",
                snaps.engines.len()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::value::{Value, ValueType};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ev(engine: &Engine, ty: &str, ts: u64, tag: i64, area: i64) -> Event {
        engine
            .schemas()
            .build_event(
                ty,
                ts,
                vec![Value::Int(tag), Value::str("soap"), Value::Int(area)],
            )
            .unwrap()
    }

    /// One ingest call on `stream`, returning the batch's emissions.
    fn on(engine: &mut Engine, stream: Option<&str>, event: &Event) -> Result<Vec<ComplexEvent>> {
        let mut out = Vec::new();
        engine.ingest(stream, std::slice::from_ref(event), &mut out, None)?;
        Ok(out)
    }

    /// One tagged ingest call on the default stream.
    fn tagged(engine: &mut Engine, events: &[Event]) -> Vec<(Tag, ComplexEvent)> {
        let (mut out, mut tags) = (Vec::new(), Vec::new());
        engine
            .ingest(None, events, &mut out, Some(&mut tags))
            .unwrap();
        tags.into_iter().zip(out).collect()
    }

    const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                      WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 1000 \
                      RETURN x.TagId, z.AreaId";

    #[test]
    fn register_process_unregister() {
        let mut engine = Engine::new(retail_registry());
        engine.register("shoplifting", Q1).unwrap();
        assert_eq!(engine.query_names(), vec!["shoplifting"]);
        assert!(engine.register("shoplifting", Q1).is_err());

        let events = vec![
            ev(&engine, "SHELF_READING", 1, 7, 1),
            ev(&engine, "EXIT_READING", 5, 7, 4),
        ];
        let out = engine.process_batch(&events).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query.as_ref(), "shoplifting");

        assert!(engine.unregister("shoplifting"));
        assert!(!engine.unregister("shoplifting"));
        let out = engine
            .process_batch(&[ev(&engine, "EXIT_READING", 6, 7, 4)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sinks_receive_outputs() {
        let mut engine = Engine::new(retail_registry());
        engine.register("q", Q1).unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        engine
            .add_sink(
                "q",
                Box::new(move |_ce| {
                    c2.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        let events = vec![
            ev(&engine, "SHELF_READING", 1, 7, 1),
            ev(&engine, "EXIT_READING", 5, 7, 4),
        ];
        engine.process_batch(&events).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stream_routing() {
        let mut engine = Engine::new(retail_registry());
        engine
            .register(
                "on_named",
                "FROM retail EVENT SHELF_READING x RETURN x.TagId",
            )
            .unwrap();
        engine
            .register("on_default", "EVENT SHELF_READING x RETURN x.TagId")
            .unwrap();
        let e = ev(&engine, "SHELF_READING", 1, 7, 1);
        let out = on(&mut engine, Some("retail"), &e).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query.as_ref(), "on_named");
        let out = engine.process_batch(std::slice::from_ref(&e)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query.as_ref(), "on_default");
        let out = on(&mut engine, Some("warehouse"), &e).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn stream_names_are_case_insensitive() {
        // Regression for the FROM/INTO case mismatch: every identifier in
        // the language compares case-insensitively, and stream names must
        // agree — `FROM Retail_Stream` receives ingest on `retail_stream`.
        let mut engine = Engine::new(retail_registry());
        engine
            .register(
                "q",
                "FROM Retail_Stream EVENT SHELF_READING x RETURN x.TagId",
            )
            .unwrap();
        let e = ev(&engine, "SHELF_READING", 1, 7, 1);
        assert_eq!(on(&mut engine, Some("retail_stream"), &e).unwrap().len(), 1);
        assert_eq!(on(&mut engine, Some("RETAIL_STREAM"), &e).unwrap().len(), 1);
        assert_eq!(on(&mut engine, Some("Retail_Stream"), &e).unwrap().len(), 1);
    }

    #[test]
    fn into_feeds_from_case_insensitively() {
        // `INTO Foo` must feed `FROM foo` (the original routing bug: FROM
        // compared case-sensitively while INTO memoization did not).
        let registry = retail_registry();
        registry
            .register("foo", &[("tag", ValueType::Int)])
            .unwrap();
        let mut engine = Engine::new(registry);
        engine
            .register(
                "producer",
                "EVENT EXIT_READING z RETURN z.TagId AS tag INTO Foo",
            )
            .unwrap();
        engine
            .register("consumer", "FROM foo EVENT FOO a RETURN a.tag AS got")
            .unwrap();
        let out = engine
            .process_batch(&[ev(&engine, "EXIT_READING", 5, 9, 4)])
            .unwrap();
        let hits: Vec<_> = out
            .iter()
            .filter(|d| d.query.as_ref() == "consumer")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value("got"), Some(&Value::Int(9)));
    }

    #[test]
    fn reregistering_producer_redefines_derived_schema() {
        // Unregistering the last producer of a derived stream must clear
        // the memoized type so a new producer with a different RETURN
        // shape is not mis-built against the stale schema.
        let mut engine = Engine::new(retail_registry());
        engine
            .register(
                "p1",
                "EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts",
            )
            .unwrap();
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 1, 7, 4)])
            .unwrap();
        let first = engine.schemas().schema_by_name("alerts").unwrap();
        assert_eq!(first.arity(), 1);

        assert!(engine.unregister("p1"));
        engine
            .register(
                "p2",
                "EVENT EXIT_READING z \
                 RETURN z.ProductName AS product, z.AreaId AS area INTO alerts",
            )
            .unwrap();
        // No consumer references `alerts` yet, so p2's first emission
        // redefines the derived schema to the new shape.
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 2, 8, 4)])
            .unwrap();
        let second = engine.schemas().schema_by_name("alerts").unwrap();
        assert_eq!(second.arity(), 2, "schema redefined to the new shape");
        assert_eq!(second.attr_type("product"), Some(ValueType::Str));

        engine
            .register(
                "watcher",
                "FROM alerts EVENT alerts a RETURN a.product AS p",
            )
            .unwrap();
        let out = engine
            .process_batch(&[ev(&engine, "EXIT_READING", 3, 9, 4)])
            .unwrap();
        let hits: Vec<_> = out
            .iter()
            .filter(|d| d.query.as_ref() == "watcher")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value("p"), Some(&Value::str("soap")));
    }

    #[test]
    fn derived_schema_not_redefined_under_live_consumer() {
        // A consumer planned against the old derived schema must not have
        // the type redefined under it: the mismatched new producer's
        // derived event is dropped at construction, as its error.
        let mut engine = Engine::new(retail_registry());
        engine
            .register(
                "p1",
                "EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts",
            )
            .unwrap();
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 1, 7, 4)])
            .unwrap();
        engine
            .register("watcher", "FROM alerts EVENT alerts a RETURN a.tag AS t")
            .unwrap();
        assert!(engine.unregister("p1"));
        engine
            .register(
                "p2",
                "EVENT EXIT_READING z RETURN z.ProductName AS tag INTO alerts",
            )
            .unwrap();
        let out = engine
            .process_batch(&[ev(&engine, "EXIT_READING", 2, 8, 4)])
            .unwrap();
        let queries: Vec<&str> = out.iter().map(|ce| ce.query.as_ref()).collect();
        assert_eq!(queries, ["p2"], "the watcher sees no mismatched event");
        assert_eq!(engine.stats("p2").unwrap().eval_errors, 1);
        // The watcher's schema survived untouched.
        let schema = engine.schemas().schema_by_name("alerts").unwrap();
        assert_eq!(schema.attr_type("tag"), Some(ValueType::Int));
    }

    #[test]
    fn user_preregistered_derived_type_is_kept_across_reregistration() {
        let registry = retail_registry();
        registry
            .register("alerts", &[("tag", ValueType::Int)])
            .unwrap();
        let mut engine = Engine::new(registry);
        engine
            .register(
                "p1",
                "EVENT EXIT_READING z RETURN z.TagId AS tag INTO alerts",
            )
            .unwrap();
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 1, 7, 4)])
            .unwrap();
        assert!(engine.unregister("p1"));
        // A new producer with a mismatched shape must NOT silently
        // redefine the user's type: its derived events are dropped.
        engine
            .register(
                "p2",
                "EVENT EXIT_READING z \
                 RETURN z.TagId AS tag, z.AreaId AS area INTO alerts",
            )
            .unwrap();
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 2, 8, 4)])
            .unwrap();
        assert_eq!(engine.stats("p2").unwrap().eval_errors, 1);
        assert_eq!(
            engine.schemas().schema_by_name("alerts").unwrap().arity(),
            1
        );
    }

    #[test]
    fn multiple_queries_share_stream() {
        let mut engine = Engine::new(retail_registry());
        engine.register("q1", Q1).unwrap();
        engine
            .register("all_exits", "EVENT EXIT_READING z RETURN z.TagId")
            .unwrap();
        let events = vec![
            ev(&engine, "SHELF_READING", 1, 7, 1),
            ev(&engine, "EXIT_READING", 5, 7, 4),
        ];
        let out = engine.process_batch(&events).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stats_and_explain_and_text() {
        let mut engine = Engine::new(retail_registry());
        engine.register("q", Q1).unwrap();
        engine
            .process_batch(&[ev(&engine, "SHELF_READING", 1, 7, 1)])
            .unwrap();
        let stats = engine.stats("q").unwrap();
        assert_eq!(stats.events_processed, 1);
        assert!(engine.explain("q").unwrap().contains("PAIS"));
        assert!(engine.query_text("q").unwrap().contains("SEQ("));
        assert!(engine.stats("missing").is_err());
    }

    #[test]
    fn indexed_routing_skips_irrelevant_queries() {
        let mut engine = Engine::new(retail_registry());
        engine
            .register("exits", "EVENT EXIT_READING z RETURN z.TagId")
            .unwrap();
        engine
            .register("shelves", "EVENT SHELF_READING x RETURN x.TagId")
            .unwrap();
        engine
            .process_batch(&[ev(&engine, "EXIT_READING", 1, 7, 4)])
            .unwrap();
        // The exit event was never offered to the shelf query.
        assert_eq!(engine.stats("exits").unwrap().events_processed, 1);
        assert_eq!(engine.stats("shelves").unwrap().events_processed, 0);

        let mut scan = Engine::new(retail_registry());
        scan.set_routing(RoutingMode::ScanAll);
        assert_eq!(scan.routing(), RoutingMode::ScanAll);
        scan.register("exits", "EVENT EXIT_READING z RETURN z.TagId")
            .unwrap();
        scan.register("shelves", "EVENT SHELF_READING x RETURN x.TagId")
            .unwrap();
        scan.process_batch(&[ev(&scan, "EXIT_READING", 1, 7, 4)])
            .unwrap();
        // The scan baseline offers every event to every query.
        assert_eq!(scan.stats("shelves").unwrap().events_processed, 1);
    }

    #[test]
    fn batch_equals_per_event_processing() {
        let mk = || {
            let mut engine = Engine::new(retail_registry());
            engine.register("q1", Q1).unwrap();
            engine
                .register("exits", "EVENT EXIT_READING z RETURN z.TagId")
                .unwrap();
            engine
        };
        let proto = mk();
        let events: Vec<Event> = (0..40)
            .map(|k| {
                let ty = match k % 3 {
                    0 => "SHELF_READING",
                    1 => "COUNTER_READING",
                    _ => "EXIT_READING",
                };
                ev(&proto, ty, k + 1, (k % 5) as i64, 1)
            })
            .collect();
        let mut batched = mk();
        let batch_out = batched.process_batch(&events).unwrap();
        let mut single = mk();
        let mut single_out = Vec::new();
        for e in &events {
            single_out.extend(single.process_batch(std::slice::from_ref(e)).unwrap());
        }
        let render = |v: &[ComplexEvent]| v.iter().map(|d| d.to_string()).collect::<Vec<_>>();
        assert_eq!(render(&batch_out), render(&single_out));
        assert!(!batch_out.is_empty());
    }

    #[test]
    fn tagged_batch_preserves_order_and_provenance() {
        let mut engine = Engine::new(retail_registry());
        engine
            .register(
                "producer",
                "EVENT EXIT_READING z RETURN z.TagId AS tag INTO side",
            )
            .unwrap();
        engine
            .register("listener", "FROM side EVENT side a RETURN a.tag AS t")
            .unwrap_err(); // derived type does not exist yet
        let events = vec![
            ev(&engine, "EXIT_READING", 1, 7, 4),
            ev(&engine, "EXIT_READING", 2, 8, 4),
        ];
        let out = tagged(&mut engine, &events);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0.input_index, 0);
        assert_eq!(out[1].0.input_index, 1);
        assert!(out.iter().all(|(t, _)| t.depth == 0 && t.path.len() == 1));

        // Now with a listener on the derived stream: its emissions carry
        // depth 1 and a two-hop path, sorted after the producer's.
        engine
            .register("listener", "FROM side EVENT side a RETURN a.tag AS t")
            .unwrap();
        let exit = ev(&engine, "EXIT_READING", 3, 9, 4);
        let out = tagged(&mut engine, &[exit]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1.query.as_ref(), "producer");
        assert_eq!(out[1].1.query.as_ref(), "listener");
        assert_eq!(out[1].0.depth, 1);
        assert_eq!(out[1].0.path.len(), 2);
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "emitted in tag order"
        );
    }

    #[test]
    fn out_of_order_rejected_identically_in_both_modes() {
        // The engine-level stream clock fires before routing, so a clock
        // regression errors even when the event's type routes to no query
        // — and both routing modes agree on invalid input too.
        for mode in [RoutingMode::Indexed, RoutingMode::ScanAll] {
            let mut engine = Engine::new(retail_registry());
            engine.set_routing(mode);
            engine
                .register("exits", "EVENT EXIT_READING z RETURN z.TagId")
                .unwrap();
            engine
                .process_batch(&[ev(&engine, "SHELF_READING", 10, 1, 1)])
                .unwrap();
            let err = engine.process_batch(&[ev(&engine, "SHELF_READING", 5, 2, 1)]);
            assert!(err.is_err(), "{mode:?} must reject the regression");
            // Time moved on: the engine stays usable.
            let out = engine
                .process_batch(&[ev(&engine, "EXIT_READING", 11, 3, 4)])
                .unwrap();
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn out_of_order_inside_a_batch_changes_nothing() {
        // A regression at position k rejects the whole batch before any
        // event is offered: the next batch emits exactly what an engine
        // that never saw the rejected one emits, in both routing modes,
        // derived (INTO) events included.
        let mk = |mode: RoutingMode| {
            let registry = retail_registry();
            registry
                .register("side", &[("tag", ValueType::Int)])
                .unwrap();
            let mut engine = Engine::new(registry);
            engine.set_routing(mode);
            engine.register("q1", Q1).unwrap();
            engine
                .register(
                    "producer",
                    "EVENT EXIT_READING z RETURN z.TagId AS tag INTO side",
                )
                .unwrap();
            engine
                .register("listener", "FROM side EVENT side a RETURN a.tag AS t")
                .unwrap();
            // The clock is set before the batch, so a regression at k = 0
            // is one too.
            engine
                .process_batch(&[ev(&engine, "SHELF_READING", 9, 0, 1)])
                .unwrap();
            engine
        };
        let proto = mk(RoutingMode::Indexed);
        let kinds = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"];
        let batch: Vec<Event> = (0..12u64)
            .map(|i| ev(&proto, kinds[(i % 3) as usize], 10 + i, (i % 4) as i64, 1))
            .collect();
        let next: Vec<Event> = (0..12u64)
            .map(|i| ev(&proto, kinds[(i % 3) as usize], 100 + i, (i % 4) as i64, 4))
            .collect();
        let render = |v: &[ComplexEvent]| v.iter().map(|d| d.to_string()).collect::<Vec<_>>();
        for k in [0, 5, 11] {
            let mut bad = batch.clone();
            bad[k] = ev(&proto, "EXIT_READING", 1, 9, 4);
            let mut follow_ups = Vec::new();
            for mode in [RoutingMode::Indexed, RoutingMode::ScanAll] {
                let mut rejected = mk(mode);
                let mut out = Vec::new();
                let err = rejected.ingest(None, &bad, &mut out, None).unwrap_err();
                assert!(
                    err.to_string().contains("out-of-order event: timestamp 1"),
                    "{err}"
                );
                assert!(out.is_empty(), "{mode:?}: a rejected batch emits nothing");
                let got = render(&rejected.process_batch(&next).unwrap());
                let want = render(&mk(mode).process_batch(&next).unwrap());
                assert_eq!(got, want, "{mode:?}, regression at {k}");
                assert!(!got.is_empty());
                follow_ups.push(got);
            }
            assert_eq!(follow_ups[0], follow_ups[1], "regression at {k}");
        }
    }

    #[test]
    fn unregister_reindexes() {
        let mut engine = Engine::new(retail_registry());
        engine.register("a", "EVENT SHELF_READING x").unwrap();
        engine.register("b", "EVENT EXIT_READING x").unwrap();
        engine.register("c", "EVENT COUNTER_READING x").unwrap();
        engine.unregister("a");
        assert_eq!(engine.query_names(), vec!["b", "c"]);
        // "c" must still be reachable after reindexing.
        assert!(engine.stats("c").is_ok());
        let e = ev(&engine, "COUNTER_READING", 1, 7, 3);
        let out = engine.process_batch(std::slice::from_ref(&e)).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn host_function_callable_from_return() {
        let mut engine = Engine::new(retail_registry());
        engine
            .functions()
            .register_fn("_describe", Some(1), |args| {
                Ok(Value::str(format!("area-{}", args[0])))
            });
        engine
            .register("q", "EVENT EXIT_READING z RETURN _describe(z.AreaId) AS d")
            .unwrap();
        let out = engine
            .process_batch(&[ev(&engine, "EXIT_READING", 1, 7, 4)])
            .unwrap();
        assert_eq!(out[0].value("d"), Some(&Value::str("area-4")));
    }
}
