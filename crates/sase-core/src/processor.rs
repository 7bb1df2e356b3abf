//! The unified complex-event-processor surface.
//!
//! The paper's Figure 3 presents one system — queries go in, complex
//! events stream out — but deployments come in several shapes: a single
//! [`Engine`](crate::engine::Engine), a sharded engine, a durable (write-ahead-logged) wrapper
//! around either. [`EventProcessor`] is the object-safe trait all of them
//! implement, capturing the full continuous-query lifecycle:
//!
//! * **query management** — [`register`](EventProcessor::register) /
//!   [`unregister`](EventProcessor::unregister);
//! * **ingest** — [`ingest`](EventProcessor::ingest), the one ingest
//!   call: a batch on a stream, its emissions written into the caller's
//!   buffer, and optionally their provenance [`Tag`]s into a second one;
//! * **push output** — [`add_sink`](EventProcessor::add_sink) attaches a
//!   per-query sink that observes every emission as it happens;
//! * **inspection** — [`query_names`](EventProcessor::query_names),
//!   [`stats`](EventProcessor::stats),
//!   [`explain`](EventProcessor::explain),
//!   [`query_text`](EventProcessor::query_text),
//!   [`schemas`](EventProcessor::schemas);
//! * **state** — [`snapshot`](EventProcessor::snapshot) /
//!   [`restore`](EventProcessor::restore) via the backend-agnostic
//!   [`SnapshotSet`].
//!
//! Because the trait is object safe, deployments compose behind
//! `Box<dyn EventProcessor>`: a host can swap a single engine for a
//! sharded one, or put either behind a write-ahead log (a durable `Sase`),
//! without touching any call site. The differential tests drive the same workload through
//! every implementation and assert byte-identical emissions.
//!
//! ## Semantics every implementation must uphold
//!
//! * Registration order is observable: `query_names` lists queries in
//!   registration order, and [`Tag`] paths refer to queries by that
//!   order.
//! * `ingest` appends emissions in the canonical order of a single engine
//!   running all the queries — ascending [`Tag`] — regardless of internal
//!   parallelism.
//! * `snapshot` → `restore` round-trips exactly: restoring a snapshot onto
//!   a freshly configured deployment with the same queries (in the same
//!   order) resumes processing as if nothing happened. See [`crate::snapshot`] for the restore protocol.
//!
//! ## The failure contract of ingest
//!
//! **Ingest fails only whole.** A batch whose timestamps regress its
//! stream's clock, or an earlier event of the same batch, is rejected
//! before any event is offered: it changes no state, no statistic and no
//! metric, and writes nothing into the buffers. A deployment may refuse a
//! batch whole for reasons of its own (a log append that failed, a stream
//! it cannot log, a poisoned deployment); no evaluation error reaches the
//! caller.
//!
//! **An evaluation error stays in its query.** A value error (a built-in
//! that fails, arithmetic on the wrong types, a missing attribute, a
//! predicate that is not a boolean) is met as follows:
//!
//! * a `WHERE` conjunct that fails to evaluate is false, wherever the
//!   planner placed it: an element filter, a construction filter, or a
//!   negation check, where it makes the event no counterexample;
//! * a `RETURN` that fails to evaluate drops its match;
//! * a derived (`INTO`) event past the derivation-depth limit, of a shape
//!   its stream's schema cannot hold, or regressing a named stream is
//!   dropped.
//!
//! Each adds one to [`RuntimeStats::eval_errors`] of the query that owns
//! the expression (for a derived event, its producer), and every other
//! event and query goes on. A durable deployment logs a batch before it
//! is processed and replays the same outcome.

use crate::analyze::{check_src, Diagnostic};
use crate::engine::{Sink, Tag};
use crate::error::Result;
use crate::event::{Event, SchemaRegistry};
use crate::functions::FunctionRegistry;
use crate::lang::parse_query;
use crate::output::ComplexEvent;
use crate::runtime::RuntimeStats;
use crate::snapshot::SnapshotSet;
use crate::time::TimeScale;
use sase_obs::{MetricsRegistry, MetricsSnapshot};

/// An object-safe complex event processor: the one interface behind which
/// single, sharded, and durable engine deployments are interchangeable.
///
/// See the [module docs](self) for the contract. The `Send` supertrait
/// lets deployments move across threads (a server's connection threads
/// share one behind a lock).
pub trait EventProcessor: Send {
    /// Register a continuous query from source text. Query names are
    /// unique per deployment.
    fn register(&mut self, name: &str, src: &str) -> Result<()>;

    /// Statically analyze query text against this deployment *without*
    /// registering it: schema/type errors, unsatisfiable predicates,
    /// routing/scaling hazards, and cross-query lints against the already
    /// registered set (see [`crate::analyze()`] for the lint catalogue).
    ///
    /// The default implementation checks with the stdlib function set and
    /// the default time scale; implementations with custom functions or
    /// time scales override it.
    fn check(&self, src: &str) -> Vec<Diagnostic> {
        let existing: Vec<(String, crate::lang::Query)> = self
            .query_names()
            .into_iter()
            .filter_map(|n| {
                let text = self.query_text(&n).ok()?;
                Some((n, parse_query(&text).ok()?))
            })
            .collect();
        check_src(
            src,
            self.schemas(),
            &FunctionRegistry::with_stdlib(),
            TimeScale::default(),
            &existing,
        )
    }

    /// Delete a query. Returns true if it existed.
    fn unregister(&mut self, name: &str) -> bool;

    /// Ingest a batch of events on a stream (`None` = the default input
    /// stream; names compare case-insensitively). The emitted composite
    /// events are appended to `out` in canonical emission order and, when
    /// `tags` is given, one [`Tag`] per emission to it, aligned with
    /// `out`. An error leaves both untouched (see
    /// [the failure contract](self#the-failure-contract-of-ingest)).
    fn ingest(
        &mut self,
        stream: Option<&str>,
        events: &[Event],
        out: &mut Vec<ComplexEvent>,
        tags: Option<&mut Vec<Tag>>,
    ) -> Result<()>;

    /// Names of registered queries, in registration order.
    fn query_names(&self) -> Vec<String>;

    /// Runtime counters of a query.
    fn stats(&self, name: &str) -> Result<RuntimeStats>;

    /// The deployment's metrics registry, when metrics are enabled
    /// (e.g. [`Engine::enable_metrics`](crate::engine::Engine::enable_metrics)).
    /// The default is `None`: an uninstrumented deployment.
    fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// A typed, point-in-time metrics view of the deployment: every
    /// series of the enabled registry (engine ingest, router, WAL,
    /// shard routing — whatever the deployment wires up) plus the
    /// per-query [`RuntimeStats`] counters promoted to
    /// `sase_query_*{query=…}` series. Always available — without an
    /// enabled registry the snapshot still carries the per-query
    /// series. Render with
    /// [`render_prometheus`](sase_obs::render_prometheus).
    ///
    /// Multi-worker deployments override this to merge worker-local
    /// registries deterministically; the default covers single-engine
    /// shapes.
    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self
            .metrics_registry()
            .map(|r| r.snapshot())
            .unwrap_or_default();
        for name in self.query_names() {
            if let Ok(s) = self.stats(&name) {
                s.export_metrics(&name, &mut snap);
            }
        }
        snap
    }

    /// EXPLAIN output of a query's plan.
    fn explain(&self, name: &str) -> Result<String>;

    /// The source text (canonical form) of a query.
    fn query_text(&self, name: &str) -> Result<String>;

    /// Attach an output sink to a query: it observes every emission of
    /// that query, push-style, as processing happens. Sinks are not part
    /// of snapshots. Sinks of queries hosted on worker threads (sharded
    /// deployments) fire on those threads; delivery order is guaranteed
    /// per query, not across queries on different workers.
    fn add_sink(&mut self, name: &str, sink: Sink) -> Result<()>;

    /// The schema registry events are built and replayed against.
    fn schemas(&self) -> &SchemaRegistry;

    /// Serializable image of the deployment's complete mutable state.
    fn snapshot(&self) -> SnapshotSet;

    /// Restore a snapshot produced by [`EventProcessor::snapshot`] onto a
    /// freshly configured deployment with the same queries (see
    /// [`crate::snapshot`] for the protocol).
    fn restore(&mut self, snaps: &SnapshotSet) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::event::retail_registry;
    use crate::value::Value;

    fn boxed_engine() -> Box<dyn EventProcessor> {
        Box::new(Engine::new(retail_registry()))
    }

    #[test]
    fn engine_works_through_the_trait_object() {
        let mut p = boxed_engine();
        p.register("exits", "EVENT EXIT_READING z RETURN z.TagId AS tag")
            .unwrap();
        assert_eq!(p.query_names(), vec!["exits"]);
        assert!(p.explain("exits").unwrap().contains("EXIT_READING"));
        assert!(p.query_text("exits").unwrap().contains("EXIT_READING"));

        let e = p
            .schemas()
            .build_event(
                "EXIT_READING",
                1,
                vec![Value::Int(7), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        let (mut out, mut tags) = (Vec::new(), Vec::new());
        p.ingest(None, std::slice::from_ref(&e), &mut out, None)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value("tag"), Some(&Value::Int(7)));
        p.ingest(None, &[e], &mut out, Some(&mut tags)).unwrap();
        assert_eq!(out.len(), 2, "ingest appends");
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].input_index, 0);

        assert_eq!(p.stats("exits").unwrap().events_processed, 2);
        assert!(p.unregister("exits"));
        assert!(!p.unregister("exits"));
    }

    #[test]
    fn snapshot_set_round_trips_through_the_trait() {
        let q = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                 WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId AS tag";
        let mut p = boxed_engine();
        p.register("q", q).unwrap();
        let shelf = p
            .schemas()
            .build_event(
                "SHELF_READING",
                1,
                vec![Value::Int(7), Value::str("soap"), Value::Int(1)],
            )
            .unwrap();
        p.ingest(None, &[shelf], &mut Vec::new(), None).unwrap();
        let set = p.snapshot();
        assert_eq!(set.len(), 1);

        let mut fresh = boxed_engine();
        fresh.register("q", q).unwrap();
        fresh.restore(&set).unwrap();
        let exit = fresh
            .schemas()
            .build_event(
                "EXIT_READING",
                2,
                vec![Value::Int(7), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        // The restored processor completes the pending sequence.
        let mut out = Vec::new();
        fresh.ingest(None, &[exit], &mut out, None).unwrap();
        assert_eq!(out.len(), 1);
        // Restoring a mismatched set is rejected.
        assert!(boxed_engine().restore(&set).is_err());
    }
}
