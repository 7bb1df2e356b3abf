//! # sase — umbrella crate for the SASE reproduction
//!
//! Re-exports every crate of the workspace so examples and integration
//! tests can `use sase::core::...`, `use sase::stream::...`, etc.
//!
//! * [`core`] — the SASE language, planner, NFA/AIS sequence operators, and
//!   continuous-query engine.
//! * [`stream`] — the five-layer Cleaning and Association pipeline.
//! * [`rfid`] — the RFID device simulator, retail/warehouse scenarios, and
//!   synthetic workload generators.
//! * [`db`] — the event database (in-memory relational store, SQL subset,
//!   location/containment history, track-and-trace).
//! * [`obs`] — observability: the zero-alloc metrics registry, latency
//!   histograms, Prometheus-style exposition, and lifecycle trace hooks.
//! * [`store`] — durability: the segmented event log and engine
//!   checkpoint files.
//! * [`system`] — full-system wiring: devices → cleaning → event processor
//!   → database, plus the paper's built-in DB functions, durable
//!   deployments with crash recovery, and the textual UI.
//! * [`server`] — the network serving layer: line protocol, HTTP/1.1,
//!   and WebSocket push over any deployment (see
//!   [`Sase::serve`](facade::Sase::serve)).
//!
//! ## Public API
//!
//! The recommended entry point is the [`Sase`] facade: a builder that
//! assembles any engine deployment shape (single, sharded, durable) behind
//! the unified [`EventProcessor`] trait, returns typed [`QueryHandle`]s on
//! registration, and delivers output push-style through subscriptions.
//! See [`facade`] for the tour.

pub mod facade;

pub use sase_core as core;
pub use sase_db as db;
pub use sase_obs as obs;
pub use sase_rfid as rfid;
pub use sase_server as server;
pub use sase_store as store;
pub use sase_stream as stream;
pub use sase_system as system;

pub use facade::{Collector, QueryHandle, Sase, SaseBuilder};
pub use sase_core::analyze::{Diagnostic, Severity};
pub use sase_core::engine::RoutingMode;
pub use sase_core::processor::EventProcessor;
pub use sase_core::snapshot::SnapshotSet;
pub use sase_obs::{
    render_prometheus, MemorySink, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceKind,
    TraceSink, Tracer,
};
pub use sase_server::{Server, ServerConfig, ServerError, ServerHandle, SlowPolicy};
pub use sase_system::{DurableOptions, RecoveryReport, ShardingMode};

#[cfg(test)]
mod durable;
