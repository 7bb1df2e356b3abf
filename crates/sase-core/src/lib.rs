//! # sase-core — the SASE complex event processor
//!
//! A from-scratch Rust implementation of the complex event processing
//! system described in *"SASE: Complex Event Processing over Streams"*
//! (CIDR 2007): the SASE event language, NFA-based native sequence
//! operators with Active Instance Stacks (plain and partitioned — PAIS),
//! predicate and window pushdown, negation, and a continuous-query engine.
//!
//! ## Quick start
//!
//! ```
//! use sase_core::engine::Engine;
//! use sase_core::event::retail_registry;
//! use sase_core::processor::EventProcessor;
//! use sase_core::value::Value;
//!
//! // Schemas for the paper's retail scenario.
//! let registry = retail_registry();
//! let mut engine = Engine::new(registry);
//!
//! // Q1 from the paper: shoplifting detection.
//! engine.register(
//!     "shoplifting",
//!     "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z)
//!      WHERE x.TagId = y.TagId AND x.TagId = z.TagId
//!      WITHIN 12 hours
//!      RETURN x.TagId, x.ProductName, z.AreaId",
//! ).unwrap();
//!
//! let shelf = engine.schemas().build_event(
//!     "SHELF_READING", 10,
//!     vec![Value::Int(42), Value::str("soap"), Value::Int(1)],
//! ).unwrap();
//! let exit = engine.schemas().build_event(
//!     "EXIT_READING", 90,
//!     vec![Value::Int(42), Value::str("soap"), Value::Int(4)],
//! ).unwrap();
//!
//! // One ingest call: emissions go into the caller's buffer.
//! let mut detections = Vec::new();
//! engine.ingest(None, &[shelf, exit], &mut detections, None).unwrap();
//! assert_eq!(detections.len(), 1);
//! assert_eq!(detections[0].value("x.TagId"), Some(&Value::Int(42)));
//! ```
//!
//! ## Architecture
//!
//! | paper concept (§) | module |
//! |---|---|
//! | event language (2.1.1) | [`lang`] |
//! | NFA-based sequence operators: sequence scan & construction, sequence indexes (2.1.2) | [`runtime::ssc`], [`runtime::ais`] |
//! | value-based partitions / PAIS (2.1.2) | [`plan`] (analysis), [`runtime::ssc`] |
//! | negation (2.1.1) | [`runtime::negation`] |
//! | RETURN transformation & built-in `_functions` (2.1.1) | [`runtime::transform`], [`functions`] |
//! | continuous-query processor (3) | [`engine`] |
//! | unified processor surface (single / sharded / durable) | [`processor`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod engine;
pub mod error;
pub mod event;
pub mod expr;
pub mod functions;
pub mod hash;
pub mod lang;
pub mod output;
pub mod pattern;
pub mod plan;
pub mod processor;
pub mod program;
pub mod runtime;
pub mod snapshot;
pub mod time;
pub mod value;

pub use analyze::{analyze, Diagnostic, Severity};
pub use engine::Engine;
pub use error::{Result, SaseError, Span};
pub use event::{Event, EventTypeId, Schema, SchemaRegistry};
pub use functions::{BuiltinFunction, FunctionRegistry};
pub use lang::{parse_query, Query};
pub use output::ComplexEvent;
pub use plan::{Planner, QueryPlan};
pub use processor::EventProcessor;
pub use program::PredicateProgram;
pub use runtime::{QueryRuntime, RuntimeStats};
pub use snapshot::{EngineSnapshot, SnapshotSet};
pub use time::{TimeScale, TimeUnit, Timestamp, WindowSpec};
pub use value::{Value, ValueType};
