//! # sase-system — the complete SASE system
//!
//! Wires every layer of Figure 1 together: the simulated RFID devices
//! (`sase-rfid`), the Cleaning and Association Layer (`sase-stream`), the
//! complex event processor (`sase-core`), and the event database
//! (`sase-db`), plus the paper's built-in database functions
//! (`_retrieveLocation`, `_updateLocation`, containment updates) and a
//! textual rendering of the Figure 3 UI.
//!
//! ```
//! use sase_rfid::noise::NoiseModel;
//! use sase_rfid::scenario::RetailScenario;
//! use sase_system::SaseSystem;
//!
//! let mut sys = SaseSystem::retail(NoiseModel::perfect(), 7, 20).unwrap();
//! sys.register_demo_queries().unwrap();
//! let scenario = RetailScenario::build(sys.config(), 3, 2, 1, 0);
//! sys.run_scenario(&scenario).unwrap();
//! assert!(!sys.detections_for("shoplifting").is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builtins;
pub mod concurrent;
pub mod durable;
pub mod queries;
pub mod report;
pub mod system;

pub use builtins::{register_db_builtins, retail_area_descriptions, seed_area_info};
pub use concurrent::{ShardedEngine, ShardedEngineBuilder, ShardingMode};
pub use durable::{DurableError, DurableOptions, DurableSystem, RecoveryReport, Restart, Wal};
pub use report::UiReport;
pub use sase_core::processor::EventProcessor;
pub use system::{SaseSystem, TickResult};
