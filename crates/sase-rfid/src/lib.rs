//! # sase-rfid — the simulated physical device layer
//!
//! Substitutes for the paper's RFID hardware (ThingMagic Mercury 4 Agile
//! reader, Alien EPC Class1 Gen1 tags): a discrete-event simulator of
//! readers, tags, and read-range noise, plus the scripted behaviours of the
//! demonstration scenario (§4) and synthetic event-stream generators.
//!
//! * [`sim`] — readers/tags/areas and the per-scan-cycle noise model
//! * [`noise`] — the error classes the cleaning layer exists to fix
//! * [`scenario`] — scripted shoppers, shoplifters, and misplaced inventory
//! * [`warehouse`] — supply-chain traces for the event database
//! * [`generator`] — parameterized synthetic event streams for the
//!   differential tests
//! * [`wire`] — the framed binary reading format ("communication over
//!   socket", Figure 1), timed by the benchmark's `rfid.frame_*` rows

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generator;
pub mod noise;
pub mod scenario;
pub mod sim;
pub mod warehouse;
pub mod wire;

pub use noise::NoiseModel;
pub use scenario::{Action, GroundTruth, RetailScenario, ScheduledAction};
pub use sim::{RfidSimulator, SimReader};
pub use warehouse::{ContainmentChange, Movement, WarehouseTrace};
pub use wire::{decode_frame, encode_frame, WireError};
