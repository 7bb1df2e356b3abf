//! What every workload reports for one round, and the interface the
//! driver loops over.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::spans::Recorder;
use crate::sys::process_cpu_s;

/// One round: a freshly built deployment fed the whole pre-generated
/// input, one end-to-end call (a batch through `process` or over the
/// wire, a scan cycle through `tick`) at a time. Set-up is timed on its
/// own; `calls_us` and `cpu_us` cover the timed section only.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Set-up, step by step: build, register (+ open WAL / bind, connect,
    /// subscribe), and the first call being accepted. Step `i` is the same
    /// work in every round (empty in traced rounds, whose spans say more).
    pub setup_us: Vec<f64>,
    /// Input records fed (events; raw readings for `retail_pipeline`).
    pub records: u64,
    /// Latency of each end-to-end call, in call order: hand-over of the
    /// input → its complex events in the application's hands. Call `i`
    /// does the same work in every round of a run.
    pub calls_us: Vec<f64>,
    /// Process CPU time, all threads, spent on each call (empty in traced
    /// rounds, which do not measure it).
    pub cpu_us: Vec<f64>,
    /// Complex events each call returned.
    pub emitted: Vec<u32>,
    /// Operations (batches, expected pushes) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Round {
    /// The timed section: the sum of its calls.
    pub fn wall_s(&self) -> f64 {
        self.calls_us.iter().sum::<f64>() * 1e-6
    }
}

/// Per-layer values, one per traced round, keyed by metric name. The run
/// reports each metric's median over rounds.
pub type Layers = BTreeMap<&'static str, Vec<f64>>;

pub fn put(layers: &mut Layers, name: &'static str, value: f64) {
    layers.entry(name).or_default().push(value);
}

/// Wall-clock laps: the µs between consecutive `lap` calls.
pub struct Laps {
    last: Instant,
    pub us: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            us: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let now = Instant::now();
        self.us
            .push(now.duration_since(self.last).as_secs_f64() * 1e6);
        self.last = now;
    }
}

/// Reads the process CPU clock between calls, outside the calls' latency
/// timers.
pub struct CpuMeter {
    last_s: f64,
}

impl CpuMeter {
    pub fn start() -> Self {
        CpuMeter {
            last_s: process_cpu_s(),
        }
    }

    /// CPU µs, all threads, since the previous lap (or the start).
    pub fn lap_us(&mut self) -> f64 {
        let now = process_cpu_s();
        let us = (now - self.last_s) * 1e6;
        self.last_s = now;
        us
    }
}

pub trait Workload {
    /// One untraced round.
    fn round(&mut self) -> Round;

    /// One traced round: the same end-to-end calls under spans, layer
    /// replicas beside them, counts read at the same boundaries.
    fn traced_round(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Round;

    /// Checks that need the run to be over (e.g. recovering the last
    /// round's log). Returns operations `(attempted, failed)`.
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Seconds spent generating inputs and their reference.
    fn gen_s(&self) -> f64;
}

/// Directory for what a run writes (WAL directories, trace files):
/// `perfbench/out` from the repository root, `out` from inside
/// `perfbench/`.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("perfbench/Cargo.toml").is_file() {
        PathBuf::from("perfbench/out")
    } else {
        PathBuf::from("out")
    }
}
