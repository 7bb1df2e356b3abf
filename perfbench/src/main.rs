//! `perfbench`: the repository's one benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selfcheck [--seed <n>] [--seconds <s>]
//! perfbench --quick
//! perfbench --print-manifest
//! ```
//!
//! A run is a sequence of identical *rounds* — a freshly built deployment
//! fed the same pre-generated input — and every timed metric is the
//! quiet-round estimate over them (see [`estimate`]). `--trace 0` prints
//! the end-to-end metrics; `--trace 1` prints the per-layer metrics and
//! writes `perfbench/out/trace-<workload>.json`. The last line of standard
//! output is the result object; everything else goes to standard error.

mod estimate;
mod fanin;
mod input;
mod report;
mod retail;
mod round;
mod selfcheck;
mod spans;
mod sys;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use estimate::{
    disturbed_share, median, quiet, quiet_calls, quiet_count, weighted_percentile, Better,
};
use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use round::{Layers, Round, Workload};
use spans::Recorder;

/// Rounds run and thrown away before measuring.
const WARM_UP_ROUNDS: usize = 3;
/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 20;
/// Traced rounds whose spans go to the trace file.
const TRACE_FILE_ROUNDS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Stop after this many measured rounds (`--quick`).
    pub max_rounds: Option<usize>,
}

enum Mode {
    Run,
    Selfcheck,
    Quick,
    PrintManifest,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
         perfbench --selfcheck [--seed <n>] [--seconds <s>]\n       \
         perfbench --quick\n       perfbench --print-manifest",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (Mode, Args) {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        max_rounds: None,
    };
    let mut mode = Mode::Run;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--selfcheck" => mode = Mode::Selfcheck,
            "--quick" => mode = Mode::Quick,
            "--print-manifest" => mode = Mode::PrintManifest,
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    (mode, args)
}

/// This process's scratch directory under `perfbench/out` (WAL
/// directories live here); removed when the run ends.
fn scratch_dir() -> PathBuf {
    round::out_dir().join(format!("scratch-{}", std::process::id()))
}

/// Build a workload: generate its input and reference (untimed).
pub fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    let block = || Arc::new(input::Block::generate(seed));
    match name {
        "fanin_embedded" => Box::new(fanin::Fanin::new(
            block(),
            fanin::Shape::Embedded,
            scratch_dir(),
        )),
        "fanin_durable" => Box::new(fanin::Fanin::new(
            block(),
            fanin::Shape::Durable,
            scratch_dir(),
        )),
        "serve_wire" => Box::new(wire::Wire::new(block())),
        "retail_pipeline" => Box::new(retail::Retail::new(seed)),
        _ => usage(),
    }
}

/// Quiet estimates over a run's rounds.
struct Estimates {
    setup_s: f64,
    /// Quiet estimate of each set-up step, µs.
    setup_steps_us: Vec<f64>,
    /// Sum of the quiet estimate of every call: the round nobody
    /// disturbed.
    round_s: f64,
    events_per_s: f64,
    detect_p50_us: f64,
    detect_p99_us: f64,
    cpu_us_per_event: f64,
    /// Rounds more than 10 % slower than the quiet whole-round time.
    disturbed_round_share: f64,
}

fn estimates(rounds: &[Round]) -> Estimates {
    let per = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let columns =
        |f: &dyn Fn(&Round) -> &[f64]| quiet_calls(&rounds.iter().map(f).collect::<Vec<&[f64]>>());
    let quiet_us = columns(&|r| &r.calls_us);
    let round_s = quiet_us.iter().sum::<f64>() * 1e-6;
    // One sample per complex event: the quiet latency of the call that
    // returned it.
    let mut detect: Vec<(f64, u32)> = quiet_us
        .iter()
        .copied()
        .zip(rounds[0].emitted.iter().copied())
        .collect();
    let walls = per(&|r| r.wall_s());
    let setup_steps_us = columns(&|r| &r.setup_us);
    Estimates {
        setup_s: setup_steps_us.iter().sum::<f64>() * 1e-6,
        setup_steps_us,
        round_s,
        events_per_s: rounds[0].records as f64 / round_s,
        detect_p50_us: weighted_percentile(&mut detect, 0.50).expect("the input emits"),
        detect_p99_us: weighted_percentile(&mut detect, 0.99).expect("the input emits"),
        cpu_us_per_event: columns(&|r| &r.cpu_us).iter().sum::<f64>() / rounds[0].records as f64,
        disturbed_round_share: disturbed_share(&walls, quiet(&walls, Better::Lower)),
    }
}

/// The end-to-end run: warm up, then measure rounds for `--seconds`.
pub fn run_end_to_end(name: &str, args: &Args) -> Outcome {
    let mut workload = make_workload(name, args.seed);
    for _ in 0..WARM_UP_ROUNDS {
        workload.round();
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        rounds.push(workload.round());
        if rounds.len() == MIN_ROUNDS {
            // Every round allocates the same, so the program's peak is
            // long reached; from here on only the benchmark's own record
            // of the rounds grows, by however many rounds fit the time.
            peak_rss_mb = Some(sys::peak_rss_mib());
        }
        let enough = match args.max_rounds {
            Some(max) => rounds.len() >= max,
            None => rounds.len() >= MIN_ROUNDS && Instant::now() >= deadline,
        };
        if enough {
            break;
        }
    }
    let (finish_attempted, finish_failed) = workload.finish();
    let est = estimates(&rounds);
    eprintln!(
        "perfbench: {name} seed {} rounds {} calls/round {} (each quiet estimate is the mean of \
         the best {}), disturbed_round_share {:.3}, detect samples/round {}, records/round {}, \
         out_fs {}, gen_s {:.3}, set-up steps (us) {:.0?}",
        args.seed,
        rounds.len(),
        rounds[0].calls_us.len(),
        quiet_count(rounds.len()),
        est.disturbed_round_share,
        rounds[0].emitted.iter().map(|&n| u64::from(n)).sum::<u64>(),
        rounds[0].records,
        sys::fs_type(&round::out_dir()),
        workload.gen_s(),
        est.setup_steps_us,
    );
    let values = vec![
        ("setup_s", est.setup_s),
        ("events_per_s", est.events_per_s),
        ("detect_p50_us", est.detect_p50_us),
        ("cpu_us_per_event", est.cpu_us_per_event),
        ("peak_rss_mb", peak_rss_mb.unwrap_or_else(sys::peak_rss_mib)),
    ];
    Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum::<u64>() + finish_attempted,
        failed: rounds.iter().map(|r| r.failed).sum::<u64>() + finish_failed,
        values,
    }
}

/// The traced run. Every per-layer metric is measured the same way
/// whatever `--workload` names: each workload's traced rounds feed the
/// metrics of the layers it exercises. `--workload` picks the subject of
/// the `driver.*` metrics and of the trace file.
pub fn run_traced(subject: &str, args: &Args) -> Outcome {
    let mut layers = Layers::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let share = Duration::from_secs_f64(args.seconds / WORKLOADS.len() as f64);
    for info in &WORKLOADS {
        let mut workload = make_workload(info.name, args.seed);
        workload.round();
        let mut rec = Recorder::new();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut file_spans = None;
        let deadline = Instant::now() + share;
        // Plain and traced rounds alternate, so both see the same host.
        loop {
            plain.push(workload.round());
            traced.push(workload.traced_round(&mut rec, &mut layers));
            if traced.len() == TRACE_FILE_ROUNDS {
                file_spans = Some(rec.mark());
            }
            let enough = match args.max_rounds {
                Some(max) => traced.len() >= max,
                None => traced.len() >= TRACE_FILE_ROUNDS && Instant::now() >= deadline,
            };
            if enough {
                break;
            }
        }
        for r in plain.iter().chain(&traced) {
            attempted += r.attempted;
            failed += r.failed;
        }
        if info.name != subject {
            continue;
        }
        let (plain_est, traced_est) = (estimates(&plain), estimates(&traced));
        for (name, value) in [
            (
                "driver.trace_overhead_share",
                1.0 - plain_est.round_s / traced_est.round_s,
            ),
            (
                "driver.disturbed_round_share",
                plain_est.disturbed_round_share,
            ),
            ("driver.detect_p99_us", plain_est.detect_p99_us),
            ("driver.gen_s", workload.gen_s()),
        ] {
            round::put(&mut layers, name, value);
        }
        let spans = &rec.all()[..file_spans.unwrap_or(rec.mark())];
        let path = round::out_dir().join(format!("trace-{subject}.json"));
        std::fs::write(&path, spans::to_json(subject, args.seed, spans))
            .expect("trace file writes");
        eprintln!(
            "perfbench: {subject}: {} plain and {} traced rounds; {} spans of the first {} → {}",
            plain.len(),
            traced.len(),
            spans.len(),
            traced.len().min(TRACE_FILE_ROUNDS),
            path.display()
        );
    }
    let values = PER_LAYER
        .iter()
        .map(|m| {
            let per_round = layers
                .get(m.name)
                .unwrap_or_else(|| panic!("no traced round measured `{}`", m.name));
            (
                m.name,
                median(per_round).expect("at least one traced round"),
            )
        })
        .collect();
    Outcome {
        attempted,
        failed,
        values,
    }
}

/// Before any workload: make the output directory, and put the process on
/// one CPU and one malloc arena (see [`sys::pin_to_one_cpu`],
/// [`sys::one_malloc_arena`]), saying so.
pub fn prepare_process() {
    std::fs::create_dir_all(round::out_dir()).expect("out directory is creatable");
    let cores = sys::host_cores();
    let cpu = sys::pin_to_one_cpu().map_or("none (the kernel refused)".into(), |c| c.to_string());
    let arena = if sys::one_malloc_arena() {
        "one"
    } else {
        "per thread (the allocator refused)"
    };
    eprintln!("perfbench: host_cores {cores}, pinned to cpu {cpu}, malloc arenas: {arena}");
}

/// One run as the driver invokes it; prints the result line last.
fn run(args: &Args) -> ExitCode {
    let Some(name) = args.workload.as_deref() else {
        usage();
    };
    if !WORKLOADS.iter().any(|w| w.name == name) {
        usage();
    }
    prepare_process();
    let (outcome, table): (Outcome, &[report::Metric]) = if args.trace {
        (run_traced(name, args), &PER_LAYER)
    } else {
        (run_end_to_end(name, args), &END_TO_END)
    };
    let _ = std::fs::remove_dir_all(scratch_dir());
    println!("{}", outcome.result_line(table));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let (mode, args) = parse_args();
    match mode {
        Mode::Run => run(&args),
        Mode::Selfcheck => selfcheck::selfcheck(&args),
        Mode::Quick => selfcheck::quick(&args),
        Mode::PrintManifest => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
    }
}
