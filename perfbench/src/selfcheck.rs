//! `--selfcheck` (do two sets of runs of the same code agree within the
//! benchmark's own bounds?) and `--quick` (does every workload run, check
//! its outputs and print its schema?).

use std::process::{Command, ExitCode, Stdio};

use crate::report::{bound_of, count_in, value_in, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;

/// One end-to-end run in a process of its own, exactly as the driver
/// starts it (peak memory is per process). Returns the result line.
fn child_run(workload: &str, args: &Args) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .expect("child run starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last()?.to_string();
    out.status.success().then_some(line)
}

/// Run the full set twice, workloads interleaved (A B C D A B C D), and
/// compare each metric's two values with its bound. Each run's
/// `disturbed_round_share` is on standard error, so a noisy host can be
/// told from a noisy benchmark.
pub fn selfcheck(args: &Args) -> ExitCode {
    let mut sets: Vec<Vec<Option<String>>> = Vec::new();
    for set in 0..2 {
        eprintln!("perfbench: selfcheck set {}", set + 1);
        sets.push(WORKLOADS.iter().map(|w| child_run(w.name, args)).collect());
    }
    let mut breaches = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (Some(first), Some(second)) = (&sets[0][i], &sets[1][i]) else {
            println!("{:<16} a run failed or reported failed operations", w.name);
            breaches += 1;
            continue;
        };
        for line in [first, second] {
            if count_in(line, "failed") != Some(0) {
                println!("{:<16} reported failed operations: {line}", w.name);
                breaches += 1;
            }
        }
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (value_in(first, m.name), value_in(second, m.name)) else {
                println!("{:<16} {:<18} missing from a result line", w.name, m.name);
                breaches += 1;
                continue;
            };
            // Same code on both sides: neither may be worse than the
            // other by more than the bound.
            let diff = (a - b).abs() / a.min(b);
            let bound = bound_of(m.name);
            let verdict = if diff <= bound { "" } else { "  BREACH" };
            breaches += usize::from(diff > bound);
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>6.2}{verdict}",
                w.name, m.name, a, b, diff, bound
            );
        }
    }
    if breaches == 0 {
        println!("selfcheck: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

/// All four workloads at eight rounds each, plus one two-round traced
/// run: checks outputs and the printed schema, measures nothing worth
/// quoting.
pub fn quick(args: &Args) -> ExitCode {
    let args = Args {
        max_rounds: Some(8),
        ..args.clone()
    };
    crate::prepare_process();
    let mut ok = true;
    for w in &WORKLOADS {
        let outcome = crate::run_end_to_end(w.name, &args);
        ok &= outcome.correct() && outcome.values.len() == END_TO_END.len();
        println!("{} {}", w.name, outcome.result_line(&END_TO_END));
    }
    let traced = crate::run_traced(
        WORKLOADS[0].name,
        &Args {
            max_rounds: Some(2),
            ..args
        },
    );
    ok &= traced.correct() && traced.values.len() == PER_LAYER.len();
    println!("traced {}", traced.result_line(&PER_LAYER));
    let _ = std::fs::remove_dir_all(crate::scratch_dir());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
