//! The benchmark's contract in one place: workloads, metrics, bounds, the
//! `BENCHMARK.json` generated from them, and the result line a run prints.

use crate::estimate::Better;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

/// Share of the parent's median an end-to-end metric may worsen by.
pub const BOUND: f64 = 0.1;
/// Set-up is a few milliseconds of work per round, so it gets the widest
/// bound.
pub const SETUP_BOUND: f64 = 0.2;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "fanin_embedded",
        why: "128 queries over 128 types through Sase::process: sase-core does all the work, so this is the baseline every tax is divided by",
    },
    WorkloadInfo {
        name: "fanin_durable",
        why: "the same stream, queries and batches appended to the WAL before the engine sees them: the tax of sase-store and the durable decorator, engine work unchanged",
    },
    WorkloadInfo {
        name: "serve_wire",
        why: "the same stream over loopback with acked ingest beside push fan-out: sase-server codec, command queue and sockets dominate",
    },
    WorkloadInfo {
        name: "retail_pipeline",
        why: "the paper's demo through SaseSystem::tick: database built-ins called from negation queries, simulator, cleaning, per-tick glue; router, WAL and wire changes must not move it",
    },
];

pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    Metric {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    Metric {
        name: "detect_p50_us",
        unit: "us",
        better: Better::Lower,
    },
    Metric {
        name: "cpu_us_per_event",
        unit: "us",
        better: Better::Lower,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
    },
];

pub fn bound_of(metric: &str) -> f64 {
    if metric == "setup_s" {
        SETUP_BOUND
    } else {
        BOUND
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `layer.metric`, in the order the README explains them. "Better" for a
/// pure count is the direction that means less work per input.
pub const PER_LAYER: [Metric; 56] = [
    // sase-core, on the fan-in block
    lower("core.parse_us_per_query", "us"),
    lower("core.plan_us_per_query", "us"),
    lower("core.analyze_us_per_query", "us"),
    lower("core.engine_us_per_batch", "us"),
    lower("core.facade_overhead_share", "share"),
    lower("core.single_query_ns_per_event", "ns"),
    lower("core.events_offered_per_event", "count"),
    higher("core.router_hit_share", "share"),
    lower("core.instances_appended_per_event", "count"),
    lower("core.sequences_constructed_per_event", "count"),
    higher("core.construct_useful_share", "share"),
    higher("core.matches_per_kevent", "count"),
    lower("core.partitions_live", "count"),
    lower("core.snapshot_ms", "ms"),
    lower("core.snapshot_bytes", "bytes"),
    // sase-core, on the retail scenario (the only negation in the set)
    lower("core.negation_drops_per_kevent", "count"),
    // sase-obs
    lower("obs.metrics_overhead_share", "share"),
    lower("obs.render_us", "us"),
    // sase-store and the durable decorator
    lower("store.append_us_per_batch", "us"),
    lower("store.commit_us_per_batch", "us"),
    lower("store.bytes_per_event", "bytes"),
    lower("store.fsyncs_per_batch", "count"),
    higher("store.replay_events_per_s", "1/s"),
    lower("store.checkpoint_ms", "ms"),
    lower("store.recover_ms", "ms"),
    lower("system.durable_overhead_share", "share"),
    // sase-server
    lower("server.req_encode_us_per_batch", "us"),
    lower("server.req_decode_us_per_batch", "us"),
    lower("server.resp_encode_us_per_batch", "us"),
    lower("server.resp_decode_us_per_batch", "us"),
    lower("server.frame_bytes_per_event", "bytes"),
    lower("server.ping_rtt_us", "us"),
    lower("server.ack_rtt_us", "us"),
    lower("server.wire_share", "share"),
    lower("server.push_lag_us", "us"),
    lower("server.push_detect_p50_us", "us"),
    higher("server.pushes_per_batch", "count"),
    lower("server.pushes_dropped", "count"),
    // sase-rfid, sase-stream, sase-db and the per-tick glue
    lower("rfid.sim_us_per_tick", "us"),
    lower("rfid.frame_encode_us_per_tick", "us"),
    lower("rfid.frame_decode_us_per_tick", "us"),
    higher("rfid.readings_per_tick", "count"),
    lower("stream.clean_us_per_tick", "us"),
    higher("stream.events_out_per_reading", "count"),
    higher("stream.dedup_drop_share", "share"),
    lower("db.update_location_us", "us"),
    lower("db.current_location_us", "us"),
    lower("system.tick_us", "us"),
    lower("system.engine_share_of_tick", "share"),
    // sharding: counts and replica timings only (workers + router exceed
    // the host's two cores, so there is no sharded wall-clock workload)
    lower("system.sharded_by_key_us_per_batch", "us"),
    lower("system.sharded_by_query_us_per_batch", "us"),
    lower("system.shard_imbalance_ratio", "ratio"),
    // the benchmark itself, for the workload the traced run names
    lower("driver.trace_overhead_share", "share"),
    lower("driver.disturbed_round_share", "share"),
    lower("driver.detect_p99_us", "us"),
    lower("driver.gen_s", "s"),
];

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, generated so the file and the program cannot drift
/// (a unit test compares the committed file with this).
pub fn manifest() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                bound_of(m.name)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// What one run found, ready to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind, in table order.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The run's last line of standard output.
    pub fn result_line(&self, table: &[Metric]) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, value)| {
                let unit = table
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
                    .unit;
                assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The number that follows `key` in a result line.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(key).nth(1)?;
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Read one metric's value back out of a result line (for `--selfcheck`,
/// which runs this program as child processes).
pub fn value_in(line: &str, metric: &str) -> Option<f64> {
    number_after(line, &format!("\"{metric}\": {{\"value\": "))
}

/// Read a whole-number field (`attempted`, `failed`) out of a result line.
pub fn count_in(line: &str, field: &str) -> Option<u64> {
    number_after(line, &format!("\"{field}\": ")).map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| bound_of(m.name) <= 0.25));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `cargo run --release -- --print-manifest > ../BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_round_trips_through_the_readers() {
        let outcome = Outcome {
            attempted: 128,
            failed: 0,
            values: vec![("setup_s", 0.0123), ("events_per_s", 2.5e6)],
        };
        let line = outcome.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 128, \"failed\": 0"));
        assert_eq!(value_in(&line, "setup_s"), Some(0.0123));
        assert_eq!(value_in(&line, "events_per_s"), Some(2.5e6));
        assert_eq!(value_in(&line, "peak_rss_mb"), None);
        assert_eq!(count_in(&line, "attempted"), Some(128));
        assert_eq!(count_in(&line, "failed"), Some(0));
    }
}
