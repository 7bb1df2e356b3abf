//! Differential testing: every planner configuration must produce the same
//! match set on the same stream — the optimizations (PAIS, window pushdown,
//! predicate pushdown, indexed negation) are performance-only.
//!
//! Two layers of coverage:
//!
//! * proptest properties driving **random** streams (both realistic
//!   generator workloads and fully arbitrary event soups) through the full
//!   17-configuration matrix, ≥100 cases each;
//! * the seed's deterministic large-stream regressions, kept as anchors.

use proptest::prelude::*;

use sase::core::functions::FunctionRegistry;
use sase::core::lang::parse_query;
use sase::core::plan::{Planner, PlannerOptions, SequenceStrategy};
use sase::core::runtime::QueryRuntime;
use sase::core::value::Value;
use sase::core::{Event, SchemaRegistry};
use sase::rfid::generator::{generate, registry_for, SyntheticConfig};

fn all_configs() -> Vec<PlannerOptions> {
    let mut out = Vec::new();
    for partition in [true, false] {
        for window in [true, false] {
            for single in [true, false] {
                for neg_idx in [true, false] {
                    out.push(PlannerOptions {
                        pushdown_partition: partition,
                        pushdown_window: window,
                        pushdown_single_event_predicates: single,
                        indexed_negation: neg_idx,
                        strategy: SequenceStrategy::Ssc,
                    });
                }
            }
        }
    }
    out.push(PlannerOptions::naive());
    out
}

fn canonical_matches(
    registry: &SchemaRegistry,
    events: &[Event],
    query: &str,
    options: PlannerOptions,
) -> Vec<Vec<u64>> {
    let planner = Planner::new(registry.clone(), FunctionRegistry::with_stdlib());
    let q = parse_query(query).unwrap();
    let plan = planner.plan_with(&q, options).unwrap();
    let mut rt = QueryRuntime::new("diff", plan);
    let out = rt.process_all(events).unwrap();
    let mut canon: Vec<Vec<u64>> = out
        .iter()
        .map(|ce| ce.events.iter().map(|e| e.timestamp()).collect())
        .collect();
    canon.sort();
    canon
}

/// Assert the whole config matrix agrees on one stream.
fn assert_configs_agree(registry: &SchemaRegistry, stream: &[Event], query: &str) {
    let reference = canonical_matches(registry, stream, query, PlannerOptions::default());
    for options in all_configs() {
        let got = canonical_matches(registry, stream, query, options);
        assert_eq!(reference, got, "{options:?} disagrees on {query}");
    }
}

/// The query shapes under differential test: sequences, negation,
/// equivalence shorthand, mixed predicates, ANY patterns, and an
/// unbounded window.
const QUERIES: [&str; 7] = [
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId WITHIN 120",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 150",
    "EVENT SEQ(SHELF_READING a, COUNTER_READING b, EXIT_READING c) \
     WHERE [TagId] WITHIN 200",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
     WHERE x.TagId = z.TagId AND x.AreaId != z.AreaId AND z.AreaId >= 2 WITHIN 100",
    "EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) a, EXIT_READING b) \
     WHERE a.TagId = b.TagId WITHIN 80",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId AND y.AreaId = 3 WITHIN 150",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId",
];

// ---------------------------------------------------------------------------
// Property layer: random streams, ≥100 cases per property
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// Every planner configuration agrees with every other on realistic
    /// generator workloads with randomized seed, size, skew, and query.
    #[test]
    fn configs_agree_on_random_generator_streams(
        seed in any::<u64>(),
        events in 80usize..280,
        partitions in 2usize..10,
        qidx in 0usize..7,
    ) {
        let cfg = SyntheticConfig::retail(seed, events, partitions);
        let registry = registry_for(&cfg);
        let stream = generate(&registry, &cfg);
        assert_configs_agree(&registry, &stream, QUERIES[qidx]);
    }
}

#[derive(Debug, Clone)]
struct RawEvent {
    ty: usize, // 0 = SHELF, 1 = COUNTER, 2 = EXIT
    ts_gap: u64,
    tag: i64,
    area: i64,
}

fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<RawEvent>> {
    prop::collection::vec(
        (0usize..3, 1u64..4, 0i64..4, 1i64..5).prop_map(|(ty, ts_gap, tag, area)| RawEvent {
            ty,
            ts_gap,
            tag,
            area,
        }),
        0..max_len,
    )
}

fn materialize(registry: &SchemaRegistry, raw: &[RawEvent]) -> Vec<Event> {
    const TYPES: [&str; 3] = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"];
    let mut ts = 0;
    raw.iter()
        .map(|r| {
            ts += r.ts_gap;
            registry
                .build_event(
                    TYPES[r.ty],
                    ts,
                    vec![Value::Int(r.tag), Value::str("p"), Value::Int(r.area)],
                )
                .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// Every planner configuration agrees on fully arbitrary event soups
    /// (dense collisions, tiny tag/area domains) for every query shape.
    #[test]
    fn configs_agree_on_arbitrary_streams(raw in arb_stream(60), qidx in 0usize..7) {
        let registry = sase::core::event::retail_registry();
        let stream = materialize(&registry, &raw);
        assert_configs_agree(&registry, &stream, QUERIES[qidx]);
    }
}

// ---------------------------------------------------------------------------
// Deterministic layer: the seed's large-stream regression anchors
// ---------------------------------------------------------------------------

fn check_query(query: &str, seeds: &[u64], events: usize, partitions: usize) {
    for &seed in seeds {
        check_workload(query, &SyntheticConfig::retail(seed, events, partitions));
    }
}

fn check_workload(query: &str, cfg: &SyntheticConfig) {
    let seed = cfg.seed;
    let registry = registry_for(cfg);
    let stream = generate(&registry, cfg);
    let reference = canonical_matches(&registry, &stream, query, PlannerOptions::default());
    for options in all_configs() {
        let got = canonical_matches(&registry, &stream, query, options);
        assert_eq!(
            reference, got,
            "seed {seed}: {options:?} disagrees on {query}"
        );
    }
    assert!(
        !reference.is_empty(),
        "seed {seed}: workload produced no matches for {query} — weak test"
    );
}

#[test]
fn differential_two_step_equality() {
    check_query(QUERIES[0], &[1, 2, 3], 1_500, 8);
}

#[test]
fn differential_q1_with_negation() {
    check_query(QUERIES[1], &[4, 5, 6], 1_500, 6);
}

#[test]
fn differential_equivalence_shorthand_three_steps() {
    check_query(QUERIES[2], &[7, 8], 1_200, 5);
}

#[test]
fn differential_mixed_predicates() {
    check_query(QUERIES[3], &[9, 10], 1_500, 6);
}

#[test]
fn differential_any_pattern() {
    check_query(QUERIES[4], &[11, 12], 1_200, 6);
}

#[test]
fn differential_negation_with_candidate_filter() {
    check_query(QUERIES[5], &[13, 14], 1_500, 5);
}

#[test]
fn differential_unbounded_window() {
    // No WITHIN clause at all: matches accumulate over the whole stream.
    check_query(QUERIES[6], &[15], 400, 10);
}

#[test]
fn differential_four_steps_over_custom_types() {
    // The longest positive sequence under test, over a non-retail type mix.
    let cfg = SyntheticConfig {
        seed: 16,
        events: 600,
        partitions: 5,
        type_mix: (0..4).map(|i| (format!("T{i}"), 1)).collect(),
        max_ts_step: 1,
        areas: 4,
    };
    check_workload(
        "EVENT SEQ(T0 a, T1 b, T2 c, T3 d) WHERE [TagId] WITHIN 40",
        &cfg,
    );
}
