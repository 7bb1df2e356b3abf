//! Differential testing against the oracle: on the same stream the engine
//! must emit exactly the matches that the language's definition gives
//! (`tests/oracle`). The oracle shares only the parser with the engine, so
//! a planner, predicate-compiler or runtime bug cannot hide in both.
//!
//! [`QUERIES`] holds one query per runtime configuration the planner can
//! select from a query's shape: PAIS or unpartitioned SSC, indexed or flat
//! negation buffers, pushed single-variable predicates, `ANY` components,
//! same-type sequences, one component, an unbounded window, and the key
//! shapes a runtime's offer table reads: one integer part, two parts (with
//! and without negation buckets), and a string. An anchor over custom types
//! adds the key attribute read per event type.
//!
//! Two layers of coverage:
//!
//! * proptest properties driving **random** streams (both realistic
//!   generator workloads and fully arbitrary event soups) through every
//!   query shape, 112 cases each;
//! * deterministic large-stream anchors, each of which must match.

mod oracle;

use proptest::prelude::*;

use oracle::harness::{arb_stream, assert_engine_matches_oracle, generator_stream, materialize};
use sase::core::value::{Value, ValueType};
use sase::core::{Event, SchemaRegistry};
use sase::rfid::generator::SyntheticConfig;

/// The query shapes under differential test.
const QUERIES: [&str; 14] = [
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
    // No equality: unpartitioned SSC.
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.AreaId < z.AreaId WITHIN 30",
    // The partition does not cover the negated slot: a flat negation buffer.
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = z.TagId AND y.AreaId = 3 WITHIN 60",
    // The paper's Q2: both components of one type.
    "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
     WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 100",
    // One component.
    "EVENT COUNTER_READING c WHERE c.AreaId >= 3",
    // A two-part partition key.
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
     WHERE x.TagId = z.TagId AND x.AreaId = z.AreaId WITHIN 120",
    // A two-part key that also covers the negated slot: two-part buckets.
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
     WHERE x.TagId = y.TagId AND x.TagId = z.TagId \
     AND x.AreaId = y.AreaId AND x.AreaId = z.AreaId WITHIN 150",
    // A string key.
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.ProductName = z.ProductName WITHIN 60",
];

// ---------------------------------------------------------------------------
// Property layer: random streams, ≥100 cases per property
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// Every query shape, and so every runtime configuration the planner
    /// selects, agrees with the oracle on realistic generator workloads
    /// with randomized seed, size, skew, and query.
    #[test]
    fn configs_agree_on_random_generator_streams(
        seed in any::<u64>(),
        events in 80usize..280,
        partitions in 2usize..10,
        qidx in 0usize..QUERIES.len(),
    ) {
        let (registry, stream) = generator_stream(&SyntheticConfig::retail(seed, events, partitions));
        assert_engine_matches_oracle(&registry, &stream, QUERIES[qidx]);
    }

    /// Every query shape agrees with the oracle on fully arbitrary event
    /// soups (dense collisions, tiny tag/area domains).
    #[test]
    fn configs_agree_on_arbitrary_streams(raw in arb_stream(60), qidx in 0usize..QUERIES.len()) {
        let registry = sase::core::event::retail_registry();
        let stream = materialize(&registry, &raw);
        assert_engine_matches_oracle(&registry, &stream, QUERIES[qidx]);
    }
}

// ---------------------------------------------------------------------------
// Deterministic layer: large-stream regression anchors
// ---------------------------------------------------------------------------

fn check_query(query: &str, seeds: &[u64], events: usize, partitions: usize) {
    for &seed in seeds {
        check_workload(query, &SyntheticConfig::retail(seed, events, partitions));
    }
}

fn check_workload(query: &str, cfg: &SyntheticConfig) {
    let (registry, stream) = generator_stream(cfg);
    let matched = assert_engine_matches_oracle(&registry, &stream, query);
    assert!(
        matched > 0,
        "seed {}: workload produced no matches for {query} — weak test",
        cfg.seed
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
fn differential_unpartitioned_sequence() {
    check_query(QUERIES[7], &[17, 18], 1_200, 6);
}

#[test]
fn differential_flat_negation_buffer() {
    check_query(QUERIES[8], &[19, 20], 1_500, 6);
}

#[test]
fn differential_same_type_sequence() {
    check_query(QUERIES[9], &[21, 22], 1_200, 6);
}

#[test]
fn differential_single_component() {
    check_query(QUERIES[10], &[23], 600, 6);
}

#[test]
fn differential_two_part_key() {
    check_query(QUERIES[11], &[25, 26], 1_500, 6);
}

#[test]
fn differential_two_part_key_with_negation() {
    check_query(QUERIES[12], &[27, 28], 1_500, 4);
}

#[test]
fn differential_string_key() {
    check_query(QUERIES[13], &[29], 1_200, 6);
}

#[test]
fn differential_any_with_key_at_different_positions() {
    // `TagId` sits at a different position in each candidate type of
    // `ANY(A, B)` and of `ANY(B, C)`, so their keys resolve per event type.
    // The generator's types share one layout and cannot produce this.
    let registry = SchemaRegistry::new();
    registry
        .register(
            "A",
            &[("TagId", ValueType::Int), ("AreaId", ValueType::Int)],
        )
        .unwrap();
    registry
        .register(
            "B",
            &[("AreaId", ValueType::Int), ("TagId", ValueType::Int)],
        )
        .unwrap();
    registry
        .register(
            "C",
            &[
                ("AreaId", ValueType::Int),
                ("Label", ValueType::Str),
                ("TagId", ValueType::Int),
            ],
        )
        .unwrap();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let stream: Vec<Event> = (1..=600u64)
        .map(|ts| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let tag = Value::Int(((state >> 8) % 5) as i64);
            let area = Value::Int(1 + ((state >> 24) % 3) as i64);
            let (ty, attrs) = match state % 3 {
                0 => ("A", vec![tag, area]),
                1 => ("B", vec![area, tag]),
                _ => ("C", vec![area, Value::str("c"), tag]),
            };
            registry.build_event(ty, ts, attrs).unwrap()
        })
        .collect();
    let matched = assert_engine_matches_oracle(
        &registry,
        &stream,
        "EVENT SEQ(ANY(A, B) a, !(ANY(B, C) n), C c) \
         WHERE a.TagId = n.TagId AND a.TagId = c.TagId WITHIN 30",
    );
    assert!(matched > 0, "the stream produced no matches — weak test");
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
