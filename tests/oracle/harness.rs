//! How the tests hold the engine to the oracle: the two stream generators
//! and the comparison of what each one matches.

use proptest::prelude::*;

use sase::core::engine::Engine;
use sase::core::lang::parse_query;
use sase::core::value::Value;
use sase::core::{Event, SchemaRegistry};
use sase::rfid::generator::{generate, registry_for, SyntheticConfig};

/// One event of an arbitrary soup over the retail reading types.
#[derive(Debug, Clone)]
pub struct RawEvent {
    /// 0 = SHELF, 1 = COUNTER, 2 = EXIT.
    pub ty: usize,
    pub ts_gap: u64,
    pub tag: i64,
    pub area: i64,
}

/// Arbitrary soups: dense collisions over tiny tag and area domains.
pub fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<RawEvent>> {
    prop::collection::vec(
        (0usize..3, 0u64..4, 0i64..4, 1i64..5).prop_map(|(ty, ts_gap, tag, area)| RawEvent {
            ty,
            ts_gap,
            tag,
            area,
        }),
        0..max_len,
    )
}

/// Build a soup's events; a gap of 0 repeats the previous timestamp.
pub fn materialize(registry: &SchemaRegistry, raw: &[RawEvent]) -> Vec<Event> {
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

/// A realistic generator workload and the registry its types live in.
pub fn generator_stream(cfg: &SyntheticConfig) -> (SchemaRegistry, Vec<Event>) {
    let registry = registry_for(cfg);
    let stream = generate(&registry, cfg);
    (registry, stream)
}

/// Canonical form of a match set: each match as its rendered events, the
/// matches sorted (a multiset, so duplicates still count).
fn canonical<'a>(matches: impl Iterator<Item = &'a [Event]>) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = matches
        .map(|m| m.iter().map(|e| e.to_string()).collect())
        .collect();
    out.sort();
    out
}

/// What a fresh engine emits for `query` over `stream`. Host functions the
/// query calls are stubbed: they can only appear in `RETURN`, which does
/// not decide what matches.
fn engine_matches(registry: &SchemaRegistry, stream: &[Event], query: &str) -> Vec<Vec<String>> {
    let mut engine = Engine::new(registry.clone());
    let parsed = parse_query(query).expect("query parses");
    for name in parsed.called_functions() {
        if engine.functions().resolve(&name).is_err() {
            engine
                .functions()
                .register_fn(&name, None, |_| Ok(Value::Bool(true)));
        }
    }
    engine
        .register("q", query)
        .expect("the engine plans the query");
    let out = engine
        .process_batch(stream)
        .expect("the engine processes the stream");
    canonical(out.iter().map(|ce| &ce.events[..]))
}

/// What the oracle matches for `query` over `stream`.
fn oracle_matches(stream: &[Event], query: &str) -> Vec<Vec<String>> {
    let parsed = parse_query(query).expect("query parses");
    let matches = super::matches(&parsed, stream);
    canonical(matches.iter().map(Vec::as_slice))
}

/// Assert that the engine and the oracle match the same tuples; returns how
/// many there are.
pub fn assert_engine_matches_oracle(
    registry: &SchemaRegistry,
    stream: &[Event],
    query: &str,
) -> usize {
    let want = oracle_matches(stream, query);
    let got = engine_matches(registry, stream, query);
    assert_eq!(got, want, "engine and oracle disagree on {query}");
    want.len()
}
