//! The fan-in block: the one pre-generated input the three matched
//! workloads (`fanin_embedded`, `fanin_durable`, `serve_wire`) are fed,
//! its standing queries, and the reference emissions every round is
//! checked against.
//!
//! The generator is the benchmark's own (SplitMix64), so a change to the
//! program's generators cannot change the benchmark's inputs.

use std::time::Instant;

use sase::core::event::{Event, SchemaRegistry};
use sase::core::value::{Value, ValueType};
use sase::{RoutingMode, Sase};

/// Distinct event types `T0..T127`; one standing query per type.
pub const TYPES: usize = 128;
/// Distinct `TagId` values (PAIS partitions per query).
pub const PARTITIONS: u64 = 32;
/// Events in the block, i.e. in one round.
pub const EVENTS: usize = 65_536;
/// Events per `process` / ingest call.
pub const BATCH: usize = 512;
/// `WITHIN` of every standing query, in ticks (one tick per event).
pub const WINDOW: u64 = 64;

/// SplitMix64: small, seedable, and owned by the benchmark.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a, the checksum of one rendered emission.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Order-independent checksum of a set of rendered emissions.
pub fn checksum<S: AsRef<str>>(rendered: impl IntoIterator<Item = S>) -> u64 {
    rendered.into_iter().fold(0u64, |acc, s| {
        acc.wrapping_add(fnv1a(s.as_ref().as_bytes()))
    })
}

/// What a correct round emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Emissions per batch.
    pub per_batch: Vec<u32>,
    pub total: u64,
    pub checksum: u64,
}

pub struct Block {
    pub registry: SchemaRegistry,
    pub events: Vec<Event>,
    /// `(name, source)` of the standing queries, in registration order.
    pub queries: Vec<(String, String)>,
    pub reference: Reference,
    /// Seconds spent generating the block and its reference (never timed
    /// as part of a round).
    pub gen_s: f64,
}

/// Standing query `i`: a two-step sequence over adjacent types, so each
/// query watches 2 of the 128 types.
pub fn query_src(i: usize) -> String {
    let (a, b) = (i % TYPES, (i + 1) % TYPES);
    format!(
        "EVENT SEQ(T{a} x, T{b} y) WHERE x.TagId = y.TagId WITHIN {WINDOW} RETURN x.TagId AS tag"
    )
}

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    for t in 0..TYPES {
        reg.register(
            &format!("T{t}"),
            &[
                ("TagId", ValueType::Int),
                ("ProductName", ValueType::Str),
                ("AreaId", ValueType::Int),
            ],
        )
        .expect("fresh registry accepts the block's types");
    }
    reg
}

/// The block's events: uniform over types and tags, one tick apart.
pub fn generate_events(registry: &SchemaRegistry, seed: u64, n: usize) -> Vec<Event> {
    let mut rng = SplitMix64(seed);
    let names: Vec<String> = (0..TYPES).map(|t| format!("T{t}")).collect();
    (0..n)
        .map(|i| {
            let ty = rng.below(TYPES as u64) as usize;
            let tag = rng.below(PARTITIONS) as i64;
            let area = 1 + rng.below(4) as i64;
            registry
                .build_event(
                    &names[ty],
                    i as u64 + 1,
                    vec![
                        Value::Int(tag),
                        Value::str(format!("product-{tag}")),
                        Value::Int(area),
                    ],
                )
                .expect("the block's types are registered")
        })
        .collect()
}

/// Register the standing queries on a deployment.
pub fn register_all(sase: &mut Sase, queries: &[(String, String)]) {
    for (name, src) in queries {
        sase.register(name, src).expect("standing query registers");
    }
}

/// Reference emissions, computed on a path the measured workloads do not
/// take: an embedded deployment that offers every event to every query.
fn reference(
    registry: &SchemaRegistry,
    events: &[Event],
    queries: &[(String, String)],
) -> Reference {
    let mut sase = Sase::builder()
        .schemas(registry.clone())
        .routing(RoutingMode::ScanAll)
        .build()
        .expect("reference deployment builds");
    register_all(&mut sase, queries);
    let mut per_batch = Vec::new();
    let mut sum = 0u64;
    for chunk in events.chunks(BATCH) {
        let out = sase.process(chunk).expect("reference batch");
        per_batch.push(out.len() as u32);
        sum = sum.wrapping_add(checksum(out.iter().map(|ce| ce.to_string())));
    }
    Reference {
        total: per_batch.iter().map(|&n| u64::from(n)).sum(),
        per_batch,
        checksum: sum,
    }
}

impl Block {
    pub fn generate(seed: u64) -> Block {
        let start = Instant::now();
        let registry = registry();
        let events = generate_events(&registry, seed, EVENTS);
        let queries: Vec<(String, String)> = (0..TYPES)
            .map(|i| (format!("q{i}"), query_src(i)))
            .collect();
        let reference = reference(&registry, &events, &queries);
        assert!(
            reference.total > 0,
            "the block must produce complex events to detect"
        );
        Block {
            registry,
            events,
            queries,
            reference,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn batches(&self) -> usize {
        self.events.len().div_ceil(BATCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase::store::codec::{put_event, ByteWriter};

    fn bytes_of(seed: u64) -> Vec<u8> {
        let reg = registry();
        let mut w = ByteWriter::new();
        for e in generate_events(&reg, seed, 4096) {
            put_event(&mut w, &e);
        }
        w.into_bytes()
    }

    #[test]
    fn generator_is_byte_deterministic_per_seed() {
        assert_eq!(bytes_of(7), bytes_of(7));
    }

    #[test]
    fn different_seeds_give_different_blocks() {
        assert_ne!(bytes_of(7), bytes_of(11));
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        assert_eq!(checksum(["a", "b", "c"]), checksum(["c", "a", "b"]));
        assert_ne!(checksum(["a", "b"]), checksum(["a", "c"]));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64(1);
        assert!((0..10_000).all(|_| rng.below(32) < 32));
    }
}
