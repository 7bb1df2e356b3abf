//! Synthetic event streams with controlled shape.
//!
//! Streams follow the evaluation methodology of the paper's companion
//! system paper: a controlled number of value partitions (distinct tag
//! ids), a controlled event-type mix, and a controlled arrival rate. The
//! differential harness (`tests/scenarios`) draws realistic streams
//! from here to hold every deployment to the oracle, and
//! `tests/paper_queries.rs` runs the paper's queries over them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sase_core::event::{Event, SchemaRegistry};
use sase_core::value::{Value, ValueType};

/// Parameters of a synthetic stream.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// RNG seed; equal configs generate identical streams.
    pub seed: u64,
    /// Number of events to generate.
    pub events: usize,
    /// Number of distinct `TagId` values (value partitions).
    pub partitions: usize,
    /// Event-type mix: `(type name, weight)`. Weights need not sum to
    /// anything in particular.
    pub type_mix: Vec<(String, u32)>,
    /// Timestamps advance by a value drawn uniformly from
    /// `1..=max_ts_step` per event (strictly increasing).
    pub max_ts_step: u64,
    /// Number of distinct `AreaId` values.
    pub areas: i64,
}

impl SyntheticConfig {
    /// A retail-shaped mix over the three demo reading types.
    pub fn retail(seed: u64, events: usize, partitions: usize) -> Self {
        SyntheticConfig {
            seed,
            events,
            partitions,
            type_mix: vec![
                ("SHELF_READING".to_string(), 5),
                ("COUNTER_READING".to_string(), 3),
                ("EXIT_READING".to_string(), 2),
            ],
            max_ts_step: 1,
            areas: 4,
        }
    }
}

/// Register the synthetic stream's schemas (the retail reading triple) on a
/// fresh registry. Additional custom types named in `type_mix` are
/// registered with the same attribute triple.
pub fn registry_for(cfg: &SyntheticConfig) -> SchemaRegistry {
    let registry = SchemaRegistry::new();
    for (name, _) in &cfg.type_mix {
        registry
            .register(
                name,
                &[
                    ("TagId", ValueType::Int),
                    ("ProductName", ValueType::Str),
                    ("AreaId", ValueType::Int),
                ],
            )
            .expect("fresh registry");
    }
    registry
}

/// Generate the stream for a config against a registry that has the
/// config's event types registered.
pub fn generate(registry: &SchemaRegistry, cfg: &SyntheticConfig) -> Vec<Event> {
    assert!(cfg.partitions > 0, "at least one partition");
    assert!(!cfg.type_mix.is_empty(), "at least one event type");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total_weight: u32 = cfg.type_mix.iter().map(|(_, w)| *w).sum();
    assert!(total_weight > 0, "weights must not all be zero");

    let mut out = Vec::with_capacity(cfg.events);
    let mut ts: u64 = 0;
    for _ in 0..cfg.events {
        ts += rng.gen_range(1..=cfg.max_ts_step.max(1));
        let mut pick = rng.gen_range(0..total_weight);
        let ty = cfg
            .type_mix
            .iter()
            .find(|(_, w)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map(|(n, _)| n.as_str())
            .expect("weights sum checked");
        let tag = rng.gen_range(0..cfg.partitions) as i64;
        let area = rng.gen_range(1..=cfg.areas.max(1));
        let event = registry
            .build_event(
                ty,
                ts,
                vec![
                    Value::Int(tag),
                    Value::str(format!("product-{tag}")),
                    Value::Int(area),
                ],
            )
            .expect("schema registered by registry_for");
        out.push(event);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_shape() {
        let cfg = SyntheticConfig::retail(1, 1000, 10);
        let reg = registry_for(&cfg);
        let events = generate(&reg, &cfg);
        assert_eq!(events.len(), 1000);
        // Strictly increasing timestamps.
        assert!(events
            .windows(2)
            .all(|w| w[0].timestamp() < w[1].timestamp()));
        // All partitions used.
        let mut tags: Vec<i64> = events
            .iter()
            .map(|e| e.attr("TagId").unwrap().as_int().unwrap())
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 10);
        // Mix roughly follows the weights (5:3:2 over 1000 events).
        let shelves = events
            .iter()
            .filter(|e| e.type_name() == "SHELF_READING")
            .count();
        assert!((350..650).contains(&shelves), "shelves: {shelves}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::retail(7, 100, 5);
        let reg = registry_for(&cfg);
        let a: Vec<u64> = generate(&reg, &cfg).iter().map(|e| e.timestamp()).collect();
        let b: Vec<u64> = generate(&reg, &cfg).iter().map(|e| e.timestamp()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_types() {
        let cfg = SyntheticConfig {
            seed: 1,
            events: 50,
            partitions: 2,
            type_mix: vec![("A".into(), 1), ("B".into(), 1)],
            max_ts_step: 3,
            areas: 2,
        };
        let reg = registry_for(&cfg);
        let events = generate(&reg, &cfg);
        assert!(events
            .iter()
            .all(|e| e.type_name() == "A" || e.type_name() == "B"));
    }
}
