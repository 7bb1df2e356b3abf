//! Anomaly Filtering Layer (§3, component 1): "removes spurious readings
//! and readings that contain truncated ids."

use crate::config::CleaningConfig;
use crate::reading::{CleanReading, RawReading, RawTag};

/// Counters of the anomaly filter's work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyStats {
    /// Readings offered.
    pub seen: u64,
    /// Readings dropped for a truncated tag id.
    pub dropped_truncated: u64,
    /// Readings dropped for an implausible (spurious/ghost) tag code.
    pub dropped_spurious: u64,
    /// Readings passed through.
    pub passed: u64,
}

/// The anomaly filter. Stateless apart from counters.
#[derive(Debug, Default)]
pub struct AnomalyFilter {
    stats: AnomalyStats,
}

impl AnomalyFilter {
    /// Create a filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> AnomalyStats {
        self.stats
    }

    /// Filter one reading.
    pub fn process(&mut self, cfg: &CleaningConfig, reading: &RawReading) -> Option<CleanReading> {
        self.stats.seen += 1;
        match reading.tag {
            RawTag::Truncated { .. } => {
                self.stats.dropped_truncated += 1;
                None
            }
            RawTag::Full(code) if !cfg.is_valid_tag(code) => {
                self.stats.dropped_spurious += 1;
                None
            }
            RawTag::Full(code) => {
                self.stats.passed += 1;
                Some(CleanReading {
                    tag: code,
                    reader: reading.reader,
                    tick: reading.tick,
                    synthetic: false,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_truncated_and_spurious() {
        let cfg = CleaningConfig::retail_demo();
        let mut f = AnomalyFilter::new();
        let good = RawReading::full(cfg.make_tag(1), 1, 0);
        let ghost = RawReading::full(0xBAD0_0000_0000_0001, 1, 0);
        let cut = RawReading {
            tag: RawTag::Truncated {
                partial: 0x1,
                bits: 16,
            },
            reader: 1,
            tick: 0,
        };
        let out: Vec<_> = [good, ghost, cut]
            .iter()
            .filter_map(|r| f.process(&cfg, r))
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, cfg.make_tag(1));
        assert!(!out[0].synthetic);
        let s = f.stats();
        assert_eq!(s.seen, 3);
        assert_eq!(s.dropped_spurious, 1);
        assert_eq!(s.dropped_truncated, 1);
        assert_eq!(s.passed, 1);
    }
}
