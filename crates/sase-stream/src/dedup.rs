//! Deduplication Layer (§3, component 4): "removes duplicates, which can be
//! caused either by a redundant setup, where two readers monitor the same
//! logical area, or when an item resides in overlapping read ranges of two
//! separate readers."
//!
//! After association, both causes look the same: multiple readings of one
//! tag in one logical area close together in time. The deduplicator keeps
//! the first reading of each `(tag, area)` pair and suppresses repeats
//! within `dedup_window` logical units of the *last emitted* reading.

use sase_core::hash::FxHashMap;

use crate::config::CleaningConfig;
use crate::reading::TimedReading;

/// Counters of the deduplicator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DedupStats {
    /// Readings passed through.
    pub passed: u64,
    /// Readings suppressed as duplicates.
    pub suppressed: u64,
}

/// The deduplicator.
#[derive(Debug, Default)]
pub struct Deduplicator {
    /// (tag, area) -> timestamp of the last emitted reading.
    last_emitted: FxHashMap<(u64, i64), u64>,
    stats: DedupStats,
    /// Lazy cleanup horizon.
    max_ts: u64,
}

impl Deduplicator {
    /// Create a deduplicator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Currently tracked (tag, area) pairs.
    pub fn tracked(&self) -> usize {
        self.last_emitted.len()
    }

    /// Process one reading; `None` means suppressed as a duplicate.
    pub fn process(
        &mut self,
        cfg: &CleaningConfig,
        reading: &TimedReading,
    ) -> Option<TimedReading> {
        self.max_ts = self.max_ts.max(reading.timestamp);
        let key = (reading.tag, reading.area);
        match self.last_emitted.get(&key) {
            Some(last) if reading.timestamp.saturating_sub(*last) <= cfg.dedup_window => {
                self.stats.suppressed += 1;
                None
            }
            _ => {
                self.last_emitted.insert(key, reading.timestamp);
                self.stats.passed += 1;
                Some(*reading)
            }
        }
    }

    /// Drop long-stale entries once too many are tracked, bounding memory;
    /// the pipeline calls this once per scan cycle.
    pub fn sweep(&mut self, cfg: &CleaningConfig) {
        if self.last_emitted.len() > 8192 {
            let horizon = self.max_ts.saturating_sub(cfg.dedup_window * 16);
            self.last_emitted.retain(|_, ts| *ts >= horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(tag: u64, area: i64, ts: u64) -> TimedReading {
        TimedReading {
            tag,
            area,
            timestamp: ts,
            synthetic: false,
        }
    }

    #[test]
    fn suppresses_close_repeats_same_area() {
        let cfg = CleaningConfig::retail_demo(); // dedup_window = 1
        let mut d = Deduplicator::new();
        assert!(d.process(&cfg, &tr(1, 1, 10)).is_some());
        assert!(d.process(&cfg, &tr(1, 1, 10)).is_none()); // same instant
        assert!(d.process(&cfg, &tr(1, 1, 11)).is_none()); // within window
        assert!(d.process(&cfg, &tr(1, 1, 13)).is_some()); // beyond window
        let s = d.stats();
        assert_eq!(s.passed, 2);
        assert_eq!(s.suppressed, 2);
    }

    #[test]
    fn different_area_or_tag_not_suppressed() {
        let cfg = CleaningConfig::retail_demo();
        let mut d = Deduplicator::new();
        assert!(d.process(&cfg, &tr(1, 1, 10)).is_some());
        assert!(d.process(&cfg, &tr(1, 2, 10)).is_some());
        assert!(d.process(&cfg, &tr(2, 1, 10)).is_some());
    }

    #[test]
    fn suppression_window_slides_with_last_emitted() {
        let cfg = CleaningConfig::retail_demo();
        let mut d = Deduplicator::new();
        assert!(d.process(&cfg, &tr(1, 1, 10)).is_some());
        // 12 is > 10+1, so it is emitted and becomes the new anchor.
        assert!(d.process(&cfg, &tr(1, 1, 12)).is_some());
        assert!(d.process(&cfg, &tr(1, 1, 13)).is_none());
    }

    #[test]
    fn cleanup_bounds_memory() {
        let cfg = CleaningConfig::retail_demo();
        let mut d = Deduplicator::new();
        for i in 0..10_000u64 {
            d.process(&cfg, &tr(i, 1, i));
        }
        d.sweep(&cfg);
        assert!(d.tracked() < 10_000);
    }
}
