//! Time Conversion Layer (§3, component 3): "a timestamp is appended to
//! each reading based on a logical time unit that is set as a system
//! configuration parameter."
//!
//! This layer also performs the reader→area *association*: downstream
//! stages reason about logical areas, not physical readers. Readings from
//! readers with no area association are dropped (an unconfigured antenna).

use crate::config::{AreaKind, CleaningConfig};
use crate::reading::{CleanReading, TimedReading};

/// Counters of the time-conversion layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TimeConversionStats {
    /// Readings stamped and associated.
    pub converted: u64,
    /// Readings dropped because their reader has no area association.
    pub unassociated: u64,
}

/// The time converter / associator. Stateless apart from counters.
#[derive(Debug, Default)]
pub struct TimeConverter {
    stats: TimeConversionStats,
}

impl TimeConverter {
    /// Create a converter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> TimeConversionStats {
        self.stats
    }

    /// Stamp one reading with logical time and associate its area; the
    /// area's kind comes back with it, for event generation.
    pub fn process(
        &mut self,
        cfg: &CleaningConfig,
        reading: &CleanReading,
    ) -> Option<(TimedReading, AreaKind)> {
        let Some(area) = cfg.area_of(reading.reader) else {
            self.stats.unassociated += 1;
            return None;
        };
        self.stats.converted += 1;
        let timed = TimedReading {
            tag: reading.tag,
            area: area.area_id,
            timestamp: reading.tick * cfg.units_per_tick,
            synthetic: reading.synthetic,
        };
        Some((timed, area.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_logical_time_and_area() {
        let mut cfg = CleaningConfig::retail_demo();
        cfg.units_per_tick = 10;
        let mut tc = TimeConverter::new();
        let r = CleanReading {
            tag: cfg.make_tag(1),
            reader: 3,
            tick: 7,
            synthetic: false,
        };
        let (t, kind) = tc.process(&cfg, &r).unwrap();
        assert_eq!(t.timestamp, 70);
        assert_eq!(t.area, 3);
        assert_eq!(kind, AreaKind::Counter);
    }

    #[test]
    fn unassociated_reader_dropped() {
        let cfg = CleaningConfig::retail_demo();
        let mut tc = TimeConverter::new();
        let r = CleanReading {
            tag: cfg.make_tag(1),
            reader: 42,
            tick: 0,
            synthetic: false,
        };
        assert!(tc.process(&cfg, &r).is_none());
        assert_eq!(tc.stats().unassociated, 1);
    }
}
