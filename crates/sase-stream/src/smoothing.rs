//! Temporal Smoothing Layer (§3, component 2).
//!
//! "The system decides whether an object was present at time t based not
//! only on the reading at time t, but also on the readings of this object
//! in a window size of w before t. Using this heuristic, a new reading may
//! be created."
//!
//! RFID readers miss tags that are present (occlusion, orientation, RF
//! noise). The smoother remembers, per `(tag, reader)`, the last tick the
//! tag was genuinely read; while a tick is within `w` of that last genuine
//! read, missing readings are interpolated as `synthetic` ones.
//!
//! The smoother is tick-batched: callers advance it one scan cycle at a
//! time with all of that cycle's readings (regular scan intervals, §3).

use sase_core::hash::FxHashMap;

use crate::config::CleaningConfig;
use crate::reading::{CleanReading, ReaderId, Tick};

/// Counters of the smoother's work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SmoothingStats {
    /// Genuine readings passed through.
    pub genuine: u64,
    /// Synthetic readings interpolated.
    pub interpolated: u64,
    /// Tracked (tag, reader) presences dropped after expiry.
    pub expired: u64,
}

/// The temporal smoother.
#[derive(Debug, Default)]
pub struct TemporalSmoother {
    /// (tag, reader) -> last tick with a genuine reading.
    last_seen: FxHashMap<(u64, ReaderId), Tick>,
    stats: SmoothingStats,
}

impl TemporalSmoother {
    /// Create a smoother.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> SmoothingStats {
        self.stats
    }

    /// Currently tracked presences.
    pub fn tracked(&self) -> usize {
        self.last_seen.len()
    }

    /// Process one scan cycle in place: `readings` holds the cycle's
    /// genuine readings on entry, and readings interpolated for tags seen
    /// recently but missing this cycle are appended to it, in `(tag,
    /// reader)` order.
    pub fn process_tick(
        &mut self,
        cfg: &CleaningConfig,
        tick: Tick,
        readings: &mut Vec<CleanReading>,
    ) {
        let w = cfg.smoothing_window;

        // Genuine readings update presence.
        for r in readings.iter() {
            debug_assert_eq!(r.tick, tick, "smoother is tick-batched");
            self.last_seen.insert((r.tag, r.reader), tick);
        }
        let genuine = readings.len();
        self.stats.genuine += genuine as u64;

        // Interpolate for presences seen within w but not this cycle, and
        // expire stale ones. Sort for deterministic output order.
        let mut expired = 0u64;
        self.last_seen.retain(|&(tag, reader), last| {
            if *last == tick {
                return true; // seen this cycle
            }
            if tick.saturating_sub(*last) <= w {
                readings.push(CleanReading {
                    tag,
                    reader,
                    tick,
                    synthetic: true,
                });
                true
            } else {
                expired += 1;
                false
            }
        });
        self.stats.expired += expired;
        self.stats.interpolated += (readings.len() - genuine) as u64;
        readings[genuine..].sort_unstable_by_key(|r| (r.tag, r.reader));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cfg: &CleaningConfig, item: u64, reader: ReaderId, tick: Tick) -> CleanReading {
        CleanReading {
            tag: cfg.make_tag(item),
            reader,
            tick,
            synthetic: false,
        }
    }

    /// One scan cycle of `genuine` readings; the smoother's output.
    fn run(
        s: &mut TemporalSmoother,
        cfg: &CleaningConfig,
        tick: Tick,
        genuine: &[CleanReading],
    ) -> Vec<CleanReading> {
        let mut out = genuine.to_vec();
        s.process_tick(cfg, tick, &mut out);
        out
    }

    #[test]
    fn interpolates_within_window_then_expires() {
        let cfg = CleaningConfig::retail_demo(); // w = 2
        let mut s = TemporalSmoother::new();

        // Tick 0: tag 1 read at reader 1.
        let out0 = run(&mut s, &cfg, 0, &[r(&cfg, 1, 1, 0)]);
        assert_eq!(out0.len(), 1);
        assert!(!out0[0].synthetic);

        // Ticks 1 and 2: tag missed; smoother fills it in.
        let out1 = run(&mut s, &cfg, 1, &[]);
        assert_eq!(out1.len(), 1);
        assert!(out1[0].synthetic);
        assert_eq!(out1[0].tick, 1);
        let out2 = run(&mut s, &cfg, 2, &[]);
        assert_eq!(out2.len(), 1);

        // Tick 3: beyond w=2 since last genuine read -> gone.
        let out3 = run(&mut s, &cfg, 3, &[]);
        assert!(out3.is_empty());
        assert_eq!(s.tracked(), 0);

        let st = s.stats();
        assert_eq!(st.genuine, 1);
        assert_eq!(st.interpolated, 2);
    }

    #[test]
    fn genuine_read_renews_presence() {
        let cfg = CleaningConfig::retail_demo();
        let mut s = TemporalSmoother::new();
        run(&mut s, &cfg, 0, &[r(&cfg, 1, 1, 0)]);
        run(&mut s, &cfg, 1, &[]); // synthetic
        run(&mut s, &cfg, 2, &[r(&cfg, 1, 1, 2)]); // genuine again
        let out = run(&mut s, &cfg, 4, &[]);
        // tick 4 - last genuine 2 = 2 <= w: still present.
        assert_eq!(out.len(), 1);
        assert!(out[0].synthetic);
    }

    #[test]
    fn per_reader_tracking_is_independent() {
        let cfg = CleaningConfig::retail_demo();
        let mut s = TemporalSmoother::new();
        run(&mut s, &cfg, 0, &[r(&cfg, 1, 1, 0), r(&cfg, 1, 2, 0)]);
        let out = run(&mut s, &cfg, 1, &[r(&cfg, 1, 1, 1)]);
        // Reader 1 genuine + reader 2 synthetic.
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().filter(|x| x.synthetic).count(), 1);
        assert_eq!(out.iter().find(|x| x.synthetic).unwrap().reader, 2);
    }

    #[test]
    fn zero_window_disables_smoothing() {
        let mut cfg = CleaningConfig::retail_demo();
        cfg.smoothing_window = 0;
        let mut s = TemporalSmoother::new();
        run(&mut s, &cfg, 0, &[r(&cfg, 1, 1, 0)]);
        let out = run(&mut s, &cfg, 1, &[]);
        assert!(out.is_empty());
    }
}
