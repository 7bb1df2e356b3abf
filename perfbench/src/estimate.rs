//! The quiet-round estimator and the order statistics beside it.
//!
//! On a shared host, neighbours only ever *add* time. The fast tail of a
//! run's rounds is therefore the program, and the middle is the program
//! plus whoever else was running. Every timed quantity is taken once per
//! round and reported as the mean of its best 5 % over the rounds.
//!
//! The quantities are as fine as the benchmark times them. Call `i` of a
//! round does the same work in every round, so its latency has its own
//! quiet estimate over the rounds ([`quiet_calls`]); a round's time is the
//! sum of those. A neighbour that steals ten milliseconds spoils the calls
//! it lands on, not the whole round it lands in, so a run needs each call
//! to be undisturbed in one round out of twenty, not whole rounds to be.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Share of rounds the estimate averages, and the fewest it averages.
const QUIET_SHARE: f64 = 0.05;
const QUIET_MIN: usize = 5;

/// How many of `rounds` values a quiet estimate averages: 5 %, at least
/// five, all of them when there are fewer.
pub fn quiet_count(rounds: usize) -> usize {
    ((rounds as f64 * QUIET_SHARE).ceil() as usize)
        .max(QUIET_MIN)
        .min(rounds)
}

/// Mean of the best [`quiet_count`] of `values`.
pub fn quiet(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quiet() needs at least one round");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if better == Better::Higher {
        v.reverse();
    }
    let k = quiet_count(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// The quiet estimate of each call position over the rounds: `rounds[r][i]`
/// is the latency of call `i` in round `r`.
pub fn quiet_calls(rounds: &[&[f64]]) -> Vec<f64> {
    let calls = rounds.first().map_or(0, |r| r.len());
    assert!(
        rounds.iter().all(|r| r.len() == calls),
        "every round makes the same calls"
    );
    (0..calls)
        .map(|i| {
            let column: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
            quiet(&column, Better::Lower)
        })
        .collect()
}

/// Share of round times more than 10 % slower than the quiet estimate:
/// how much of the run the neighbours took.
pub fn disturbed_share(round_times: &[f64], quiet_time: f64) -> f64 {
    let slow = round_times
        .iter()
        .filter(|&&t| t > quiet_time * 1.1)
        .count();
    slow as f64 / round_times.len().max(1) as f64
}

/// Nearest-rank percentile of weighted samples `(value, weight)`.
/// `samples` is reordered. Zero total weight yields `None`.
pub fn weighted_percentile(samples: &mut [(f64, u32)], q: f64) -> Option<f64> {
    let total: u64 = samples.iter().map(|s| u64::from(s.1)).sum();
    if total == 0 {
        return None;
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(value, weight) in samples.iter() {
        seen += u64::from(weight);
        if seen >= rank {
            return Some(value);
        }
    }
    samples.last().map(|s| s.0)
}

/// Median of unweighted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut pairs: Vec<(f64, u32)> = values.iter().map(|&v| (v, 1)).collect();
    weighted_percentile(&mut pairs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 rounds of a 10 ms program; a neighbour stalls some of them.
    fn rounds_with_stalls(stalled_every: usize, stall_ms: f64) -> Vec<f64> {
        (0..200)
            .map(|i| {
                let jitter = (i % 7) as f64 * 0.01;
                let stall = if stalled_every > 0 && i % stalled_every == 0 {
                    stall_ms
                } else {
                    0.0
                };
                10.0 + jitter + stall
            })
            .collect()
    }

    #[test]
    fn quiet_estimate_ignores_injected_stalls() {
        let calm = quiet(&rounds_with_stalls(0, 0.0), Better::Lower);
        // Half the rounds stalled by 40 %: the median moves, the estimate
        // does not.
        let noisy_rounds = rounds_with_stalls(2, 4.0);
        let noisy = quiet(&noisy_rounds, Better::Lower);
        assert!((noisy - calm).abs() / calm < 0.01, "{calm} vs {noisy}");
        let med = median(&noisy_rounds).unwrap();
        assert!(med > calm * 1.003, "median {med} should have moved");
    }

    #[test]
    fn quiet_estimate_of_rates_takes_the_high_tail() {
        let rates: Vec<f64> = rounds_with_stalls(3, 5.0)
            .iter()
            .map(|ms| 1000.0 / ms)
            .collect();
        let est = quiet(&rates, Better::Higher);
        assert!(est > 99.0 && est <= 100.0, "{est}");
    }

    #[test]
    fn quiet_uses_at_least_five_rounds_and_survives_fewer() {
        // 20 rounds: 5 % would be one round; five are averaged.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&v, Better::Lower), 3.0);
        assert_eq!(quiet(&[4.0, 2.0], Better::Lower), 3.0);
    }

    #[test]
    fn quiet_calls_survive_a_stall_in_every_round() {
        // 100 rounds of 8 calls (1..=8 µs); every round has one call
        // stalled by 50 µs, a different one each time. No round is quiet,
        // yet every call is quiet in most rounds.
        let rounds: Vec<Vec<f64>> = (0..100)
            .map(|r| {
                (0..8)
                    .map(|i| (i + 1) as f64 + if r % 8 == i { 50.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
        let calls = quiet_calls(&refs);
        assert_eq!(calls, (1..=8).map(f64::from).collect::<Vec<f64>>());
        let whole_rounds: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
        assert!(quiet(&whole_rounds, Better::Lower) > calls.iter().sum::<f64>() + 49.0);
    }

    #[test]
    fn disturbed_share_counts_slow_rounds() {
        let rounds = rounds_with_stalls(4, 3.0);
        let q = quiet(&rounds, Better::Lower);
        assert_eq!(disturbed_share(&rounds, q), 0.25);
    }

    #[test]
    fn weighted_percentile_is_nearest_rank() {
        let mut s = vec![(3.0, 1), (1.0, 1), (2.0, 2)];
        assert_eq!(weighted_percentile(&mut s, 0.5), Some(2.0));
        assert_eq!(weighted_percentile(&mut s, 1.0), Some(3.0));
        assert_eq!(weighted_percentile(&mut [(1.0, 0)], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
    }
}
