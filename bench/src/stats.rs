//! Sample arithmetic: percentiles, medians and the decile-growth ratio.
//!
//! Every timing the benchmark reports is a statistic of a sample vector
//! in nanoseconds; the functions here are the only place that arithmetic
//! lives, so the unit tests below pin what a reported `p99` means.

/// Nearest-rank percentile of an **ascending** sample: the smallest
/// element with at least `pct` percent of the sample at or below it.
/// `pct` is clamped to `(0, 100]`; with fewer than `100 / (100 - pct)`
/// samples the answer is simply the maximum, which is why every timing
/// line also prints its sample count.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample, averaging the middle pair of an even
/// one (so a two-element sample does not silently report its maximum).
pub fn median_sorted(sorted: &[u64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid] as f64
    } else {
        (sorted[mid - 1] as f64 + sorted[mid] as f64) / 2.0
    }
}

/// The distribution summary printed with every timing line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, in the sample's unit.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for an empty sample — a
    /// class of operation the workload never issued.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Some(Summary {
            n: sorted.len(),
            p50: median_sorted(&sorted),
            p90: percentile_sorted(&sorted, 90.0) as f64,
            p99: percentile_sorted(&sorted, 99.0) as f64,
        })
    }
}

/// Median of an unordered sample; `0.0` when empty (a layer that did no
/// work in this workload reports zero time).
pub fn median(samples: &[u64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Median of an unordered `f64` sample (set-up and recovery repetitions).
pub fn median_f64(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Which way a measurement improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A time: smaller is faster.
    Lower,
    /// A rate: larger is faster.
    Higher,
}

/// The fast decile of repeated measurements of the same work: the
/// value a tenth of the repetitions were at least as good as (nearest
/// rank from the good end, so fewer than ten repetitions report their
/// best, a dozen their second best and thirty their fourth best).
///
/// Every bounded time metric is this statistic over the run's laps.
/// The shared host this benchmark runs on slows identical work by a
/// factor of up to 1.6 for seconds to minutes at a stretch (README,
/// "Steadiness"). Interference only ever subtracts, so a mean or a
/// median over the run reports how busy the neighbours were; the fast
/// end of the laps reports the program, as long as a tenth of the run
/// was left alone. The very best lap would do that for longer, but a
/// few laps are fast for reasons of their own (the first replies on a
/// fresh TCP connection are not held back by delayed ACKs), and a rank
/// below the top ignores those.
pub fn fast_decile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "fast decile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len() / 10;
    match better {
        Better::Lower => sorted[rank],
        Better::Higher => sorted[sorted.len() - 1 - rank],
    }
}

/// What each lap of a run measured: the same work repeated, so the run
/// can report the [`fast_decile`] of each reading.
#[derive(Debug, Default)]
pub struct Laps {
    /// Operations per second, one entry per lap.
    pub ops_per_s: Vec<f64>,
    /// Median latency in nanoseconds, one entry per lap.
    pub p50_ns: Vec<f64>,
}

impl Laps {
    /// Records a lap of `ops` operations over `wall_s` seconds whose
    /// primary operation took `latencies_ns`.
    pub fn push(&mut self, ops: usize, wall_s: f64, latencies_ns: &[u64]) {
        self.ops_per_s.push(ops as f64 / wall_s);
        self.p50_ns.push(median(latencies_ns));
    }

    /// Laps recorded.
    pub fn len(&self) -> usize {
        self.ops_per_s.len()
    }
}

/// Growth of a latency over a run: median of the last tenth of the
/// samples (in arrival order) over the median of the first tenth. `1.0`
/// means the operation costs the same at the end of the script as at the
/// start; `0.0` when there are fewer than twenty samples to split.
pub fn decile_growth(in_order: &[u64]) -> f64 {
    let tenth = in_order.len() / 10;
    if tenth < 2 {
        return 0.0;
    }
    let first = median(&in_order[..tenth]);
    let last = median(&in_order[in_order.len() - tenth..]);
    if first == 0.0 {
        0.0
    } else {
        last / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 90.0), 90);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        // 1000 samples: p99 leaves exactly ten beyond it.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&s, 99.0), 990);
        assert_eq!(s.iter().filter(|&&v| v > 990).count(), 10);
    }

    #[test]
    fn small_samples_report_their_maximum_as_the_tail() {
        let s = [3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610];
        assert_eq!(percentile_sorted(&s, 99.0), 610);
        assert_eq!(percentile_sorted(&s, 90.0), 377);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median_sorted(&[1, 2, 3]), 2.0);
        assert_eq!(median_sorted(&[1, 2, 3, 10]), 2.5);
        assert_eq!(median(&[10, 1, 3, 2]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_f64(&[0.5, 0.1, 0.3]), 0.3);
        assert_eq!(median_f64(&[0.4, 0.2]), 0.30000000000000004);
    }

    #[test]
    fn fast_decile_counts_from_the_good_end() {
        let laps: Vec<f64> = (1..=30).map(f64::from).rev().collect();
        assert_eq!(fast_decile(&laps, Better::Lower), 4.0);
        assert_eq!(fast_decile(&laps, Better::Higher), 27.0);
        let dozen: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(fast_decile(&dozen, Better::Lower), 2.0);
        assert_eq!(fast_decile(&dozen, Better::Higher), 11.0);
        // Fewer than ten repetitions: the best one.
        assert_eq!(fast_decile(&[4.0, 2.0, 3.0], Better::Lower), 2.0);
        assert_eq!(fast_decile(&[4.0, 2.0, 3.0], Better::Higher), 4.0);
        assert_eq!(fast_decile(&[5.0], Better::Higher), 5.0);
        // A slow stretch covering most of the run does not move it, and
        // neither does one lap that was fast for reasons of its own.
        let mut disturbed = vec![1.5; 16];
        disturbed.extend([1.0, 1.0, 1.01, 0.7]);
        assert_eq!(fast_decile(&disturbed, Better::Lower), 1.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[9, 1, 5]).unwrap();
        assert_eq!((s.n, s.p50, s.p90, s.p99), (3, 5.0, 9.0, 9.0));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn decile_growth_compares_last_tenth_to_first() {
        // 100 samples rising 1..=100: first tenth median 5.5, last 95.5.
        let rising: Vec<u64> = (1..=100).collect();
        let g = decile_growth(&rising);
        assert!((g - 95.5 / 5.5).abs() < 1e-12, "got {g}");
        assert_eq!(decile_growth(&[4; 50]), 1.0);
        // Too few samples to form two-element deciles.
        assert_eq!(decile_growth(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]), 0.0);
    }
}
