//! Order statistics over latency samples and over repetitions.

/// 1-based nearest rank of the `q`-quantile among `len` samples: the
/// smallest rank with at least `q` of the samples at or below it.
fn nearest_rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule.
/// Reorders `samples`. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = nearest_rank(samples.len(), q);
    *samples.select_nth_unstable(rank - 1).1
}

/// How many samples lie beyond the `q`-quantile's rank: the benchmark
/// wants at least ten behind every percentile it reports.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len.saturating_sub(nearest_rank(len, q))
}

/// Median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The lower quartile of `values` by the nearest-rank rule: the third
/// lowest of nine. Returns 0 for an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), 0.25) - 1]
}

/// `(max - min) / median` of `values`: the spread kept beside every
/// median over repetitions. 0 when the median is 0.
pub fn rel_range(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Rng;

    /// The oracle: sort, then index by nearest rank.
    fn by_sorting(samples: &[u32], q: f64) -> u32 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    #[test]
    fn percentile_matches_a_sorted_vector() {
        let mut rng = Rng::new(7);
        for len in [1_usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            // Heavy-tailed and full of ties, like latencies.
            let samples: Vec<u32> = (0..len)
                .map(|_| {
                    let base = 20 + rng.below(8) as u32;
                    if rng.below(50) == 0 {
                        base * 100
                    } else {
                        base
                    }
                })
                .collect();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let mut work = samples.clone();
                assert_eq!(
                    percentile(&mut work, q),
                    by_sorting(&samples, q),
                    "len={len} q={q}"
                );
            }
        }
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let nine = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(lower_quartile(&nine), 3.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[]), 0.0);
        assert!((rel_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_range(&[0.0, 0.0]), 0.0);
    }
}
