//! Descriptive statistics over sample slices.
//!
//! Everything here is deliberately dependency-free: the FChain slave daemon
//! must stay light-weight (< 1 % CPU in the paper), so the statistics kit is
//! a handful of single-pass routines.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(fchain_metrics::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(fchain_metrics::stats::mean(&[]), 0.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns `0.0` for slices shorter than two samples.
///
/// # Examples
///
/// ```
/// assert_eq!(fchain_metrics::stats::variance(&[2.0, 4.0]), 1.0);
/// ```
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
///
/// # Examples
///
/// ```
/// assert_eq!(fchain_metrics::stats::std_dev(&[2.0, 4.0]), 1.0);
/// ```
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.min(x)),
    })
}

/// Maximum value; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.max(x)),
    })
}

/// The `p`-th percentile (0–100) using linear interpolation between closest
/// ranks. Returns `None` for an empty slice.
///
/// FChain uses the 90th percentile of the synthesized burst signal as the
/// expected prediction error of a change point (paper §II.B).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or not finite.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(fchain_metrics::stats::percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(fchain_metrics::stats::percentile(&xs, 100.0), Some(4.0));
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        // Validate `p` even on the empty path so misuse panics consistently.
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "percentile must be within [0, 100]"
        );
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in percentile"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending-sorted slice: no allocation, no
/// re-sort. Callers that hold a reusable sorted buffer (the FFT burst
/// workspace) use this on the hot path.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or not finite.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(fchain_metrics::stats::percentile_sorted(&xs, 50.0), Some(2.5));
/// ```
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    percentile_by(sorted.len(), p, |rank| sorted[rank])
}

/// [`percentile`] of `len` values read in ascending order through `at`
/// (`at(0)` is the smallest, `at(len - 1)` the largest). Only the two
/// ranks that bracket `p` are read — `⌊p/100·(len−1)⌋` and its ceiling
/// — so a store that keeps just an upper tail of its values
/// ([`crate::PercentileSketch`]) answers with the same bits as a full
/// sorted slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or not finite.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(fchain_metrics::stats::percentile_by(xs.len(), 50.0, |r| xs[r]), Some(2.5));
/// ```
#[inline]
pub fn percentile_by(len: usize, p: f64, at: impl Fn(usize) -> f64) -> Option<f64> {
    assert!(
        p.is_finite() && (0.0..=100.0).contains(&p),
        "percentile must be within [0, 100]"
    );
    if len == 0 {
        return None;
    }
    if len == 1 {
        return Some(at(0));
    }
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(at(lo) + (at(hi) - at(lo)) * frac)
}

/// A fixed-bin histogram over a value range, used by the Histogram baseline
/// (anomaly score = KL divergence between recent-window and whole-history
/// histograms, paper §III.A scheme 1).
///
/// # Examples
///
/// ```
/// use fchain_metrics::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for v in [1.0, 1.5, 9.0] {
///     h.add(v);
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_counts()[0], 2);
/// assert_eq!(h.bin_counts()[4], 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    /// Values outside the range are clamped into the end bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Builds a histogram over `xs` using the range of the data itself.
    ///
    /// Degenerate (constant) data gets an artificial ±0.5 range so every
    /// sample lands in a valid bin.
    pub fn from_samples(xs: &[f64], bins: usize) -> Self {
        let lo = min(xs).unwrap_or(0.0);
        let hi = max(xs).unwrap_or(1.0);
        let (lo, hi) = if hi > lo {
            (lo, hi)
        } else {
            (lo - 0.5, lo + 0.5)
        };
        let mut h = Histogram::new(lo, hi, bins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let span = self.hi - self.lo;
        let idx = (((x - self.lo) / span) * bins as f64).floor();
        let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total number of samples added.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Raw per-bin counts.
    #[inline]
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Normalized bin probabilities (sums to 1 when non-empty).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The `[lo, hi]` value range.
    #[inline]
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// Kullback–Leibler divergence `KL(p || q)` in nats between two discrete
/// distributions. Both histograms are normalized and mixed with a small
/// uniform component (ε = 0.02) so the divergence stays finite on empty
/// bins **without** the sample-count bias that add-one smoothing
/// introduces when the two histograms hold very different totals (the
/// recent-window histogram is much smaller than the whole-history one).
///
/// # Panics
///
/// Panics if the histograms have a different number of bins.
///
/// # Examples
///
/// ```
/// use fchain_metrics::stats::{kl_divergence, Histogram};
///
/// let mut p = Histogram::new(0.0, 1.0, 4);
/// let mut q = Histogram::new(0.0, 1.0, 4);
/// for v in [0.1, 0.2, 0.3] { p.add(v); q.add(v); }
/// assert!(kl_divergence(&p, &q) < 1e-9);
/// ```
pub fn kl_divergence(p: &Histogram, q: &Histogram) -> f64 {
    assert_eq!(
        p.counts.len(),
        q.counts.len(),
        "KL divergence requires equal bin counts"
    );
    const EPSILON: f64 = 0.02;
    let bins = p.counts.len() as f64;
    let uniform = 1.0 / bins;
    let pt = (p.total as f64).max(1.0);
    let qt = (q.total as f64).max(1.0);
    let mut kl = 0.0;
    for (&pc, &qc) in p.counts.iter().zip(&q.counts) {
        let pp = (1.0 - EPSILON) * (pc as f64 / pt) + EPSILON * uniform;
        let qp = (1.0 - EPSILON) * (qc as f64 / qt) + EPSILON * uniform;
        kl += pp * (pp / qp).ln();
    }
    kl.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(4.0));
        assert_eq!(min(&[]), None);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 90.0), Some(3.7));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 30.0), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.add(-5.0);
        h.add(50.0);
        assert_eq!(h.bin_counts(), &[1, 1]);
        assert_eq!(h.range(), (0.0, 10.0));
    }

    #[test]
    fn histogram_probabilities_sum_to_one() {
        let h = Histogram::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0], 3);
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_constant_data() {
        let h = Histogram::from_samples(&[3.0, 3.0, 3.0], 4);
        assert_eq!(h.count(), 3);
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_zero_for_identical_and_positive_for_shifted() {
        let p = Histogram::from_samples(&[1.0, 2.0, 3.0, 4.0], 4);
        assert!(kl_divergence(&p, &p) < 1e-12);
        let mut q = Histogram::new(1.0, 4.0, 4);
        for v in [4.0, 4.0, 4.0, 4.0] {
            q.add(v);
        }
        let mut p2 = Histogram::new(1.0, 4.0, 4);
        for v in [1.0, 1.0, 1.0, 1.0] {
            p2.add(v);
        }
        assert!(kl_divergence(&p2, &q) > 0.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The percentile is always within the data range and monotone in p.
        #[test]
        fn percentile_bounds_and_monotonicity(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..64),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let lo = min(&xs).unwrap();
            let hi = max(&xs).unwrap();
            let v1 = percentile(&xs, p1).unwrap();
            let v2 = percentile(&xs, p2).unwrap();
            prop_assert!(v1 >= lo - 1e-9 && v1 <= hi + 1e-9);
            if p1 <= p2 {
                prop_assert!(v1 <= v2 + 1e-9);
            }
        }

        /// KL divergence is non-negative and zero for identical histograms.
        #[test]
        fn kl_nonnegative(
            xs in proptest::collection::vec(0.0f64..100.0, 1..64),
            ys in proptest::collection::vec(0.0f64..100.0, 1..64),
        ) {
            let mut p = Histogram::new(0.0, 100.0, 10);
            let mut q = Histogram::new(0.0, 100.0, 10);
            for &x in &xs { p.add(x); }
            for &y in &ys { q.add(y); }
            prop_assert!(kl_divergence(&p, &q) >= 0.0);
            prop_assert!(kl_divergence(&p, &p) < 1e-12);
        }

        /// Mean lies within [min, max].
        #[test]
        fn mean_within_range(xs in proptest::collection::vec(-1e6f64..1e6, 1..128)) {
            let m = mean(&xs);
            prop_assert!(m >= min(&xs).unwrap() - 1e-6);
            prop_assert!(m <= max(&xs).unwrap() + 1e-6);
        }
    }
}
