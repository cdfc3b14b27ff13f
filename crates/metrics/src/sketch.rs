//! Exact sliding-window upper-tail percentile sketch.
//!
//! FChain's selection step anchors its expected-error threshold on order
//! statistics (p90/p99/max) of the *normal-behaviour* span of the
//! prediction-error series. The batch path re-sorts that span at every
//! violation; the streaming analysis engine instead maintains the span's
//! upper tail incrementally as samples arrive, so the anchor is readable in
//! O(1) at violation time.
//!
//! "Sketch" here means *incrementally maintained summary*, not *lossy
//! approximation*: every percentile at or above the caller's lowest
//! percentile matches a fresh [`crate::stats::percentile`] over the same
//! span bit for bit — the property the engine-parity guarantee rests on.
//! Only the values that can reach those ranks are kept in order: with a
//! lowest percentile of 90 that is the top ~20–40 % of the window, behind
//! a cut value `τ`; everything below the cut is a count. The sketch keeps
//! no copy of the window: its caller already holds it (the slave daemon's
//! per-metric error ring), names each value that enters or leaves, and
//! lends the window back for re-tunes. Space is the tail alone. A sample
//! below the cut costs a comparison and a counter update; one at or above
//! it a binary search and a shift over the tail. When the window drifts
//! past the cut (too many samples below it, or too many above), the cut
//! is re-chosen by one selection over a temporary copy of the lent window,
//! which happens about once per thousand updates on FChain's error series.

use crate::stats;
use std::cmp::Ordering;

/// Ranks kept below the lowest answerable rank after a re-tune, on top of
/// the answerable count itself: the cut sits this much lower than it must,
/// so a few more arrivals below it do not force the next re-tune at once.
const RETUNE_MARGIN: usize = 16;

/// An exact upper-tail percentile sketch over a window its caller keeps.
///
/// [`PercentileSketch::push`] counts a sample entering the window and
/// [`PercentileSketch::retire`] one leaving it (the caller decides the
/// window policy, because FChain's normal-behaviour span slides only once
/// the metric's ring is in steady state). Each takes the window as it
/// stands after the change, which the sketch reads only when it re-tunes.
/// [`PercentileSketch::percentile`] answers any `p` at or above the
/// `min_percentile` fixed at construction, interpolating exactly like
/// [`crate::stats::percentile`].
///
/// Samples must not be NaN (the batch percentile path panics on NaN for
/// the same reason: ordering is undefined).
///
/// # Examples
///
/// ```
/// use fchain_metrics::{stats, PercentileSketch};
///
/// let mut window = Vec::new();
/// let mut sketch = PercentileSketch::new(50.0);
/// for v in [4.0, 1.0, 3.0, 2.0] {
///     window.push(v);
///     sketch.push(v, window.iter().copied());
/// }
/// let oldest = window.remove(0); // 4.0 leaves; window is now [1.0, 3.0, 2.0]
/// sketch.retire(oldest, window.iter().copied());
/// assert_eq!(sketch.percentile(50.0), stats::percentile(&window, 50.0));
/// assert_eq!(sketch.percentile(90.0), stats::percentile(&window, 90.0));
/// assert_eq!(sketch.max(), Some(3.0));
/// assert_eq!(sketch.len(), window.len());
/// ```
#[derive(Debug, Clone)]
pub struct PercentileSketch {
    /// Lowest percentile [`PercentileSketch::percentile`] answers.
    min_percentile: f64,
    /// `min_percentile / 100`, the factor of the lowest answerable rank.
    min_fraction: f64,
    /// Number of samples in the window.
    len: usize,
    /// The cut `τ`: samples below it are only counted.
    cut: f64,
    /// Number of window samples strictly below `cut`.
    below: usize,
    /// Number of window samples equal to `cut` (ties are counted, not
    /// stored, so a long run of one value cannot bloat `above`).
    at_cut: usize,
    /// Every window sample strictly above `cut`, ascending.
    above: Vec<f64>,
}

impl PercentileSketch {
    /// Creates an empty sketch answering percentiles in
    /// `[min_percentile, 100]`. `min_percentile = 0` keeps every sample.
    ///
    /// # Panics
    ///
    /// Panics if `min_percentile` is outside `[0, 100]` or not finite.
    pub fn new(min_percentile: f64) -> Self {
        assert!(
            min_percentile.is_finite() && (0.0..=100.0).contains(&min_percentile),
            "percentile must be within [0, 100]"
        );
        PercentileSketch {
            min_percentile,
            min_fraction: min_percentile / 100.0,
            len: 0,
            cut: f64::NEG_INFINITY,
            below: 0,
            at_cut: 0,
            above: Vec::new(),
        }
    }

    /// Number of samples currently in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counts `x` entering the window; `window` is the window with `x` in
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if a re-tune finds `window` holding a different number of
    /// samples than the sketch counts.
    pub fn push<I: IntoIterator<Item = f64>>(&mut self, x: f64, window: I) {
        debug_assert!(!x.is_nan(), "NaN sample in percentile sketch");
        self.len += 1;
        if x < self.cut {
            self.below += 1;
        } else if x == self.cut {
            self.at_cut += 1;
        } else {
            let at = self.above.partition_point(|&v| v < x);
            self.above.insert(at, x);
        }
        self.retune_if_needed(window);
    }

    /// Counts `x`, a sample of the window, leaving it; `window` is the
    /// window without it.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty, or as [`PercentileSketch::push`].
    pub fn retire<I: IntoIterator<Item = f64>>(&mut self, x: f64, window: I) {
        self.len = self
            .len
            .checked_sub(1)
            .expect("retire from an empty sketch");
        if x < self.cut {
            self.below -= 1;
        } else if x == self.cut {
            self.at_cut -= 1;
        } else {
            // Lower bound lands on the first element numerically equal to
            // `x` (any of an equal run is interchangeable for the multiset).
            let at = self.above.partition_point(|&v| v < x);
            debug_assert!(self.above.get(at).is_some_and(|&v| v == x));
            self.above.remove(at);
        }
        self.retune_if_needed(window);
    }

    /// Replaces the window with `window`, retaining allocations. Used when
    /// a metric first reaches steady state and the existing span is
    /// adopted wholesale.
    pub fn rebuild<I: IntoIterator<Item = f64>>(&mut self, window: I) {
        self.retune(window.into_iter().collect());
    }

    /// Interpolated percentile `p ∈ [min_percentile, 100]`, or `None` when
    /// empty. Matches [`crate::stats::percentile`] over the same window
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not finite or outside `[min_percentile, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(
            p >= self.min_percentile,
            "percentile {p} is below the sketch's lowest answerable {}",
            self.min_percentile
        );
        stats::percentile_by(self.len, p, |rank| self.at_rank(rank))
    }

    /// Largest sample in the window, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        match self.above.last() {
            Some(&x) => Some(x),
            None => (self.at_cut > 0).then_some(self.cut),
        }
    }

    /// Heap bytes held: the kept tail.
    pub fn approx_bytes(&self) -> usize {
        self.above.capacity() * std::mem::size_of::<f64>()
    }

    /// The value of ascending rank `rank`; only ranks at or above the
    /// lowest answerable one are kept.
    #[inline]
    fn at_rank(&self, rank: usize) -> f64 {
        let tail_rank = rank
            .checked_sub(self.below)
            .expect("rank below the sketch's kept tail");
        match tail_rank.checked_sub(self.at_cut) {
            None => self.cut,
            Some(i) => self.above[i],
        }
    }

    /// Lowest rank a percentile query may read: `⌊min_p/100·(len−1)⌋`,
    /// computed exactly as [`stats::percentile_by`] computes its lower
    /// rank, so every query at or above `min_p` reads at or above it.
    fn lowest_rank(&self) -> usize {
        match self.len {
            0 => 0,
            len => (self.min_fraction * (len - 1) as f64).floor() as usize,
        }
    }

    /// Re-chooses the cut from `window` when the lowest answerable rank
    /// fell below the kept tail, or the tail grew past four times the
    /// answerable count.
    #[inline]
    fn retune_if_needed<I: IntoIterator<Item = f64>>(&mut self, window: I) {
        let lowest = self.lowest_rank();
        let answerable = self.len - lowest;
        if self.below > lowest || self.above.len() > 4 * answerable + 64 {
            let window: Vec<f64> = window.into_iter().collect();
            assert_eq!(window.len(), self.len, "window disagrees with the sketch");
            self.retune(window);
        }
    }

    /// Places the cut at rank `lowest − answerable − RETUNE_MARGIN` of
    /// `window` (at −∞, keeping every sample, when that rank is 0 or less)
    /// and rebuilds the length, the counts and the tail from it.
    fn retune(&mut self, mut window: Vec<f64>) {
        self.len = window.len();
        let lowest = self.lowest_rank();
        let answerable = self.len - lowest;
        let target = lowest.saturating_sub(answerable + RETUNE_MARGIN);
        self.cut = if target == 0 {
            f64::NEG_INFINITY
        } else {
            *window.select_nth_unstable_by(target, cmp_samples).1
        };
        self.below = 0;
        self.at_cut = 0;
        self.above.clear();
        for x in window {
            if x < self.cut {
                self.below += 1;
            } else if x == self.cut {
                self.at_cut += 1;
            } else {
                self.above.push(x);
            }
        }
        self.above.sort_unstable_by(cmp_samples);
    }
}

fn cmp_samples(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).expect("NaN sample in percentile sketch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A test-local window the sketch is fed from, the way the daemon
    /// feeds it from its error ring.
    #[derive(Default)]
    struct Window(VecDeque<f64>);

    impl Window {
        fn push(&mut self, sketch: &mut PercentileSketch, x: f64) {
            self.0.push_back(x);
            sketch.push(x, self.0.iter().copied());
        }

        fn pop_oldest(&mut self, sketch: &mut PercentileSketch) -> Option<f64> {
            let x = self.0.pop_front()?;
            sketch.retire(x, self.0.iter().copied());
            Some(x)
        }
    }

    #[test]
    fn tracks_a_sliding_window_exactly() {
        let values: Vec<f64> = (0..40).map(|i| ((i * 37) % 17) as f64 * 0.5).collect();
        let window = 9usize;
        let mut sketch = PercentileSketch::new(0.0);
        let mut live_window = Window::default();
        for (i, &v) in values.iter().enumerate() {
            live_window.push(&mut sketch, v);
            if sketch.len() > window {
                let popped = live_window.pop_oldest(&mut sketch);
                assert_eq!(popped, Some(values[i - window]));
            }
            let live = &values[(i + 1).saturating_sub(window)..=i];
            for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    sketch.percentile(p),
                    stats::percentile(live, p),
                    "p{p} at {i}"
                );
            }
            assert_eq!(sketch.max(), stats::max(live));
            assert_eq!(sketch.len(), live.len());
        }
    }

    #[test]
    fn duplicates_retire_one_at_a_time() {
        let mut sketch = PercentileSketch::new(0.0);
        let mut window = Window::default();
        for v in [2.0, 2.0, 2.0, 1.0] {
            window.push(&mut sketch, v);
        }
        assert_eq!(window.pop_oldest(&mut sketch), Some(2.0));
        assert_eq!(sketch.percentile(0.0), Some(1.0));
        assert_eq!(sketch.percentile(100.0), Some(2.0));
        assert_eq!(window.pop_oldest(&mut sketch), Some(2.0));
        assert_eq!(
            sketch.percentile(50.0),
            stats::percentile(&[2.0, 1.0], 50.0)
        );
        assert_eq!(window.pop_oldest(&mut sketch), Some(2.0));
        assert_eq!(sketch.max(), Some(1.0));
    }

    #[test]
    fn rebuild_matches_incremental_pushes() {
        let values = [5.0, -1.0, 3.5, 3.5, 0.0];
        let mut incremental = PercentileSketch::new(0.0);
        let mut window = Window::default();
        for &v in &values {
            window.push(&mut incremental, v);
        }
        let mut rebuilt = PercentileSketch::new(0.0);
        rebuilt.push(99.0, [99.0]); // must be discarded by rebuild
        rebuilt.rebuild(values);
        let all = |s: &PercentileSketch| -> Vec<Option<f64>> {
            (0..=20).map(|i| s.percentile(i as f64 * 5.0)).collect()
        };
        assert_eq!(all(&rebuilt), all(&incremental));
        // Retirement after a rebuild counts against the adopted window too.
        assert_eq!(window.pop_oldest(&mut incremental), Some(5.0));
        rebuilt.retire(5.0, values[1..].iter().copied());
        assert_eq!(all(&rebuilt), all(&incremental));
    }

    #[test]
    fn empty_sketch_answers_none() {
        let mut sketch = PercentileSketch::new(90.0);
        let mut window = Window::default();
        assert!(sketch.is_empty());
        assert_eq!(sketch.percentile(90.0), None);
        assert_eq!(sketch.max(), None);
        assert_eq!(window.pop_oldest(&mut sketch), None);
        window.push(&mut sketch, 1.0);
        sketch.rebuild([]);
        assert!(sketch.is_empty());
        assert_eq!(sketch.max(), None);
    }

    #[test]
    fn keeps_only_the_upper_tail() {
        // A long window at p90 holds far fewer ordered values than samples,
        // and a constant run (every sample tied at the cut) stays compact.
        let mut sketch = PercentileSketch::new(90.0);
        let mut window = Window::default();
        let values: Vec<f64> = (0..3000).map(|i| ((i * 7919) % 3001) as f64).collect();
        for &v in &values {
            window.push(&mut sketch, v);
        }
        assert!(
            sketch.above.len() < values.len() / 2,
            "{}",
            sketch.above.len()
        );
        assert_eq!(sketch.percentile(90.0), stats::percentile(&values, 90.0));
        for _ in 0..3000 {
            window.push(&mut sketch, 7.0);
            window.pop_oldest(&mut sketch);
        }
        assert!(sketch.above.is_empty());
        assert_eq!(sketch.percentile(99.0), Some(7.0));
        assert_eq!(sketch.max(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "below the sketch's lowest answerable")]
    fn percentiles_below_the_kept_tail_are_rejected() {
        let mut sketch = PercentileSketch::new(90.0);
        sketch.push(1.0, [1.0]);
        sketch.percentile(50.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Checks every query the sketch answers against a fresh sort of the
    /// live window, bit for bit.
    fn check_against_window(
        sketch: &PercentileSketch,
        live: &[f64],
        ps: &[f64],
    ) -> Result<(), TestCaseError> {
        for &p in ps {
            prop_assert_eq!(
                sketch.percentile(p).map(f64::to_bits),
                stats::percentile(live, p).map(f64::to_bits),
                "p{} over {} samples",
                p,
                live.len()
            );
        }
        prop_assert_eq!(
            sketch.max().map(f64::to_bits),
            stats::max(live).map(f64::to_bits)
        );
        prop_assert_eq!(sketch.len(), live.len());
        Ok(())
    }

    /// Pushes `values[i]` into a sketch over the sliding window of the
    /// last `window` values, retiring the oldest once it overflows; the
    /// sketch reads the window straight from `values`, as the daemon
    /// reads its error ring. Returns the live window `values[start..=i]`.
    fn slide(sketch: &mut PercentileSketch, values: &[f64], i: usize, window: usize) -> usize {
        let start = (i + 1).saturating_sub(window);
        if start > 0 {
            // The oldest value leaves before the newest enters.
            sketch.retire(values[start - 1], values[start..i].iter().copied());
        }
        sketch.push(values[i], values[start..=i].iter().copied());
        start
    }

    /// One stretch of a stream built to cross the cut, by `kind`: ramps
    /// up and down (the window's tail drifts monotonically), a constant run
    /// and a run of ties (many samples equal to the cut), a spike burst that
    /// decays (the tail fills, then drains below the cut), and noise.
    fn stretch() -> impl Strategy<Value = Vec<f64>> {
        (
            (0u8..6, 1i32..400, -50i32..50, 1i32..4),
            (1.0f64..1e4, 0.5f64..0.99),
            (
                proptest::collection::vec(0i32..4, 1..400),
                proptest::collection::vec(-1e6f64..1e6, 1..400),
            ),
        )
            .prop_map(
                |((kind, n, at, step), (peak, decay), (ties, noise))| match kind {
                    0 => (0..n).map(|i| f64::from(at + i * step)).collect(),
                    1 => (0..n).map(|i| f64::from(at - i * step)).collect(),
                    2 => vec![f64::from(at); n as usize],
                    3 => ties.into_iter().map(f64::from).collect(),
                    4 => (0..n).map(|i| peak * decay.powi(i)).collect(),
                    _ => noise,
                },
            )
    }

    /// A lowest answerable percentile and a query at or above it.
    fn percentiles() -> impl Strategy<Value = (f64, f64)> {
        (0.0f64..=100.0, 0.0f64..=1.0)
            .prop_map(|(min_p, q)| (min_p, (min_p + q * (100.0 - min_p)).min(100.0)))
    }

    proptest! {
        /// Against arbitrary push/retire interleavings the sketch matches a
        /// fresh sort+percentile of the surviving window, bit for bit, for
        /// any percentile it answers.
        #[test]
        fn matches_fresh_percentile(
            values in proptest::collection::vec(-1e6f64..1e6, 1..80),
            window in 1usize..20,
            (min_p, p) in percentiles(),
        ) {
            let mut sketch = PercentileSketch::new(min_p);
            for i in 0..values.len() {
                let start = slide(&mut sketch, &values, i, window);
                let live = &values[start..=i];
                prop_assert_eq!(sketch.percentile(p), stats::percentile(live, p));
                prop_assert_eq!(sketch.max(), stats::max(live));
            }
        }
    }

    proptest! {
        // Each case replays up to ~3 000 samples against a fresh sort per
        // step; CI raises the count with `PROPTEST_CASES` in release mode.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Long streams whose tail drifts past the cut in both directions,
        /// so the sketch re-tunes for samples piling up below the cut and
        /// for the kept tail overflowing, over windows that fill, slide and
        /// drain.
        #[test]
        fn retunes_keep_every_answer_exact(
            stretches in proptest::collection::vec(stretch(), 1..8),
            window in 1usize..1000,
            (min_p, p) in percentiles(),
        ) {
            let values: Vec<f64> = stretches.concat();
            let ps = [min_p, p];
            let mut sketch = PercentileSketch::new(min_p);
            for i in 0..values.len() {
                let start = slide(&mut sketch, &values, i, window);
                check_against_window(&sketch, &values[start..=i], &ps)?;
            }
            // Drain: the window shrinks to nothing, one retirement at a time.
            let mut start = values.len() - sketch.len();
            while !sketch.is_empty() {
                sketch.retire(values[start], values[start + 1..].iter().copied());
                start += 1;
                check_against_window(&sketch, &values[start..], &ps)?;
            }
        }
    }
}
