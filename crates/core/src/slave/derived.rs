//! Recompute-over-store for the prediction-error history.
//!
//! The per-metric error series is *derived*: every stored error was the
//! return of [`OnlineLearner::feed`] on a value that is itself retained
//! in the paired [`TieredSeries`]. Unlike raw metric values — which
//! Gorilla-compress to a few percent of their flat footprint because
//! monitored signals repeat — prediction errors are incompressible by
//! construction: the adapting model's decayed transition masses shift on
//! every observation, so each error carries fresh low-mantissa entropy
//! (measured 0.74–0.88 of flat under XOR or dictionary coding).
//!
//! [`DerivedSeries`] therefore stores no cold error tier at all. It keeps
//! the raw hot suffix the streaming engine reads on every push, plus a
//! *shadow learner*: a snapshot of the live learner exactly as it was
//! before absorbing the oldest retained value. Deep reads clone the
//! shadow and replay the stored values through it — `feed` is a pure
//! deterministic f64 computation and decoded cold values are bit-exact,
//! so regenerated errors match what the live learner produced bit for
//! bit. The shadow advances one `feed` per eviction (consuming the value
//! about to leave the window), amortized by decoding the paired series'
//! doomed prefix in chunks.
//!
//! Deep error reads happen only on sketch rebuilds (a series reaching
//! steady state) and on violation-time analyses whose error floor must
//! come from history: under the batch engine, or with a trimmed tail, a
//! look-back override or a series not yet in steady state. The per-push
//! read `errors[len − 1 − W]` and the streaming engine's violation-time
//! reads `errors[len − W − 3 ..]` stay inside the hot suffix by
//! construction (`hot ≥ W + 3`). The trade is a replay of at most
//! `capacity` cheap `feed` calls on those paths for the elimination of
//! the one cold tier that refuses to compress.

use fchain_metrics::TieredSeries;
use fchain_model::OnlineLearner;
use std::collections::VecDeque;

/// How many doomed values are decoded from the paired series per refill
/// of the eviction buffer — one cold block, so the per-push shadow
/// advance costs O(1) amortized.
const EVICT_CHUNK: usize = 128;

/// Bounded error history that materializes only its raw hot suffix and
/// regenerates everything older by replaying the paired value series
/// through a shadow learner. Reads are bit-identical to a flat ring of
/// the same capacity.
///
/// Every read that may reach below the hot suffix takes the paired
/// `values` series; the caller (the per-metric state) owns both and
/// pushes them in lockstep, so `len()` always equals `values.len()`.
#[derive(Debug)]
pub(crate) struct DerivedSeries {
    /// Materialized suffix: ring-local indices `[len − hot.len(), len)`.
    hot: VecDeque<f64>,
    /// Raw samples the hot suffix retains once warmed.
    hot_capacity: usize,
    /// Logical window size; mirrors the paired series' capacity.
    capacity: usize,
    /// Logical length (samples currently in the window).
    len: usize,
    /// The live learner's state as of ring-local index 0: feeding it
    /// `values[0..]` reproduces `errors[0..]` exactly.
    shadow: OnlineLearner,
    /// Values about to be evicted from the paired series, decoded ahead
    /// in chunks; the front is always the paired series' ring-local 0.
    evict_buf: VecDeque<f64>,
}

impl DerivedSeries {
    /// Creates an empty series whose shadow starts as a fresh learner —
    /// identical to the live learner before its first sample.
    pub(crate) fn new(capacity: usize, hot_capacity: usize, shadow: OnlineLearner) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        assert!(hot_capacity > 0, "hot capacity must be non-zero");
        DerivedSeries {
            hot: VecDeque::new(),
            hot_capacity,
            capacity,
            len: 0,
            shadow,
            evict_buf: VecDeque::new(),
        }
    }

    /// Logical length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Advances the shadow past the value the paired series is about to
    /// evict. Must be called exactly once before each eviction-causing
    /// push, while `values` still holds the doomed sample at ring-local
    /// index 0.
    pub(crate) fn pre_evict(&mut self, values: &TieredSeries) {
        if self.evict_buf.is_empty() {
            self.evict_buf
                .extend(values.iter_range(0, EVICT_CHUNK.min(values.len())));
        }
        let doomed = self.evict_buf.pop_front().expect("refilled above");
        let _ = self.shadow.feed(doomed);
        self.len -= 1;
    }

    /// Appends the error the live learner just produced. The caller must
    /// have routed any same-push eviction through
    /// [`DerivedSeries::pre_evict`] first.
    pub(crate) fn push(&mut self, error: f64) {
        debug_assert!(self.len < self.capacity, "pre_evict must run first");
        self.len += 1;
        self.hot.push_back(error);
        while self.hot.len() > self.hot_capacity.min(self.len) {
            self.hot.pop_front();
        }
    }

    /// The error at ring-local index `i`: a direct read inside the hot
    /// suffix, a shadow replay below it.
    pub(crate) fn get(&self, i: usize, values: &TieredSeries) -> Option<f64> {
        if i >= self.len {
            return None;
        }
        let hot_start = self.hot_start();
        if i >= hot_start {
            return Some(self.hot[i - hot_start]);
        }
        let mut shadow = self.shadow.clone();
        let mut out = None;
        for (j, v) in values.iter_range(0, i + 1).enumerate() {
            let e = shadow.feed(v);
            if j == i {
                out = Some(e);
            }
        }
        out
    }

    /// The errors at ring-local `[start, end)` (`end` clamped to the
    /// length), regenerated in one pass.
    pub(crate) fn range_vec(&self, start: usize, end: usize, values: &TieredSeries) -> Vec<f64> {
        let end = end.min(self.len);
        let start = start.min(end);
        let hot_start = self.hot_start();
        let mut out = Vec::with_capacity(end - start);
        if start < hot_start {
            // One replay covers every below-hot index; the decoded
            // values iterator opens each cold block once.
            let mut shadow = self.shadow.clone();
            for (j, v) in values.iter_range(0, end.min(hot_start)).enumerate() {
                let e = shadow.feed(v);
                if j >= start {
                    out.push(e);
                }
            }
        }
        for i in start.max(hot_start)..end {
            out.push(self.hot[i - hot_start]);
        }
        out
    }

    /// First ring-local index of the materialized hot suffix.
    pub(crate) fn hot_start(&self) -> usize {
        self.len - self.hot.len()
    }

    /// The errors at ring-local `[start, end)` (`end` clamped to the
    /// length), read in place from the hot suffix: no copy, no replay.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches below [`DerivedSeries::hot_start`].
    pub(crate) fn hot_range(&self, start: usize, end: usize) -> impl Iterator<Item = f64> + '_ {
        let end = end.min(self.len);
        let start = start.min(end);
        let hot_start = self.hot_start();
        assert!(
            start >= hot_start,
            "error range reaches below the hot suffix"
        );
        self.hot.range(start - hot_start..end - hot_start).copied()
    }

    /// Clears `out` and fills it with the whole series, oldest first.
    pub(crate) fn copy_into(&self, out: &mut Vec<f64>, values: &TieredSeries) {
        out.clear();
        let hot_start = self.hot_start();
        if hot_start > 0 {
            let mut shadow = self.shadow.clone();
            out.extend(values.iter_range(0, hot_start).map(|v| shadow.feed(v)));
        }
        out.extend(self.hot.iter().copied());
    }

    /// The whole series as a vector, oldest first.
    #[cfg(test)]
    pub(crate) fn to_vec(&self, values: &TieredSeries) -> Vec<f64> {
        let mut out = Vec::new();
        self.copy_into(&mut out, values);
        out
    }

    /// Heap bytes of the materialized state (hot suffix + eviction
    /// buffer); the shadow learner is accounted with the model matrices.
    pub(crate) fn hot_bytes(&self) -> usize {
        (self.hot.capacity() + self.evict_buf.capacity()) * std::mem::size_of::<f64>()
    }

    /// Heap bytes an equivalent flat ring of `capacity` would hold.
    pub(crate) fn flat_ring_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<f64>()
    }

    /// Total heap footprint, excluding the shadow's model matrices.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<DerivedSeries>() + self.hot_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_model::LearnerConfig;

    /// A jagged signal that keeps the learner's decayed masses moving, so
    /// regenerated errors only match if the shadow replay is bit-exact.
    fn value(t: u64) -> f64 {
        40.0 + ((t / 6 * 3 + t * t % 11) % 7) as f64 + (t % 13) as f64 * 0.25
    }

    /// Drives a live learner + paired stores exactly like the daemon's
    /// push path and returns the flat reference error list alongside.
    fn build(ticks: u64, capacity: usize, hot: usize) -> (TieredSeries, DerivedSeries, Vec<f64>) {
        let config = LearnerConfig::default();
        let mut learner = OnlineLearner::new(config.clone());
        let mut values = TieredSeries::new(capacity, hot);
        let mut errors = DerivedSeries::new(capacity, hot, OnlineLearner::new(config));
        let mut reference = Vec::new();
        for t in 0..ticks {
            let v = value(t);
            if values.len() == values.capacity() {
                errors.pre_evict(&values);
            }
            let e = learner.feed(v);
            values.push(v);
            errors.push(e);
            reference.push(e);
            assert_eq!(errors.len(), values.len());
        }
        let start = reference.len().saturating_sub(capacity);
        (values, errors, reference.split_off(start))
    }

    #[test]
    fn replay_matches_flat_reference_across_evictions() {
        // 4200 pushes through a 4000-slot window: the shadow advances 200
        // times, the hot suffix covers only the last 512 samples, and
        // every regenerated index must still match the live feed.
        let (values, errors, reference) = build(4200, 4000, 512);
        assert_eq!(errors.len(), reference.len());
        for i in [0, 1, 59, 60, 61, 1000, 3487, 3488, 3999] {
            assert_eq!(
                errors.get(i, &values).unwrap().to_bits(),
                reference[i].to_bits(),
                "index {i} diverged"
            );
        }
        let full = errors.to_vec(&values);
        assert_eq!(full.len(), reference.len());
        for (i, (a, b)) in full.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i} diverged");
        }
    }

    #[test]
    fn range_reads_stitch_replay_and_hot() {
        let (values, errors, reference) = build(4200, 4000, 512);
        // Straddles the replay/hot boundary (hot starts at 4000 − 512).
        let span = errors.range_vec(3400, 3600, &values);
        assert_eq!(span.len(), 200);
        for (i, e) in span.iter().enumerate() {
            assert_eq!(e.to_bits(), reference[3400 + i].to_bits());
        }
        assert!(errors.range_vec(100, 100, &values).is_empty());
        assert_eq!(errors.range_vec(3990, 9999, &values).len(), 10);
    }

    #[test]
    fn small_windows_never_outgrow_their_length() {
        // Chaos-lab shape: capacity barely above the hot target, so the
        // hot suffix is clamped by the logical length, not hot_capacity.
        let (values, errors, reference) = build(700, 516, 512);
        assert_eq!(errors.len(), 516);
        let full = errors.to_vec(&values);
        for (i, (a, b)) in full.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i} diverged");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every range read the violation-time analysis takes is exact
        /// across evictions and hot/cold straddles: the in-place hot
        /// range (and its max, the screen's fold) and the paired values'
        /// range iterator equal the flat reference slice bit for bit,
        /// and the replaying range read does too.
        #[test]
        fn range_reads_match_flat_slices(
            ticks in 0u64..1400,
            capacity in 40usize..600,
            hot in 1usize..300,
            ranges in proptest::collection::vec((0usize..5000, 0usize..5000), 1..8),
        ) {
            let (values, errors, reference) = build(ticks, capacity, hot);
            let flat_values = values.to_vec();
            let len = errors.len();
            proptest::prop_assert_eq!(errors.hot_start(), len - hot.min(len));
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (a, b) in ranges {
                let (a, b) = (a % (len + 1), b % (len + 1));
                let (a, b) = (a.min(b), a.max(b));
                let read: Vec<f64> = values.iter_range(a, b).collect();
                proptest::prop_assert_eq!(bits(&read), bits(&flat_values[a..b]));
                proptest::prop_assert_eq!(
                    bits(&errors.range_vec(a, b, &values)),
                    bits(&reference[a..b])
                );
                if b < errors.hot_start() {
                    continue;
                }
                let lo = a.max(errors.hot_start());
                let hot_read: Vec<f64> = errors.hot_range(lo, b).collect();
                proptest::prop_assert_eq!(bits(&hot_read), bits(&reference[lo..b]));
                proptest::prop_assert_eq!(
                    errors.hot_range(lo, b).fold(0.0, f64::max).to_bits(),
                    reference[lo..b].iter().copied().fold(0.0, f64::max).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "below the hot suffix")]
    fn hot_range_refuses_cold_indices() {
        let (_, errors, _) = build(700, 600, 128);
        let _ = errors.hot_range(errors.hot_start() - 1, errors.len());
    }

    #[test]
    fn stores_no_cold_tier() {
        let (_, errors, _) = build(4200, 4000, 512);
        // Hot suffix + at most one decode chunk, far below the flat ring.
        assert!(errors.hot_bytes() < 2 * (512 + EVICT_CHUNK) * 8);
        assert_eq!(errors.flat_ring_bytes(), 4000 * 8);
    }
}
