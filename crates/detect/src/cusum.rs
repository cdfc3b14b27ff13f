//! CUSUM + bootstrap change-point detection with recursive segmentation.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Direction of the level shift at a change point.
///
/// The integrated pinpointing step uses per-component trends to detect
/// external factors: "if ... the changes at all the components follow the
/// same upward or downward trend, FChain infers that the performance
/// anomaly is probably caused by some external factors" (paper §II.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Trend {
    /// The level after the change is higher.
    Up,
    /// The level after the change is lower.
    Down,
}

/// A detected change point within an analyzed window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChangePoint {
    /// Index into the analyzed slice; the change happens *at* this sample
    /// (the first sample of the new regime).
    pub index: usize,
    /// Absolute difference between the post- and pre-change segment means.
    pub magnitude: f64,
    /// Shift direction.
    pub direction: Trend,
}

/// Configuration of the CUSUM + bootstrap detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CusumConfig {
    /// Number of bootstrap reshuffles per segment.
    pub bootstraps: usize,
    /// Minimum bootstrap confidence to accept a change (e.g. `0.95`).
    pub confidence: f64,
    /// Minimum segment length to keep recursing.
    pub min_segment: usize,
    /// Maximum number of change points reported per window (guards the
    /// recursion on pathological inputs).
    pub max_change_points: usize,
    /// RNG seed for the bootstrap (deterministic runs).
    pub seed: u64,
}

impl CusumConfig {
    /// Checks that a detector can run with this configuration.
    ///
    /// # Errors
    ///
    /// Names the first violated rule: `bootstraps == 0`, `confidence`
    /// outside `(0, 1]`, or `min_segment < 4`.
    pub fn validate(&self) -> Result<(), String> {
        if self.bootstraps == 0 {
            return Err("bootstraps must be non-zero".into());
        }
        if !(self.confidence > 0.0 && self.confidence <= 1.0) {
            return Err("confidence must be in (0, 1]".into());
        }
        if self.min_segment < 4 {
            return Err("min_segment must be at least 4".into());
        }
        Ok(())
    }
}

impl Default for CusumConfig {
    fn default() -> Self {
        CusumConfig {
            bootstraps: 200,
            confidence: 0.95,
            min_segment: 6,
            max_change_points: 32,
            seed: 0x5eed_cafe,
        }
    }
}

/// "CUSUM + Bootstrap" change point detector (Basseville & Nikiforov via
/// Taylor's bootstrap formulation), extended with recursive binary
/// segmentation so a window can contain several change points — exactly
/// the behavior Fig. 3 of the paper shows (many change points on a bursty
/// Hadoop metric).
///
/// # Examples
///
/// ```
/// use fchain_detect::{CusumConfig, CusumDetector};
///
/// let mut xs = vec![10.0; 50];
/// xs.extend(vec![30.0; 50]);
/// let detector = CusumDetector::new(CusumConfig::default());
/// let cps = detector.detect(&xs);
/// assert_eq!(cps.len(), 1);
/// assert!((cps[0].index as i64 - 50).unsigned_abs() <= 2);
/// assert!(cps[0].magnitude > 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct CusumDetector {
    config: CusumConfig,
}

impl CusumDetector {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`CusumConfig::validate`] rejects `config`.
    pub fn new(config: CusumConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        CusumDetector { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CusumConfig {
        &self.config
    }

    /// Detects all change points in `xs`, sorted by index.
    ///
    /// The hot path is allocation-free per segment: one prefix-sum table
    /// gives every segment mean in O(1), and a single scratch buffer is
    /// reused for every bootstrap reshuffle across the whole recursion
    /// (instead of cloning the segment once per recursion level).
    pub fn detect(&self, xs: &[f64]) -> Vec<ChangePoint> {
        let mut prefix = Vec::new();
        let mut scratch = Vec::new();
        let mut found = Vec::new();
        self.detect_into(xs, &mut prefix, &mut scratch, &mut found);
        found
    }

    /// [`CusumDetector::detect`] with caller-owned buffers.
    ///
    /// `prefix`, `scratch` and `out` are cleared and refilled; holding them
    /// across calls (as the slave's per-component selection scratch does)
    /// makes repeated detection allocation-free after warm-up. The prefix
    /// table is rebuilt from scratch on every call — accumulating it
    /// incrementally across a sliding window would change the
    /// floating-point summation order and break bit-for-bit parity with
    /// [`CusumDetector::detect`].
    pub fn detect_into(
        &self,
        xs: &[f64],
        prefix: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ChangePoint>,
    ) {
        self.detect_into_inner(xs, prefix, scratch, out, false);
    }

    /// [`CusumDetector::detect_into`] with a faster bootstrap: reshuffles
    /// run four at a time, drawn in the reference order and scanned
    /// in one pass, and each segment's bootstrap stops as soon as
    /// rejection is certain — when even counting every remaining
    /// reshuffle as a success could not reach the confidence threshold —
    /// fast-forwarding the RNG over the draws the skipped reshuffles would
    /// have consumed ([`SmallRng::advance`], `O(log n)`).
    ///
    /// The output is **bit-identical** to [`CusumDetector::detect_into`]:
    /// every lane holds the permutation the reference loop has after the
    /// same reshuffle and adds in the same order; a pruned segment would
    /// have been rejected anyway (the final `below / bootstraps` is
    /// monotone in the success count, so the early verdict is exact, and
    /// a rejected segment contributes no change point); and because every
    /// reshuffle of an `n`-sample segment consumes exactly `n - 1` draws,
    /// the fast-forward leaves the RNG in precisely the state the full
    /// loop would have — so every subsequent segment in the recursion sees
    /// identical reshuffles. Accepted segments always run their full
    /// bootstrap. The streaming analysis engine runs this variant; the
    /// batch reference keeps the scalar loop.
    pub fn detect_into_pruned(
        &self,
        xs: &[f64],
        prefix: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ChangePoint>,
    ) {
        self.detect_into_inner(xs, prefix, scratch, out, true);
    }

    fn detect_into_inner(
        &self,
        xs: &[f64],
        prefix: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ChangePoint>,
        prune: bool,
    ) {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        out.clear();
        if xs.len() < self.config.min_segment * 2 {
            return;
        }
        // prefix[i] = sum of xs[..i]; segment sums become two lookups.
        prefix.clear();
        prefix.reserve(xs.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &x in xs {
            acc += x;
            prefix.push(acc);
        }
        // One reshuffle buffer for the scalar loop, `LANES` for the lanes.
        scratch.clear();
        scratch.resize(if prune { LANES } else { 1 } * xs.len(), 0.0);
        self.segment(xs, prefix, 0, xs.len(), out, &mut rng, scratch, 0, prune);
        out.sort_by_key(|cp| cp.index);
    }

    /// Recursively splits `xs[lo..hi]`; found change points carry absolute
    /// indices.
    #[allow(clippy::too_many_arguments)]
    fn segment(
        &self,
        xs: &[f64],
        prefix: &[f64],
        lo: usize,
        hi: usize,
        out: &mut Vec<ChangePoint>,
        rng: &mut SmallRng,
        scratch: &mut [f64],
        depth: usize,
        prune: bool,
    ) {
        let n = hi - lo;
        if n < self.config.min_segment * 2 || out.len() >= self.config.max_change_points {
            return;
        }
        // Hard recursion cap: every split strictly shrinks both halves, but
        // keep an explicit guard for safety.
        if depth > 24 {
            return;
        }
        let Some(split) = self.test_segment(xs, prefix, lo, hi, rng, scratch, prune) else {
            return;
        };
        if split < self.config.min_segment || n - split < self.config.min_segment {
            return;
        }
        let before = (prefix[lo + split] - prefix[lo]) / split as f64;
        let after = (prefix[hi] - prefix[lo + split]) / (n - split) as f64;
        let magnitude = (after - before).abs();
        let direction = if after >= before {
            Trend::Up
        } else {
            Trend::Down
        };
        out.push(ChangePoint {
            index: lo + split,
            magnitude,
            direction,
        });
        self.segment(
            xs,
            prefix,
            lo,
            lo + split,
            out,
            rng,
            scratch,
            depth + 1,
            prune,
        );
        self.segment(
            xs,
            prefix,
            lo + split,
            hi,
            out,
            rng,
            scratch,
            depth + 1,
            prune,
        );
    }

    /// Taylor's bootstrap test on `xs[lo..hi]`: returns the split index
    /// relative to `lo` when the bootstrap confidence that the segment
    /// holds a real change reaches the configured threshold.
    #[allow(clippy::too_many_arguments)]
    fn test_segment(
        &self,
        xs: &[f64],
        prefix: &[f64],
        lo: usize,
        hi: usize,
        rng: &mut SmallRng,
        scratch: &mut [f64],
        prune: bool,
    ) -> Option<usize> {
        let n = hi - lo;
        let mean = (prefix[hi] - prefix[lo]) / n as f64;
        // CUSUM: S_i = sum_{j<=i} (x_j - mean). Only the extremes and the
        // arg-max of |S| are needed, so nothing is materialized.
        let mut acc = 0.0;
        let mut s_min = f64::INFINITY;
        let mut s_max = f64::NEG_INFINITY;
        let mut max_abs_idx = 0;
        let mut max_abs = -1.0;
        for (i, &x) in xs[lo..hi].iter().enumerate() {
            acc += x - mean;
            s_min = s_min.min(acc);
            s_max = s_max.max(acc);
            if acc.abs() > max_abs {
                max_abs = acc.abs();
                max_abs_idx = i;
            }
        }
        let s_diff = s_max - s_min;
        if s_diff <= f64::EPSILON {
            return None; // constant segment
        }
        // Bootstrap: how often does a random reordering show a smaller
        // CUSUM span? A real change keeps the original span extreme.
        let accepted = if prune {
            self.bootstrap_lanes(&xs[lo..hi], mean, s_diff, rng, scratch)
        } else {
            self.bootstrap_scalar(&xs[lo..hi], mean, s_diff, rng, scratch)
        };
        if !accepted {
            return None;
        }
        // The change is estimated at the extreme of |S|; the new regime
        // starts on the next sample.
        Some((max_abs_idx + 1).min(n - 1))
    }

    /// The reference bootstrap: reshuffle the segment `bootstraps` times
    /// in place and count the reshuffles whose CUSUM span falls below
    /// `s_diff`. The batch engine runs this loop; it is the oracle the
    /// lane kernel ([`CusumDetector::bootstrap_lanes`]) is checked against.
    fn bootstrap_scalar(
        &self,
        seg: &[f64],
        mean: f64,
        s_diff: f64,
        rng: &mut SmallRng,
        scratch: &mut [f64],
    ) -> bool {
        let shuffled = &mut scratch[..seg.len()];
        shuffled.copy_from_slice(seg);
        let bootstraps = self.config.bootstraps;
        let mut below = 0usize;
        for _ in 0..bootstraps {
            shuffled.shuffle(rng);
            let mut acc = 0.0;
            let mut span_lo = f64::INFINITY;
            let mut span_hi = f64::NEG_INFINITY;
            for &x in shuffled.iter() {
                acc += x - mean;
                span_lo = span_lo.min(acc);
                span_hi = span_hi.max(acc);
            }
            if span_hi - span_lo < s_diff {
                below += 1;
            }
        }
        (below as f64 / bootstraps as f64) >= self.config.confidence
    }

    /// The streaming engine's bootstrap: the same reshuffles and the same
    /// verdict as [`CusumDetector::bootstrap_scalar`], bit for bit, run
    /// [`LANES`] at a time and stopped as soon as rejection is certain.
    ///
    /// - **Batches.** Lane `l` starts as a copy of lane `l - 1` (lane 0
    ///   copies the previous batch's last lane; the first batch starts
    ///   from `seg`) and is shuffled once, so every draw happens in the
    ///   scalar loop's order and lane `l` holds its permutation after
    ///   reshuffle `done + l + 1`. One pass then scans every lane; each
    ///   lane's adds keep the scalar order, so its CUSUM values are
    ///   identical. The interleaved dependency chains are the speed-up.
    /// - **Extremes.** Compare-and-select (`if acc < lo { lo = acc }`)
    ///   replaces `f64::min`/`max`. Both skip a NaN `acc`, and the only
    ///   value read is `span_hi - span_lo < s_diff` with `s_diff > ε`, so
    ///   a ±0 extreme cannot change it.
    /// - **Pruning.** `below` and the rejection-certain check run lane by
    ///   lane in reshuffle order. When even counting every remaining
    ///   reshuffle as a success cannot reach the confidence threshold,
    ///   the verdict is fixed; the RNG then fast-forwards over the draws
    ///   the scalar loop would still make — every reshuffle of an
    ///   `n`-sample segment consumes exactly `n - 1`, and the lanes after
    ///   the pruning one have already drawn, so the distance is
    ///   `B·(n - 1) - consumed` — leaving every later segment an
    ///   unchanged stream.
    ///
    /// `scratch` holds `LANES` segment-sized buffers.
    fn bootstrap_lanes(
        &self,
        seg: &[f64],
        mean: f64,
        s_diff: f64,
        rng: &mut SmallRng,
        scratch: &mut [f64],
    ) -> bool {
        let n = seg.len();
        let lanes = &mut scratch[..LANES * n];
        lanes[(LANES - 1) * n..].copy_from_slice(seg);
        let bootstraps = self.config.bootstraps;
        let mut below = 0usize;
        let mut done = 0usize;
        while done < bootstraps {
            let batch = LANES.min(bootstraps - done);
            for l in 0..batch {
                let prev = (l + LANES - 1) % LANES;
                lanes.copy_within(prev * n..(prev + 1) * n, l * n);
                lanes[l * n..(l + 1) * n].shuffle(rng);
            }
            let drawn = done + batch;
            // Lanes past `batch` hold stale data; their spans are unread.
            let spans = scan_lanes(lanes, n, mean);
            for span in &spans[..batch] {
                done += 1;
                if *span < s_diff {
                    below += 1;
                }
                let remaining = bootstraps - done;
                if remaining > 0
                    && ((below + remaining) as f64 / bootstraps as f64) < self.config.confidence
                {
                    rng.advance(((bootstraps - drawn) * (n - 1)) as u64);
                    return false;
                }
            }
        }
        (below as f64 / bootstraps as f64) >= self.config.confidence
    }
}

/// Bootstrap reshuffles the streaming engine scans in one pass.
const LANES: usize = 4;

/// The CUSUM span `max S - min S` of each of the [`LANES`] `n`-sample
/// buffers in `lanes`, all lanes advanced together one sample at a time so
/// their dependency chains interleave (the destructuring fixes `LANES` at
/// four).
fn scan_lanes(lanes: &[f64], n: usize, mean: f64) -> [f64; LANES] {
    let [a, b, c, d]: [&[f64]; LANES] = std::array::from_fn(|l| &lanes[l * n..(l + 1) * n]);
    let mut acc = [0.0f64; LANES];
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    for (((&xa, &xb), &xc), &xd) in a.iter().zip(b).zip(c).zip(d) {
        let xs = [xa, xb, xc, xd];
        for l in 0..LANES {
            acc[l] += xs[l] - mean;
            if acc[l] < lo[l] {
                lo[l] = acc[l];
            }
            if acc[l] > hi[l] {
                hi[l] = acc[l];
            }
        }
    }
    std::array::from_fn(|l| hi[l] - lo[l])
}

impl Default for CusumDetector {
    fn default() -> Self {
        CusumDetector::new(CusumConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(pre: f64, post: f64, at: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| if i < at { pre } else { post }).collect()
    }

    /// A W=500-sized window shaped like a bursty slow-fault metric after
    /// smoothing: a level that jumps every ~25 samples on average, uniform
    /// noise, and a ±2-sample moving average.
    fn bursty(seed: u64, n: usize) -> Vec<f64> {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut level = 50.0;
        let raw: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.04 {
                    level = rng.gen::<f64>() * 100.0;
                }
                level + rng.gen::<f64>() * 8.0
            })
            .collect();
        (0..n)
            .map(|i| {
                let (lo, hi) = (i.saturating_sub(2), (i + 3).min(n));
                raw[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    #[test]
    fn clean_step_found_at_right_place() {
        let xs = step(5.0, 25.0, 40, 100);
        let cps = CusumDetector::default().detect(&xs);
        assert_eq!(cps.len(), 1);
        let cp = cps[0];
        assert!(
            (cp.index as i64 - 40).unsigned_abs() <= 2,
            "index {}",
            cp.index
        );
        assert_eq!(cp.direction, Trend::Up);
        assert!(cp.magnitude > 15.0);
    }

    #[test]
    fn downward_step_direction() {
        let xs = step(25.0, 5.0, 60, 120);
        let cps = CusumDetector::default().detect(&xs);
        assert_eq!(cps[0].direction, Trend::Down);
    }

    #[test]
    fn constant_signal_has_no_change_points() {
        let xs = vec![7.0; 80];
        assert!(CusumDetector::default().detect(&xs).is_empty());
    }

    #[test]
    fn pure_noise_rarely_flags() {
        // Genuinely iid noise; stationary, so the bootstrap should not
        // find high-confidence changes. (An earlier version used the
        // `fract(sin(i * 12.9898) * 43758.5453)` hash here, but that
        // sequence has lag-1 autocorrelation ≈ 0.57 — far outside the iid
        // 95% band of ±0.196 at n = 100 — so the detector legitimately
        // flags its serial structure; it is not noise.)
        use rand::prelude::*;
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..100).map(|_| rng.gen::<f64>()).collect();
            let cps = CusumDetector::default().detect(&xs);
            assert!(
                cps.len() <= 1,
                "noise (seed {seed}) produced {} change points",
                cps.len()
            );
        }
    }

    #[test]
    fn multiple_steps_found_by_segmentation() {
        let mut xs = step(5.0, 25.0, 40, 80);
        xs.extend(step(25.0, 60.0, 20, 60)); // second step at 100
        let cps = CusumDetector::default().detect(&xs);
        assert!(cps.len() >= 2, "found {:?}", cps);
        assert!(cps
            .iter()
            .any(|c| (c.index as i64 - 40).unsigned_abs() <= 3));
        assert!(cps
            .iter()
            .any(|c| (c.index as i64 - 100).unsigned_abs() <= 3));
        // Sorted by index.
        for w in cps.windows(2) {
            assert!(w[0].index < w[1].index);
        }
    }

    #[test]
    fn short_windows_are_skipped() {
        let xs = step(0.0, 10.0, 3, 8); // shorter than 2 * min_segment
        assert!(CusumDetector::default().detect(&xs).is_empty());
    }

    #[test]
    fn deterministic_across_calls() {
        let xs: Vec<f64> = (0..150)
            .map(|i| if i < 70 { 10.0 } else { 20.0 } + ((i * 7) % 5) as f64)
            .collect();
        let d = CusumDetector::default();
        assert_eq!(d.detect(&xs), d.detect(&xs));
    }

    #[test]
    fn pruned_detection_is_bit_identical() {
        // Signals mixing accepted and rejected segments, so the pruned
        // bootstrap's RNG fast-forward is exercised mid-recursion: a
        // rejected left child must leave the right child's reshuffles
        // untouched, whichever lane of a batch it was rejected on.
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut signals: Vec<Vec<f64>> = vec![
            step(5.0, 25.0, 40, 100),
            vec![7.0; 80],
            (0..150)
                .map(|i| if i < 70 { 10.0 } else { 20.0 } + ((i * 7) % 5) as f64)
                .collect(),
        ];
        let mut multi = step(5.0, 25.0, 40, 80);
        multi.extend(step(25.0, 60.0, 20, 60));
        signals.push(multi);
        signals.push((0..120).map(|_| rng.gen::<f64>() * 30.0).collect());
        signals.push(
            (0..200)
                .map(|i| (if i % 90 < 45 { 3.0 } else { 19.0 }) + rng.gen::<f64>())
                .collect(),
        );
        // Long bursty windows run the recursion into `max_change_points`
        // with accepted segments at every depth.
        for seed in 0..3 {
            let mut xs = bursty(seed, 600);
            for (i, x) in xs.iter_mut().enumerate() {
                *x += if (i / 14) % 2 == 0 { 0.0 } else { 60.0 };
            }
            signals.push(xs);
        }
        // Bootstrap counts from one reshuffle to the default, including
        // counts whose last lane batch is partial.
        for bootstraps in [1, 2, 3, 5, 7, 199, 200] {
            let d = CusumDetector::new(CusumConfig {
                bootstraps,
                ..CusumConfig::default()
            });
            let (mut prefix, mut scratch) = (Vec::new(), Vec::new());
            let (mut plain, mut pruned) = (Vec::new(), Vec::new());
            let mut capped = false;
            for (i, xs) in signals.iter().enumerate() {
                d.detect_into(xs, &mut prefix, &mut scratch, &mut plain);
                d.detect_into_pruned(xs, &mut prefix, &mut scratch, &mut pruned);
                assert_eq!(
                    plain, pruned,
                    "B={bootstraps}, signal {i}: lanes changed the result"
                );
                capped |= plain.len() == d.config().max_change_points;
            }
            assert!(capped, "B={bootstraps}: no signal reached the cap");
        }
    }

    /// FNV-1a over every change point's index, magnitude bits and
    /// direction.
    fn digest(cps: &[ChangePoint], mut h: u64) -> u64 {
        for cp in cps {
            let up = u64::from(cp.direction == Trend::Up);
            for word in [cp.index as u64, cp.magnitude.to_bits(), up] {
                for b in word.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn detector_output_matches_golden_digest() {
        // Pins both engines' change points to a recorded digest, so a
        // change that moves the batch reference and the streaming kernel
        // together still fails here. The digest was recorded with the
        // scalar bootstrap loop on every path.
        const GOLDEN: (usize, u64) = (158, 0x140b_9d82_94d8_56ac);
        let d = CusumDetector::default();
        let (mut prefix, mut scratch, mut pruned) = (Vec::new(), Vec::new(), Vec::new());
        let (mut count, mut plain_h, mut pruned_h) =
            (0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for seed in 0..6 {
            let xs = bursty(seed, 501);
            let plain = d.detect(&xs);
            d.detect_into_pruned(&xs, &mut prefix, &mut scratch, &mut pruned);
            count += plain.len();
            plain_h = digest(&plain, plain_h);
            pruned_h = digest(&pruned, pruned_h);
        }
        assert_eq!((count, plain_h), GOLDEN, "batch detector output moved");
        assert_eq!((count, pruned_h), GOLDEN, "streaming detector output moved");
    }

    #[test]
    #[should_panic(expected = "min_segment")]
    fn tiny_min_segment_rejected() {
        let _ = CusumDetector::new(CusumConfig {
            min_segment: 2,
            ..CusumConfig::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// Bootstrap counts below, at and around `LANES` multiples, so batches
    /// end mid-lane and pruning fires mid-batch, plus the default.
    const BOOTSTRAPS: [usize; 7] = [1, 2, 3, 5, 7, 199, 200];

    /// An `n`-sample test signal of one of four kinds, drawn from `seed`:
    /// uniform noise; a bursty multi-step level (enough steps to reach
    /// `max_change_points`); the same with ±0.0, ±∞ and NaN sprinkled in;
    /// and steps between signed zeros and small levels.
    fn signal(n: usize, kind: u64, seed: u64) -> Vec<f64> {
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut level = 50.0;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| match kind {
                0 => rng.gen_range(0.0..100.0),
                3 => {
                    if rng.gen_range(0u32..12) == 0 {
                        level = [0.0, -0.0, 1.0, -1.0][rng.gen_range(0usize..4)];
                    }
                    level
                }
                _ => {
                    if rng.gen_range(0u32..10) == 0 {
                        level = rng.gen_range(0.0..100.0);
                    }
                    level + rng.gen_range(0.0..2.0)
                }
            })
            .collect();
        if kind == 2 && n > 0 {
            for _ in 0..rng.gen_range(1usize..4) {
                let at = rng.gen_range(0..n);
                xs[at] = SPECIAL[rng.gen_range(0usize..SPECIAL.len())];
            }
        }
        xs
    }

    /// What two detections must agree on, with the magnitude compared bit
    /// for bit (a NaN magnitude equals itself).
    fn bits(cps: &[ChangePoint]) -> Vec<(usize, Trend, u64)> {
        cps.iter()
            .map(|cp| (cp.index, cp.direction, cp.magnitude.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Detection never reports out-of-range indices, is sorted, and
        /// magnitudes are non-negative and within the data span.
        #[test]
        fn well_formed_output(xs in proptest::collection::vec(0.0f64..100.0, 0..200)) {
            let cps = CusumDetector::default().detect(&xs);
            let span = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().copied().fold(f64::INFINITY, f64::min);
            for w in cps.windows(2) {
                prop_assert!(w[0].index < w[1].index);
            }
            for cp in cps {
                prop_assert!(cp.index < xs.len());
                prop_assert!(cp.magnitude >= 0.0);
                prop_assert!(cp.magnitude <= span + 1e-9);
            }
        }

        /// The streaming engine's bootstrap (lanes, pruning) never changes
        /// the detected change points, and neither does reusing dirty
        /// buffers: both variants run repeatedly on the same buffers over
        /// windows that shrink and grow, and each answer must equal a
        /// fresh `detect`, index, direction and magnitude bits alike.
        /// Inputs cover every length mod `LANES`, bursty signals that
        /// reach `max_change_points`, non-finite and signed-zero samples,
        /// and bootstrap counts whose batches end mid-lane.
        #[test]
        fn pruned_matches_plain(
            (xs, bootstraps) in (0usize..=600, 0u64..4, 0..u64::MAX, 0usize..7)
                .prop_map(|(n, kind, seed, b)| (signal(n, kind, seed), BOOTSTRAPS[b]))
        ) {
            let d = CusumDetector::new(CusumConfig {
                bootstraps,
                ..CusumConfig::default()
            });
            let (mut prefix, mut scratch) = (Vec::new(), Vec::new());
            let (mut plain, mut pruned) = (Vec::new(), Vec::new());
            let n = xs.len();
            for window in [0..n, n / 2..n, n / 4..3 * n / 4, 0..n / 3, 0..n] {
                let xs = &xs[window];
                let fresh = bits(&d.detect(xs));
                d.detect_into(xs, &mut prefix, &mut scratch, &mut plain);
                d.detect_into_pruned(xs, &mut prefix, &mut scratch, &mut pruned);
                prop_assert_eq!(bits(&plain), fresh.clone());
                prop_assert_eq!(bits(&pruned), fresh);
            }
        }

        /// A large clean step is always detected.
        #[test]
        fn step_always_detected(at in 20usize..80, jump in 20.0f64..100.0) {
            let xs: Vec<f64> = (0..100)
                .map(|i| if i < at { 10.0 } else { 10.0 + jump })
                .collect();
            let cps = CusumDetector::default().detect(&xs);
            prop_assert!(!cps.is_empty());
            prop_assert!(cps.iter().any(|c| (c.index as i64 - at as i64).unsigned_abs() <= 3));
        }
    }
}
