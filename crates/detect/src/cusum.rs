//! CUSUM + bootstrap change-point detection with recursive segmentation.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// How the permutation memo served one detection's segment tests
/// ([`CusumDetector::detect_into_pruned`]). Every bootstrap test counts
/// in exactly one field; a constant segment runs no bootstrap and counts
/// in none. The memo is shared by the whole process, so the split depends
/// on what ran before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoTally {
    /// Tests that gathered cached permutations instead of reshuffling.
    pub hits: u64,
    /// Tests that generated their permutations and cached them.
    pub admits: u64,
    /// Tests that reshuffled without the memo.
    pub misses: u64,
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
        self.detect_into_inner(xs, prefix, scratch, out, None);
    }

    /// [`CusumDetector::detect_into`] with a faster bootstrap, and the
    /// memo's tally of its segment tests.
    ///
    /// - **Lanes.** Reshuffles run four at a time, drawn in the
    ///   reference order and scanned in one pass.
    /// - **Pruning.** Each segment's bootstrap stops as soon as rejection
    ///   is certain — when even counting every remaining reshuffle as a
    ///   success could not reach the confidence threshold —
    ///   fast-forwarding the RNG over the draws the skipped reshuffles
    ///   would have consumed ([`SmallRng::advance`], `O(log n)`).
    /// - **Memo.** A segment test's reshuffles depend only on the seed,
    ///   the bootstrap count, the segment length and the draws made since
    ///   the seed. A process-wide memo of 256 KiB keeps the composed
    ///   permutations of recurring tests as index arrays; a test it holds
    ///   gathers `seg[perm[i]]` instead of reshuffling and takes the
    ///   stored exit state of the RNG.
    ///
    /// The output is **bit-identical** to [`CusumDetector::detect_into`]:
    /// every lane, shuffled or gathered, holds the permutation the
    /// reference loop has after the same reshuffle and adds in the same
    /// order; a pruned segment would have been rejected anyway (the final
    /// `below / bootstraps` is monotone in the success count, so the early
    /// verdict is exact, and a rejected segment contributes no change
    /// point); and because every reshuffle of an `n`-sample segment
    /// consumes exactly `n - 1` draws, the fast-forward and the stored
    /// exit state leave the RNG in precisely the state the full loop would
    /// have — so every subsequent segment in the recursion sees identical
    /// reshuffles. The streaming analysis engine runs this variant; the
    /// batch reference keeps the scalar loop and no memo.
    pub fn detect_into_pruned(
        &self,
        xs: &[f64],
        prefix: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ChangePoint>,
    ) -> MemoTally {
        self.detect_into_inner(xs, prefix, scratch, out, Some(PermutationMemo::global()))
    }

    /// Detection with the scalar reference bootstrap (`memo` `None`) or
    /// the lane kernel backed by `memo`.
    fn detect_into_inner(
        &self,
        xs: &[f64],
        prefix: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        out: &mut Vec<ChangePoint>,
        memo: Option<&PermutationMemo>,
    ) -> MemoTally {
        out.clear();
        if xs.len() < self.config.min_segment * 2 {
            return MemoTally::default();
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
        scratch.resize(if memo.is_some() { LANES } else { 1 } * xs.len(), 0.0);
        let mut pass = Pass {
            detector: self,
            xs,
            prefix,
            scratch,
            out,
            rng: SmallRng::seed_from_u64(self.config.seed),
            offset: 0,
            memo,
            tally: MemoTally::default(),
        };
        pass.segment(0, xs.len(), 0);
        let tally = pass.tally;
        out.sort_by_key(|cp| cp.index);
        tally
    }

    /// The reference bootstrap: reshuffle the segment `bootstraps` times
    /// in place and count the reshuffles whose CUSUM span falls below
    /// `s_diff`. The batch engine runs this loop; it is the oracle the
    /// lane kernel ([`CusumDetector::bootstrap_lanes`]) and the memo's
    /// gather ([`bootstrap_gather`]) are checked against.
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

    /// The streaming engine's bootstrap on a memo miss: the same
    /// reshuffles and the same verdict as
    /// [`CusumDetector::bootstrap_scalar`], bit for bit, run [`LANES`] at
    /// a time and stopped as soon as rejection is certain.
    ///
    /// - **Batches.** Lane `l` starts as a copy of lane `l - 1` (lane 0
    ///   copies the previous batch's last lane; the first batch starts
    ///   from `seg`) and is shuffled once, so every draw happens in the
    ///   scalar loop's order and lane `l` holds its permutation after
    ///   reshuffle `done + l + 1`. One pass then scans every lane; each
    ///   lane's adds keep the scalar order, so its CUSUM values are
    ///   identical. The interleaved dependency chains are the speed-up.
    /// - **Extremes.** A select (`lo = if acc < lo { acc } else { lo }`)
    ///   replaces `f64::min`/`max`. Both skip a NaN `acc`, and the only
    ///   value read is `span_hi - span_lo < s_diff` with `s_diff > ε`, so
    ///   a ±0 extreme cannot change it.
    /// - **Pruning.** `below` and the rejection-certain check
    ///   ([`Verdict`]) run lane by lane in reshuffle order. When even
    ///   counting every remaining reshuffle as a success cannot reach the
    ///   confidence threshold, the verdict is fixed; the RNG then
    ///   fast-forwards over the draws the scalar loop would still make —
    ///   every reshuffle of an `n`-sample segment consumes exactly
    ///   `n - 1`, and the lanes after the pruning one have already drawn,
    ///   so the distance is `B·(n - 1) - consumed` — leaving every later
    ///   segment an unchanged stream.
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
        let mut verdict = Verdict::new(&self.config);
        let mut done = 0usize;
        while done < bootstraps {
            let batch = LANES.min(bootstraps - done);
            for l in 0..batch {
                let prev = (l + LANES - 1) % LANES;
                lanes.copy_within(prev * n..(prev + 1) * n, l * n);
                lanes[l * n..(l + 1) * n].shuffle(rng);
            }
            done += batch;
            // Lanes past `batch` hold stale data; their spans are unread.
            let spans = scan_lanes(lanes, n, mean);
            for &span in &spans[..batch] {
                if !verdict.record(span, s_diff) {
                    rng.advance(((bootstraps - done) * (n - 1)) as u64);
                    return false;
                }
            }
        }
        verdict.accepted()
    }
}

/// One detection's recursion: the window, its prefix sums, the
/// bootstrap's random stream and where change points go.
struct Pass<'a> {
    detector: &'a CusumDetector,
    xs: &'a [f64],
    prefix: &'a [f64],
    scratch: &'a mut [f64],
    out: &'a mut Vec<ChangePoint>,
    rng: SmallRng,
    /// Draws `rng` has made since the seed; with the seed it fixes the
    /// generator's state, which is what keys the memo.
    offset: u64,
    /// The streaming engine's memo; `None` runs the scalar reference.
    memo: Option<&'a PermutationMemo>,
    tally: MemoTally,
}

impl Pass<'_> {
    /// Recursively splits `xs[lo..hi]`; found change points carry absolute
    /// indices.
    fn segment(&mut self, lo: usize, hi: usize, depth: usize) {
        let config = &self.detector.config;
        let n = hi - lo;
        if n < config.min_segment * 2 || self.out.len() >= config.max_change_points {
            return;
        }
        // Hard recursion cap: every split strictly shrinks both halves, but
        // keep an explicit guard for safety.
        if depth > 24 {
            return;
        }
        let Some(split) = self.test_segment(lo, hi) else {
            return;
        };
        if split < config.min_segment || n - split < config.min_segment {
            return;
        }
        let prefix = self.prefix;
        let before = (prefix[lo + split] - prefix[lo]) / split as f64;
        let after = (prefix[hi] - prefix[lo + split]) / (n - split) as f64;
        let magnitude = (after - before).abs();
        let direction = if after >= before {
            Trend::Up
        } else {
            Trend::Down
        };
        self.out.push(ChangePoint {
            index: lo + split,
            magnitude,
            direction,
        });
        self.segment(lo, lo + split, depth + 1);
        self.segment(lo + split, hi, depth + 1);
    }

    /// Taylor's bootstrap test on `xs[lo..hi]`: returns the split index
    /// relative to `lo` when the bootstrap confidence that the segment
    /// holds a real change reaches the configured threshold.
    fn test_segment(&mut self, lo: usize, hi: usize) -> Option<usize> {
        let n = hi - lo;
        let seg = &self.xs[lo..hi];
        let mean = (self.prefix[hi] - self.prefix[lo]) / n as f64;
        // CUSUM: S_i = sum_{j<=i} (x_j - mean). Only the extremes and the
        // arg-max of |S| are needed, so nothing is materialized.
        let mut acc = 0.0;
        let mut s_min = f64::INFINITY;
        let mut s_max = f64::NEG_INFINITY;
        let mut max_abs_idx = 0;
        let mut max_abs = -1.0;
        for (i, &x) in seg.iter().enumerate() {
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
        let accepted = self.bootstrap(seg, mean, s_diff);
        // Every bootstrap, pruned, gathered or not, leaves the stream
        // B·(n - 1) draws further on.
        self.offset += (self.detector.config.bootstraps * (n - 1)) as u64;
        if !accepted {
            return None;
        }
        // The change is estimated at the extreme of |S|; the new regime
        // starts on the next sample.
        Some((max_abs_idx + 1).min(n - 1))
    }

    /// The bootstrap verdict on `seg`: the scalar reference without a
    /// memo; otherwise a gather over the memo's permutations on a hit or
    /// an admission, and the lane kernel on a miss.
    fn bootstrap(&mut self, seg: &[f64], mean: f64, s_diff: f64) -> bool {
        let detector = self.detector;
        let Some(memo) = self.memo else {
            return detector.bootstrap_scalar(seg, mean, s_diff, &mut self.rng, self.scratch);
        };
        let config = &detector.config;
        let key = MemoKey {
            seed: config.seed,
            bootstraps: config.bootstraps,
            offset: self.offset,
            n: seg.len(),
        };
        let entry = match memo.lookup(key) {
            Lookup::Hit(entry) => {
                self.tally.hits += 1;
                self.rng = entry.exit.clone();
                entry
            }
            Lookup::Admit => {
                self.tally.admits += 1;
                let entry = Arc::new(MemoEntry::generate(&mut self.rng, key));
                memo.publish(key, Arc::clone(&entry));
                entry
            }
            Lookup::Miss => {
                self.tally.misses += 1;
                return detector.bootstrap_lanes(seg, mean, s_diff, &mut self.rng, self.scratch);
            }
        };
        bootstrap_gather(config, seg, mean, s_diff, &entry.permutations)
    }
}

/// A bootstrap's running success count, with the rejection-certain check
/// the streaming kernels prune on.
struct Verdict<'c> {
    config: &'c CusumConfig,
    below: usize,
    done: usize,
}

impl<'c> Verdict<'c> {
    fn new(config: &'c CusumConfig) -> Self {
        Verdict {
            config,
            below: 0,
            done: 0,
        }
    }

    /// Counts the next reshuffle's span; `false` once rejection is
    /// certain, that is, once even counting every remaining reshuffle as
    /// a success cannot reach the confidence threshold.
    fn record(&mut self, span: f64, s_diff: f64) -> bool {
        let bootstraps = self.config.bootstraps;
        self.done += 1;
        if span < s_diff {
            self.below += 1;
        }
        let remaining = bootstraps - self.done;
        remaining == 0
            || ((self.below + remaining) as f64 / bootstraps as f64) >= self.config.confidence
    }

    /// The final verdict once every reshuffle is counted.
    fn accepted(&self) -> bool {
        (self.below as f64 / self.config.bootstraps as f64) >= self.config.confidence
    }
}

/// The memo's bootstrap: [`CusumDetector::bootstrap_lanes`]'s verdict and
/// pruning over cached permutations of `seg`. `perms` holds every
/// reshuffle's composed permutation back to back, so lane `l` of a batch
/// reads `seg[perm[i]]`, the values the shuffled lane holds, in the same
/// order. The RNG is not touched: the caller sets it to the entry's exit
/// state.
fn bootstrap_gather(
    config: &CusumConfig,
    seg: &[f64],
    mean: f64,
    s_diff: f64,
    perms: &[u16],
) -> bool {
    let n = seg.len();
    let mut verdict = Verdict::new(config);
    for batch in perms.chunks(LANES * n) {
        let lanes = batch.len() / n;
        for &span in &gather_lanes(seg, batch, mean)[..lanes] {
            if !verdict.record(span, s_diff) {
                return false;
            }
        }
    }
    verdict.accepted()
}

/// Bootstrap reshuffles the streaming engine scans in one pass.
const LANES: usize = 4;

/// Running CUSUM sums and extremes of [`LANES`] reshuffles scanned
/// together, one sample of each per step, so their dependency chains
/// interleave.
struct LaneSums {
    acc: [f64; LANES],
    lo: [f64; LANES],
    hi: [f64; LANES],
}

impl LaneSums {
    fn new() -> Self {
        LaneSums {
            acc: [0.0; LANES],
            lo: [f64::INFINITY; LANES],
            hi: [f64::NEG_INFINITY; LANES],
        }
    }

    /// Adds one sample to each lane. The extremes are select
    /// expressions: LLVM compiles them to scalar `minsd`/`maxsd`, about
    /// twice as fast here as the blends it vectorizes conditional stores
    /// into.
    #[inline(always)]
    fn add(&mut self, xs: [f64; LANES], mean: f64) {
        for (l, x) in xs.into_iter().enumerate() {
            let acc = self.acc[l] + (x - mean);
            self.acc[l] = acc;
            self.lo[l] = if acc < self.lo[l] { acc } else { self.lo[l] };
            self.hi[l] = if acc > self.hi[l] { acc } else { self.hi[l] };
        }
    }

    /// Each lane's CUSUM span `max S - min S`.
    fn spans(&self) -> [f64; LANES] {
        std::array::from_fn(|l| self.hi[l] - self.lo[l])
    }
}

/// The CUSUM span of each of the [`LANES`] `n`-sample buffers in `lanes`
/// (the destructuring fixes `LANES` at four).
fn scan_lanes(lanes: &[f64], n: usize, mean: f64) -> [f64; LANES] {
    let [a, b, c, d]: [&[f64]; LANES] = std::array::from_fn(|l| &lanes[l * n..(l + 1) * n]);
    let mut sums = LaneSums::new();
    for (((&xa, &xb), &xc), &xd) in a.iter().zip(b).zip(c).zip(d) {
        sums.add([xa, xb, xc, xd], mean);
    }
    sums.spans()
}

/// [`scan_lanes`] over `seg` read through up to [`LANES`] permutations of
/// its indices, stored back to back in `batch`. A short last batch
/// repeats its final permutation; those lanes' spans are unread.
#[inline(always)]
fn gather_lanes(seg: &[f64], batch: &[u16], mean: f64) -> [f64; LANES] {
    let n = seg.len();
    let last = batch.len() / n - 1;
    let [a, b, c, d]: [&[u16]; LANES] = std::array::from_fn(|l| {
        let l = l.min(last);
        &batch[l * n..(l + 1) * n]
    });
    let sample = |i: u16| seg[usize::from(i)];
    let mut sums = LaneSums::new();
    for (((&ia, &ib), &ic), &id) in a.iter().zip(b).zip(c).zip(d) {
        sums.add([sample(ia), sample(ib), sample(ic), sample(id)], mean);
    }
    sums.spans()
}

// ---------------------------------------------------------------------------
// The permutation memo.
// ---------------------------------------------------------------------------

/// Bytes of composed permutations the process-wide memo holds at most.
/// It fits the W = 100 root test (40 KB) with the hottest tests below it,
/// or the W = 500 root (200 KB). A test whose permutations alone exceed
/// it bypasses the memo.
const PERMUTATION_MEMO_BYTES: usize = 256 * 1024;

/// Slots of the memo's table of recent keys. A key hashes to one slot,
/// which holds the last key seen there and how often it was seen in a
/// row; a key is admitted on its second sighting. Replaying recorded
/// traces of the W = 100 and W = 500 e2ebench workloads (13 000 and
/// 93 000 distinct keys in 30 s), 4096 slots admit 37 and 339 keys
/// against 24 320 and 4 783 hits.
const SIGHTING_SLOTS: usize = 4096;

/// Memo lookups between agings. Aging halves every sighting and hit
/// count, so after a process switches window length the keys it uses now
/// outrank entries it stopped using. The `diagnosis_latency` bench times
/// a W = 100 and then a W = 500 scenario in one process: without aging,
/// the W = 500 run got no hit at all.
const AGE_PERIOD: u32 = 8192;

/// What fixes a segment test's reshuffles: the generator's seed and the
/// draws it made before the test (together, its state), the reshuffle
/// count and the segment length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct MemoKey {
    seed: u64,
    bootstraps: usize,
    offset: u64,
    n: usize,
}

impl MemoKey {
    /// The key's slot in the table of recent keys.
    fn sighting_slot(&self) -> usize {
        let mut h = self.seed
            ^ self.offset.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ ((self.n as u64) << 32)
            ^ self.bootstraps as u64;
        h = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (h ^ (h >> 29)) as usize % SIGHTING_SLOTS
    }

    /// Bytes of the key's permutations: one index per reshuffled sample,
    /// a `u16`, so up to 65 536 samples; `None` past that.
    fn bytes(&self) -> Option<usize> {
        if self.n > 1 << 16 {
            return None;
        }
        self.bootstraps
            .checked_mul(self.n)?
            .checked_mul(std::mem::size_of::<u16>())
    }
}

/// A cached segment test: its permutations and the generator's state
/// after the test's B·(n − 1) draws.
struct MemoEntry {
    /// Every composed permutation, back to back: reshuffle `k`'s lane
    /// reads `seg[permutations[k·n + i]]`.
    permutations: Box<[u16]>,
    exit: SmallRng,
}

impl MemoEntry {
    /// Builds `key`'s entry from `rng`, which must be in the state `key`
    /// names and is left in the exit state. Permutation `k` reshuffles
    /// permutation `k - 1` (the identity for the first), and the vendored
    /// `shuffle` makes the same draws and swaps on an index slice as on
    /// the samples, so it is the order the reference loop's buffer is in
    /// after reshuffle `k + 1`.
    fn generate(rng: &mut SmallRng, key: MemoKey) -> Self {
        let n = key.n;
        let mut perms = Vec::with_capacity(key.bootstraps * n);
        // `bytes` admits no key past 65 536 samples.
        perms.extend((0..n).map(|i| i as u16));
        perms.shuffle(rng);
        for k in 1..key.bootstraps {
            perms.extend_from_within((k - 1) * n..k * n);
            perms[k * n..].shuffle(rng);
        }
        MemoEntry {
            permutations: perms.into_boxed_slice(),
            exit: rng.clone(),
        }
    }
}

/// The memo's answer to one segment test.
enum Lookup {
    /// The entry is cached: gather from it.
    Hit(Arc<MemoEntry>),
    /// The bytes are reserved: generate the entry and publish it.
    Admit,
    /// Reshuffle without the memo.
    Miss,
}

/// One cached (or reserved) key.
struct Resident {
    /// Sightings before admission plus hits since, halved at every
    /// aging.
    hits: u32,
    bytes: usize,
    /// `None` while the admitting test generates it.
    entry: Option<Arc<MemoEntry>>,
}

struct MemoState {
    entries: HashMap<MemoKey, Resident>,
    /// Bytes of every resident entry, reserved ones included.
    resident_bytes: usize,
    /// The table of recent keys: per slot, the last key looked up there
    /// while not resident and its sightings since it took the slot. A
    /// colliding key takes the slot over, so a count never includes
    /// another key's sightings.
    sightings: Box<[(MemoKey, u32)]>,
    lookups: u32,
}

impl MemoState {
    fn age(&mut self) {
        self.lookups = 0;
        for (_, count) in self.sightings.iter_mut() {
            *count /= 2;
        }
        for resident in self.entries.values_mut() {
            resident.hits /= 2;
        }
    }

    /// Counts a sighting of `key`, which is not resident, and returns its
    /// sightings in a row in its slot. A slot starts as a count of 0,
    /// and a key matching its placeholder counts 1, like any newcomer.
    fn sight(&mut self, key: MemoKey) -> u32 {
        let slot = &mut self.sightings[key.sighting_slot()];
        if slot.0 == key {
            slot.1 = slot.1.saturating_add(1);
        } else {
            *slot = (key, 1);
        }
        slot.1
    }

    /// Frees room for `bytes` by evicting the least-hit entries colder
    /// than `heat`; evicts nothing and returns `false` when even all of
    /// them would not make room.
    fn make_room(&mut self, bytes: usize, heat: u32, budget: usize) -> bool {
        let mut free = budget - self.resident_bytes;
        if bytes <= free {
            return true;
        }
        let mut colder: Vec<(u32, MemoKey, usize)> = self
            .entries
            .iter()
            .filter(|(_, r)| r.entry.is_some() && r.hits < heat)
            .map(|(key, r)| (r.hits, *key, r.bytes))
            .collect();
        if free + colder.iter().map(|&(_, _, size)| size).sum::<usize>() < bytes {
            return false;
        }
        colder.sort_unstable();
        for (_, key, size) in colder {
            if free >= bytes {
                break;
            }
            self.entries.remove(&key);
            self.resident_bytes -= size;
            free += size;
        }
        true
    }
}

/// Composed bootstrap permutations of recurring segment tests, shared by
/// every streaming detection in the process.
///
/// Every detector reseeds per window, and the recursion's left spine
/// starts each test at a fixed draw offset, so the same keys recur across
/// metrics, components and diagnoses at a given window length.
/// Admission is decided, and the bytes reserved, before an entry is
/// generated: a key is admitted on its second sighting in a row in its
/// slot of recent keys, if the budget has room or can make it by evicting
/// entries with fewer sightings and hits. Nothing is generated and then
/// thrown away. Every count halves each [`AGE_PERIOD`] lookups.
struct PermutationMemo {
    budget: usize,
    state: Mutex<MemoState>,
}

impl PermutationMemo {
    fn new(budget: usize) -> Self {
        PermutationMemo {
            budget,
            state: Mutex::new(MemoState {
                entries: HashMap::new(),
                resident_bytes: 0,
                sightings: vec![(MemoKey::default(), 0); SIGHTING_SLOTS].into_boxed_slice(),
                lookups: 0,
            }),
        }
    }

    /// The process's memo, of [`PERMUTATION_MEMO_BYTES`].
    fn global() -> &'static PermutationMemo {
        static MEMO: OnceLock<PermutationMemo> = OnceLock::new();
        MEMO.get_or_init(|| PermutationMemo::new(PERMUTATION_MEMO_BYTES))
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state
            .lock()
            .expect("a thread panicked holding the permutation memo")
    }

    /// Looks `key` up, counting a sighting and admitting it on a miss
    /// when the policy allows.
    fn lookup(&self, key: MemoKey) -> Lookup {
        let Some(bytes) = key.bytes().filter(|&bytes| bytes <= self.budget) else {
            return Lookup::Miss;
        };
        let mut state = self.lock();
        state.lookups += 1;
        if state.lookups == AGE_PERIOD {
            state.age();
        }
        if let Some(resident) = state.entries.get_mut(&key) {
            return match &resident.entry {
                Some(entry) => {
                    resident.hits = resident.hits.saturating_add(1);
                    Lookup::Hit(Arc::clone(entry))
                }
                // Another thread is generating it.
                None => Lookup::Miss,
            };
        }
        let heat = state.sight(key);
        if heat < 2 || !state.make_room(bytes, heat, self.budget) {
            return Lookup::Miss;
        }
        state.resident_bytes += bytes;
        state.entries.insert(
            key,
            Resident {
                hits: heat,
                bytes,
                entry: None,
            },
        );
        Lookup::Admit
    }

    /// Resident bytes (reserved ones included) and entries.
    #[cfg(test)]
    fn resident(&self) -> (usize, usize) {
        let state = self.lock();
        (state.resident_bytes, state.entries.len())
    }

    /// Publishes the entry an [`Lookup::Admit`] reserved. A reserved key
    /// is never evicted, so it is still there.
    fn publish(&self, key: MemoKey, entry: Arc<MemoEntry>) {
        if let Some(resident) = self.lock().entries.get_mut(&key) {
            resident.entry = Some(entry);
        }
    }
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
                // Twice: the second run meets a memo the first one warmed.
                for run in 0..2 {
                    d.detect_into_pruned(xs, &mut prefix, &mut scratch, &mut pruned);
                    assert_eq!(
                        plain, pruned,
                        "B={bootstraps}, signal {i}, run {run}: lanes changed the result"
                    );
                }
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

    /// Windows of the two paper look-backs (n = 101 and n = 501),
    /// bursty, with a step train so the recursion runs deep.
    fn paper_windows() -> Vec<Vec<f64>> {
        (0..6)
            .map(|seed| {
                let n = if seed % 2 == 0 { 101 } else { 501 };
                let mut xs = bursty(seed, n);
                for (i, x) in xs.iter_mut().enumerate() {
                    *x += if (i / 17) % 2 == 0 { 0.0 } else { 40.0 };
                }
                xs
            })
            .collect()
    }

    /// Detection through `memo`, as `detect_into_pruned` runs it on the
    /// process-wide one.
    fn detect_with(
        d: &CusumDetector,
        memo: &PermutationMemo,
        xs: &[f64],
    ) -> (Vec<ChangePoint>, MemoTally) {
        let (mut prefix, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let tally = d.detect_into_inner(xs, &mut prefix, &mut scratch, &mut out, Some(memo));
        (out, tally)
    }

    /// Bytes of one memo entry for an `n`-sample segment test of `d`.
    fn entry_bytes(d: &CusumDetector, n: usize) -> usize {
        let key = MemoKey {
            seed: d.config().seed,
            bootstraps: d.config().bootstraps,
            offset: 0,
            n,
        };
        key.bytes().unwrap()
    }

    #[test]
    fn warm_memo_matches_cold_and_detect() {
        let d = CusumDetector::default();
        let (mut prefix, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for (i, xs) in paper_windows().iter().enumerate() {
            let reference = d.detect(xs);
            for run in ["cold", "warm"] {
                d.detect_into_pruned(xs, &mut prefix, &mut scratch, &mut out);
                assert_eq!(out, reference, "window {i}, {run} run");
            }
        }
    }

    #[test]
    fn memo_admits_on_second_sighting_and_hits_on_third() {
        let d = CusumDetector::default();
        let memo = PermutationMemo::new(PERMUTATION_MEMO_BYTES);
        let xs = &paper_windows()[0];
        let reference = d.detect(xs);
        let runs: Vec<MemoTally> = (0..3)
            .map(|_| {
                let (out, tally) = detect_with(&d, &memo, xs);
                assert_eq!(out, reference);
                tally
            })
            .collect();
        let tests = runs[0].misses;
        assert!(tests > 1, "the window must run several segment tests");
        let tally = |hits, admits, misses| MemoTally {
            hits,
            admits,
            misses,
        };
        assert_eq!(runs[0], tally(0, 0, tests), "first sighting");
        assert_eq!(runs[1], tally(0, tests, 0), "second sighting");
        assert_eq!(runs[2], tally(tests, 0, 0), "third sighting");
    }

    #[test]
    fn memo_below_one_entry_bypasses_and_one_entry_evicts() {
        let d = CusumDetector::default();
        let check = |memo: &PermutationMemo, budget: usize, xs: &[f64]| {
            let (out, tally) = detect_with(&d, memo, xs);
            assert_eq!(out, d.detect(xs), "budget {budget}");
            let (bytes, _) = memo.resident();
            assert!(bytes <= budget, "budget {budget}: {bytes} bytes resident");
            tally
        };
        // The smallest tested segment is 2 × min_segment samples: nothing
        // fits, so every test bypasses the memo.
        let smallest = entry_bytes(&d, 2 * d.config().min_segment);
        let memo = PermutationMemo::new(smallest - 1);
        for xs in paper_windows().iter().cycle().take(18) {
            assert_eq!(check(&memo, smallest - 1, xs).admits, 0);
        }
        assert_eq!(memo.resident(), (0, 0));
        // Room for one root test of 101 samples. Windows of 101 and 100
        // samples take turns, each turn longer than the last, so each
        // root key in turn becomes the hotter one and evicts the other.
        let budget = entry_bytes(&d, 101);
        let memo = PermutationMemo::new(budget);
        let long = &paper_windows()[0];
        let mut admits = 0;
        for turn in 0..6 {
            let xs = if turn % 2 == 0 {
                &long[..]
            } else {
                &long[..100]
            };
            for _ in 0..2 * (turn + 1) {
                admits += check(&memo, budget, xs).admits;
            }
        }
        let (_, entries) = memo.resident();
        assert!(
            admits >= 6 && admits > entries as u64,
            "one entry's budget must evict: {admits} admits, {entries} resident"
        );
    }

    #[test]
    fn four_threads_share_one_memo() {
        let d = CusumDetector::default();
        let windows = paper_windows();
        let references: Vec<_> = windows.iter().map(|xs| d.detect(xs)).collect();
        let memo = PermutationMemo::new(PERMUTATION_MEMO_BYTES);
        let start = std::sync::Barrier::new(4);
        let hits: u64 = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (d, memo, windows, references) = (&d, &memo, &windows, &references);
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let mut hits = 0;
                        // Each thread walks the n = 101 / n = 501
                        // interleaving from its own starting point.
                        for k in 0..2 * windows.len() {
                            let i = (k + t) % windows.len();
                            let (out, tally) = detect_with(d, memo, &windows[i]);
                            assert_eq!(out, references[i], "thread {t}, window {i}");
                            hits += tally.hits;
                        }
                        hits
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert!(hits > 0, "the shared memo never served a test");
        assert!(memo.resident().0 <= PERMUTATION_MEMO_BYTES);
    }

    #[test]
    fn memo_admits_repeat_sightings_and_evicts_only_colder_entries() {
        let budget = entry_bytes(&CusumDetector::default(), 12);
        let memo = PermutationMemo::new(budget);
        let key = |offset| MemoKey {
            seed: 1,
            bootstraps: 200,
            offset,
            n: 12,
        };
        let admit = |key: MemoKey| match memo.lookup(key) {
            Lookup::Admit => {
                let mut rng = SmallRng::seed_from_u64(key.seed);
                memo.publish(key, Arc::new(MemoEntry::generate(&mut rng, key)));
                true
            }
            _ => false,
        };
        // Two keys sharing a slot of recent keys displace each other, so
        // neither reaches a second sighting in a row.
        let (old, rival) = (key(0), key(1));
        let rival = (1..)
            .map(key)
            .find(|k| k.sighting_slot() == old.sighting_slot())
            .unwrap_or(rival);
        assert!((0..10).all(|_| !admit(old) && !admit(rival)));
        assert!(!admit(old) && admit(old), "admitted on the second sighting");
        assert!(matches!(memo.lookup(old), Lookup::Hit(_)));
        // `old` holds two sightings and a hit: a newcomer needs four
        // sightings to be hotter and take its place.
        let new = key(2);
        let sightings = (1..10).find(|_| admit(new));
        assert_eq!(sightings, Some(4), "evicts once hotter than the resident");
        assert!(matches!(memo.lookup(old), Lookup::Miss));
        assert!(matches!(memo.lookup(new), Lookup::Hit(_)));
        assert_eq!(memo.resident(), (budget, 1));
        // A set larger than the budget never enters, and bypasses the
        // table of recent keys: it does not displace a key sharing its
        // slot.
        let large = MemoKey { n: 13, ..new };
        let next = (3..)
            .map(key)
            .find(|k| k.sighting_slot() == large.sighting_slot())
            .unwrap();
        assert!(!admit(next));
        assert!((0..10).all(|_| matches!(memo.lookup(large), Lookup::Miss)));
        let slot = memo.lock().sightings[next.sighting_slot()];
        assert_eq!(
            slot,
            (next, 1),
            "`large` took the slot of a key it never met"
        );
    }

    #[test]
    fn aging_lets_a_new_key_evict_a_once_hot_one() {
        let budget = entry_bytes(&CusumDetector::default(), 12);
        let memo = PermutationMemo::new(budget);
        let key = |offset| MemoKey {
            seed: 1,
            bootstraps: 200,
            offset,
            n: 12,
        };
        let (old, new) = (key(0), key(1));
        assert!(matches!(memo.lookup(old), Lookup::Miss));
        assert!(matches!(memo.lookup(old), Lookup::Admit));
        let mut rng = SmallRng::seed_from_u64(old.seed);
        memo.publish(old, Arc::new(MemoEntry::generate(&mut rng, old)));
        // Without aging a newcomer would need more sightings than these
        // hits to take `old`'s place.
        let hits = 8 * AGE_PERIOD;
        for _ in 0..hits {
            assert!(matches!(memo.lookup(old), Lookup::Hit(_)));
        }
        let sightings = (1..hits).find(|_| matches!(memo.lookup(new), Lookup::Admit));
        assert!(
            sightings.is_some_and(|s| s < 3 * AGE_PERIOD),
            "aging must let the new key in: {sightings:?}"
        );
        assert!(matches!(memo.lookup(old), Lookup::Miss));
    }

    #[test]
    fn memo_entry_replays_the_reference_reshuffles() {
        // The cached permutations and exit state are exactly what the
        // vendored shuffle does to the samples themselves.
        for n in [12, 256, 257, 501] {
            let key = MemoKey {
                seed: 7,
                bootstraps: 9,
                offset: 0,
                n,
            };
            let mut rng = SmallRng::seed_from_u64(7);
            let entry = MemoEntry::generate(&mut rng, key);
            let mut reference_rng = SmallRng::seed_from_u64(7);
            let mut shuffled: Vec<usize> = (0..n).collect();
            for k in 0..key.bootstraps {
                shuffled.shuffle(&mut reference_rng);
                let perm: Vec<usize> = entry.permutations[k * n..(k + 1) * n]
                    .iter()
                    .map(|&i| i.into())
                    .collect();
                assert_eq!(perm, shuffled, "n = {n}, reshuffle {k}");
            }
            assert_eq!(entry.exit, reference_rng, "n = {n}: exit state");
            assert_eq!(rng, reference_rng);
        }
        // The last length whose indices fit a `u16`, and the first that
        // bypasses the memo.
        let key = |n| MemoKey {
            seed: 7,
            bootstraps: 2,
            offset: 0,
            n,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let entry = MemoEntry::generate(&mut rng, key(1 << 16));
        let mut last: Vec<u16> = entry.permutations[1 << 16..].to_vec();
        last.sort_unstable();
        assert!(last.iter().enumerate().all(|(i, &p)| usize::from(p) == i));
        assert_eq!(key(1 << 16).bytes(), Some(2 * 2 * (1 << 16)));
        assert_eq!(key((1 << 16) + 1).bytes(), None);
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

        /// The streaming engine's bootstrap (lanes, pruning, the memo)
        /// never changes the detected change points, and neither does
        /// reusing dirty buffers: both variants run repeatedly on the same
        /// buffers over windows that shrink and grow, the streaming one
        /// twice per window, and each answer must equal a
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
                prop_assert_eq!(bits(&plain), fresh.clone());
                // Twice, so the second run can gather from the memo.
                for _ in 0..2 {
                    d.detect_into_pruned(xs, &mut prefix, &mut scratch, &mut pruned);
                    prop_assert_eq!(bits(&pruned), fresh.clone());
                }
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
