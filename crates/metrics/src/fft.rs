//! Radix-2 FFT/IFFT and FChain's burst-signal synthesis.
//!
//! FChain derives a *dynamic* prediction-error threshold for every change
//! point: it takes the surrounding window `X = x(t-Q) ... x(t+Q)`, runs an
//! FFT, keeps the top-`k` (e.g. 90 %) highest frequencies, inverse-FFTs them
//! back into a "burst signal", and uses a high percentile of the burst
//! magnitude as the expected prediction error (paper §II.B, Fig. 4). Bursty
//! windows therefore get a high threshold and stable windows a low one.
//!
//! The transform is implemented from scratch (iterative Cooley–Tukey with
//! bit-reversal permutation) so the workspace has no numeric dependencies.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

/// A complex number with `f64` parts.
///
/// # Examples
///
/// ```
/// use fchain_metrics::fft::Complex;
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// assert_eq!(Complex::from(2.0).norm(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + im·i`.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// `e^(iθ)` on the unit circle.
    #[inline]
    pub fn from_polar_unit(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Forward twiddle factors for an `n`-point transform, concatenated per
/// butterfly stage (`len = 2, 4, ..., n`; stage `len` contributes the
/// `len/2` powers of `e^(-2πi/len)`). The inverse transform conjugates
/// these on the fly, which is numerically exact.
fn forward_twiddles(n: usize) -> Vec<Complex> {
    let mut tw = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        let mut w = Complex::from(1.0);
        for _ in 0..len / 2 {
            tw.push(w);
            w = w * wlen;
        }
        len <<= 1;
    }
    tw
}

fn transform(buf: &mut [Complex], inverse: bool, twiddles: &[Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    debug_assert_eq!(twiddles.len(), n - 1, "twiddle table size mismatch");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    let mut stage = 0usize; // offset of this stage's twiddles
    while len <= n {
        let half = len / 2;
        let mut i = 0;
        while i < n {
            for j in 0..half {
                let w = if inverse {
                    twiddles[stage + j].conj()
                } else {
                    twiddles[stage + j]
                };
                let u = buf[i + j];
                let v = buf[i + j + half] * w;
                buf[i + j] = u + v;
                buf[i + j + half] = u - v;
            }
            i += len;
        }
        stage += half;
        len <<= 1;
    }
}

/// A reusable FFT workspace: a per-size twiddle-factor cache plus scratch
/// buffers, so burst synthesis on the diagnosis hot path performs no
/// allocation and no trigonometry after the first transform of each size.
///
/// Every transform runs through a plan. Keep one per worker and reuse it
/// across calls, as the slave's selection scratch does.
///
/// # Examples
///
/// ```
/// use fchain_metrics::fft::FftPlan;
///
/// let mut plan = FftPlan::new();
/// let stable = vec![5.0; 64];
/// assert!(plan.burst_magnitude(&stable, 0.9, 90.0) < 1e-9);
/// ```
#[derive(Debug, Default, Clone)]
pub struct FftPlan {
    /// Forward twiddles keyed by transform size.
    twiddles: std::collections::BTreeMap<usize, Vec<Complex>>,
    /// Complex working buffer reused across transforms.
    scratch: Vec<Complex>,
    /// Real working buffer for burst-percentile extraction.
    abs: Vec<f64>,
}

impl FftPlan {
    /// An empty plan; twiddle tables are built on first use per size.
    pub fn new() -> Self {
        FftPlan::default()
    }

    fn twiddles_for(&mut self, n: usize) -> &[Complex] {
        self.twiddles
            .entry(n)
            .or_insert_with(|| forward_twiddles(n))
    }

    /// In-place iterative radix-2 FFT.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not a power of two (use [`next_pow2`] /
    /// zero-padding first; [`FftPlan::burst_signal_into`] does this for
    /// you).
    pub fn fft_in_place(&mut self, buf: &mut [Complex]) {
        let n = buf.len();
        transform(buf, false, self.twiddles_for(n));
    }

    /// In-place inverse FFT (includes the `1/N` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not a power of two.
    pub fn ifft_in_place(&mut self, buf: &mut [Complex]) {
        let n = buf.len();
        transform(buf, true, self.twiddles_for(n));
        let scale = n as f64;
        for z in buf.iter_mut() {
            z.re /= scale;
            z.im /= scale;
        }
    }

    /// Synthesizes the burst signal of `xs` into `out` (cleared first):
    /// the component of the signal made of its top `high_fraction`
    /// highest frequencies.
    ///
    /// The spectrum bin `i` of an `n`-point FFT corresponds to frequency
    /// `min(i, n - i)`; the lowest `(1 - high_fraction)` of frequencies —
    /// the slow trend, including DC — are zeroed, and the remainder is
    /// inverse-transformed. The output has the same length as `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `high_fraction` is outside `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fchain_metrics::fft::FftPlan;
    ///
    /// // A pure slow ramp has almost no high-frequency content.
    /// let ramp: Vec<f64> = (0..64).map(|i| i as f64).collect();
    /// let mut burst = Vec::new();
    /// FftPlan::new().burst_signal_into(&ramp, 0.5, &mut burst);
    /// assert_eq!(burst.len(), 64);
    /// ```
    pub fn burst_signal_into(&mut self, xs: &[f64], high_fraction: f64, out: &mut Vec<f64>) {
        assert!(
            (0.0..=1.0).contains(&high_fraction),
            "high_fraction must be in [0, 1], got {high_fraction}"
        );
        out.clear();
        if xs.is_empty() {
            return;
        }
        let n = next_pow2(xs.len());
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend(xs.iter().map(|&x| Complex::from(x)));
        // Pad with the final value rather than zero to avoid a synthetic
        // step discontinuity at the padding boundary leaking into the
        // spectrum.
        let pad = *xs.last().expect("non-empty");
        buf.resize(n, Complex::from(pad));
        self.fft_in_place(&mut buf);

        // Frequency of bin i (two-sided spectrum): min(i, n - i); ranges
        // 0..n/2. Keep frequencies strictly above the cutoff; cutoff at
        // (1 - high_fraction) of the frequency range.
        let max_freq = n / 2;
        let cutoff = ((1.0 - high_fraction) * max_freq as f64).floor() as usize;
        for (i, z) in buf.iter_mut().enumerate() {
            let freq = i.min(n - i);
            if freq <= cutoff {
                *z = Complex::ZERO;
            }
        }
        self.ifft_in_place(&mut buf);
        out.extend(buf.iter().take(xs.len()).map(|z| z.re));
        self.scratch = buf;
    }

    /// The burst magnitude of a window: the `percentile`-th percentile of
    /// the absolute burst signal. This is FChain's *expected prediction
    /// error* for a change point inside the window.
    ///
    /// Returns `0.0` for an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `high_fraction` is outside `[0, 1]` or `percentile` is
    /// outside `[0, 100]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fchain_metrics::fft::FftPlan;
    ///
    /// let stable = vec![5.0; 64];
    /// assert!(FftPlan::new().burst_magnitude(&stable, 0.9, 90.0) < 1e-9);
    /// ```
    pub fn burst_magnitude(&mut self, xs: &[f64], high_fraction: f64, percentile: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut abs = std::mem::take(&mut self.abs);
        self.burst_signal_into(xs, high_fraction, &mut abs);
        for b in abs.iter_mut() {
            *b = b.abs();
        }
        abs.sort_by(|a, b| a.partial_cmp(b).expect("burst signal is finite"));
        let result = crate::stats::percentile_sorted(&abs, percentile).unwrap_or(0.0);
        self.abs = abs;
        result
    }
}

/// Smallest power of two `>= n` (and `>= 1`).
///
/// # Examples
///
/// ```
/// use fchain_metrics::fft::next_pow2;
///
/// assert_eq!(next_pow2(0), 1);
/// assert_eq!(next_pow2(5), 8);
/// assert_eq!(next_pow2(8), 8);
/// ```
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b} (eps {eps})");
    }

    /// FFT of a real signal, zero-padded to the next power of two.
    pub(super) fn real_spectrum(xs: &[f64]) -> Vec<Complex> {
        let mut buf: Vec<Complex> = xs.iter().map(|&x| Complex::from(x)).collect();
        buf.resize(next_pow2(xs.len()), Complex::ZERO);
        FftPlan::new().fft_in_place(&mut buf);
        buf
    }

    /// The burst signal of `xs` through a fresh plan.
    pub(super) fn burst_signal(xs: &[f64], high_fraction: f64) -> Vec<f64> {
        let mut out = Vec::new();
        FftPlan::new().burst_signal_into(xs, high_fraction, &mut out);
        out
    }

    /// Naive O(n²) DFT used as an oracle.
    fn dft(xs: &[Complex]) -> Vec<Complex> {
        let n = xs.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in xs.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc = acc + x * Complex::from_polar_unit(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let xs: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let expect = dft(&xs);
        let mut got = xs.clone();
        FftPlan::new().fft_in_place(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert_close(g.re, e.re, 1e-9);
            assert_close(g.im, e.im, 1e-9);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let xs: Vec<Complex> = (0..32).map(|i| Complex::from((i % 7) as f64)).collect();
        let mut buf = xs.clone();
        let mut plan = FftPlan::new();
        plan.fft_in_place(&mut buf);
        plan.ifft_in_place(&mut buf);
        for (g, e) in buf.iter().zip(&xs) {
            assert_close(g.re, e.re, 1e-9);
            assert_close(g.im, e.im, 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::ZERO; 8];
        buf[0] = Complex::from(1.0);
        FftPlan::new().fft_in_place(&mut buf);
        for z in buf {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_real_pads_to_pow2() {
        let spec = real_spectrum(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(spec.len(), 8);
        assert_close(spec[0].re, 15.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex::ZERO; 3];
        FftPlan::new().fft_in_place(&mut buf);
    }

    #[test]
    fn burst_signal_of_constant_is_zero() {
        let burst = burst_signal(&[4.2; 40], 0.9);
        for b in burst {
            assert!(b.abs() < 1e-9);
        }
    }

    #[test]
    fn burst_signal_of_high_freq_tone_is_preserved() {
        // The fastest representable tone alternates every sample; it sits at
        // the top of the spectrum and must survive the high-pass.
        let n = 64;
        let xs: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let burst = burst_signal(&xs, 0.9);
        // Interior samples keep the alternating structure.
        for i in 8..n - 8 {
            assert_close(burst[i], xs[i], 1e-6);
        }
    }

    #[test]
    fn burst_magnitude_tracks_burstiness() {
        // Fig. 4 of the paper: bursty windows must get a larger expected
        // prediction error than stable windows.
        let stable: Vec<f64> = (0..41).map(|i| 50.0 + (i as f64 * 0.1).sin()).collect();
        let bursty: Vec<f64> = (0..41)
            .map(|i| 50.0 + if i % 3 == 0 { 30.0 } else { -10.0 })
            .collect();
        let mut plan = FftPlan::new();
        let m_stable = plan.burst_magnitude(&stable, 0.9, 90.0);
        let m_bursty = plan.burst_magnitude(&bursty, 0.9, 90.0);
        assert!(
            m_bursty > 4.0 * m_stable,
            "bursty {m_bursty} vs stable {m_stable}"
        );
    }

    #[test]
    fn burst_handles_empty_and_single() {
        assert!(burst_signal(&[], 0.9).is_empty());
        assert_eq!(FftPlan::new().burst_magnitude(&[], 0.9, 90.0), 0.0);
        let one = burst_signal(&[3.0], 0.9);
        assert_eq!(one.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{burst_signal, real_spectrum};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// FFT round-trips through IFFT for arbitrary real signals.
        #[test]
        fn roundtrip(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let n = next_pow2(xs.len());
            let mut buf: Vec<Complex> = xs.iter().map(|&x| Complex::from(x)).collect();
            buf.resize(n, Complex::ZERO);
            let orig = buf.clone();
            let mut plan = FftPlan::new();
            plan.fft_in_place(&mut buf);
            plan.ifft_in_place(&mut buf);
            for (g, e) in buf.iter().zip(&orig) {
                prop_assert!((g.re - e.re).abs() < 1e-6);
                prop_assert!((g.im - e.im).abs() < 1e-6);
            }
        }

        /// Parseval: energy is preserved (up to the 1/N convention).
        #[test]
        fn parseval(xs in proptest::collection::vec(-1e2f64..1e2, 1..64)) {
            let spec = real_spectrum(&xs);
            let n = spec.len() as f64;
            let mut padded = xs.clone();
            padded.resize(spec.len(), 0.0);
            let time_energy: f64 = padded.iter().map(|x| x * x).sum();
            let freq_energy: f64 = spec.iter().map(|z| z.norm() * z.norm()).sum::<f64>() / n;
            prop_assert!((time_energy - freq_energy).abs() < 1e-4 * (1.0 + time_energy));
        }

        /// The burst signal never exceeds the signal's own peak-to-peak span.
        #[test]
        fn burst_bounded(xs in proptest::collection::vec(0.0f64..100.0, 2..80)) {
            let burst = burst_signal(&xs, 0.9);
            let span = crate::stats::max(&xs).unwrap() - crate::stats::min(&xs).unwrap();
            for b in burst {
                prop_assert!(b.abs() <= span + 1e-6);
            }
        }
    }
}
