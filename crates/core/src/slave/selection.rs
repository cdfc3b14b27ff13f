//! Predictability-based abnormal change point selection (paper §II.B).

use crate::config::{AnalysisEngine, FChainConfig};
use crate::report::AbnormalChange;
use fchain_detect::{magnitude_outliers, ChangePoint, CusumDetector};
use fchain_metrics::fft::FftPlan;
use fchain_metrics::{smooth, stats, MetricKind, Tick};
use fchain_obs as obs;

/// Every buffer the selection pipeline needs: the CUSUM detector with its
/// prefix, bootstrap and change-point buffers, the smoothing prefix and
/// output, the sorted error span for the floor percentiles, and the FFT
/// plan with its cached twiddle tables. Reusing a bundle never changes an
/// emitted value; it only saves allocations.
#[derive(Debug)]
pub(crate) struct SelectionScratch {
    cusum: CusumDetector,
    cusum_prefix: Vec<f64>,
    bootstrap: Vec<f64>,
    change_points: Vec<ChangePoint>,
    smooth_prefix: Vec<f64>,
    window_smooth: Vec<f64>,
    floor_buf: Vec<f64>,
    plan: FftPlan,
}

impl SelectionScratch {
    /// Builds the bundle for `config` (panics on an invalid CUSUM config,
    /// like [`CusumDetector::new`]).
    pub(crate) fn new(config: &FChainConfig) -> Self {
        SelectionScratch {
            cusum: CusumDetector::new(config.cusum.clone()),
            cusum_prefix: Vec::new(),
            bootstrap: Vec::new(),
            change_points: Vec::new(),
            smooth_prefix: Vec::new(),
            window_smooth: Vec::new(),
            floor_buf: Vec::new(),
            plan: FftPlan::new(),
        }
    }
}

/// The tail of a series from absolute index `start` to its end: what
/// [`select`] reads. The daemon copies only the suffix selection needs
/// instead of the whole ring; every index below is absolute, so the
/// arithmetic is the same as over the full history.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Suffix<'a> {
    start: usize,
    data: &'a [f64],
}

impl<'a> Suffix<'a> {
    /// `data` holds the series from absolute index `start` on.
    pub(crate) fn new(start: usize, data: &'a [f64]) -> Self {
        Suffix { start, data }
    }

    /// The whole series.
    pub(crate) fn whole(data: &'a [f64]) -> Self {
        Suffix::new(0, data)
    }

    /// Logical length of the series the suffix ends.
    fn len(&self) -> usize {
        self.start + self.data.len()
    }

    /// Absolute `[lo, hi)`; panics if `lo` precedes the suffix.
    fn range(&self, lo: usize, hi: usize) -> &'a [f64] {
        &self.data[lo - self.start..hi - self.start]
    }

    /// Absolute `[lo, len)`.
    fn from(&self, lo: usize) -> &'a [f64] {
        self.range(lo, self.len())
    }
}

/// The look-back window over a history of `n >= 1` samples: its clamped
/// length `w` and first index. `lookback >= n` degrades to "the whole
/// history minus one sample" instead of underflowing the start.
fn window(n: usize, lookback: u64) -> (usize, usize) {
    let w = (lookback as usize).min(n.saturating_sub(1));
    (w, n - 1 - w)
}

/// Where the suffixes [`select`] reads begin, for a history of `n >= 1`
/// samples and a known error floor: `(values_start, errors_start)`.
/// Values reach back from the window start by the FFT context
/// [`expected_error`] reads before the earliest possible anchor; errors
/// by the two ticks of [`real_error`]'s backward allowance, which is also
/// the lower bound of the [`screen`]ed range.
pub(crate) fn suffix_starts(n: usize, lookback: u64, config: &FChainConfig) -> (usize, usize) {
    let (_, window_start) = window(n, lookback);
    let context = 2 * config.burst_window as usize + burst_guard(config);
    (
        window_start.saturating_sub(context),
        window_start.saturating_sub(2),
    )
}

/// The fast screen (streaming engine only), given the errors from
/// `errors_start` (see [`suffix_starts`]) to the end. Every acceptance in
/// [`select`] requires some outlier's `real` error, a maximum over
/// `errors[abs_idx-2 ..= abs_idx+slack]` with `abs_idx >= window_start`,
/// to exceed an expectation that is itself floored at `error_floor`. So
/// if the maximum error over `errors[window_start-2 ..]` (a superset of
/// every `real` range) does not exceed the floor, no change point can be
/// accepted and the whole smoothing/CUSUM/FFT tail is provably a no-op.
/// Returns `true` (and counts the metric as screened) in that case.
pub(crate) fn screen(errors: impl Iterator<Item = f64>, error_floor: f64) -> bool {
    let window_max = errors.fold(0.0, f64::max);
    let clean = window_max <= error_floor;
    if clean {
        obs::count(obs::Counter::StreamingScreened, 1);
    }
    clean
}

/// The selection stages downstream of the online model — change point
/// detection, outlier filtering, the predictability filter and rollback —
/// given a causal prediction-error series aligned with `hist` (the last
/// sample of both is at `violation_at`). Returns the earliest abnormal
/// change, rolled back to its onset, if any.
///
/// Both engines run this one function. `screened_floor` is an error
/// floor precomputed over exactly the normal span (the daemon's
/// per-metric [`fchain_metrics::PercentileSketch`]) that the caller has
/// already [`screen`]ed the window against; the suffixes then need only
/// start at [`suffix_starts`]. Without one, both must be whole: the floor
/// is computed here from the pre-window errors and, under
/// [`AnalysisEngine::Streaming`], the window is screened here. The
/// streaming engine's two shortcuts, the screen and the pruned CUSUM
/// bootstrap, change no emitted value, so the engines' findings are
/// bit-identical by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select(
    hist: Suffix<'_>,
    errors: Suffix<'_>,
    kind: MetricKind,
    violation_at: Tick,
    lookback: u64,
    config: &FChainConfig,
    screened_floor: Option<f64>,
    scratch: &mut SelectionScratch,
) -> Option<AbnormalChange> {
    let _selection_span = obs::time(obs::Stage::SlaveSelection);
    obs::count(obs::Counter::MetricsAnalyzed, 1);
    let n = hist.len();
    debug_assert_eq!(hist.len(), errors.len(), "errors must align with samples");
    // Degenerate windows: an empty or misaligned history has nothing to
    // select from, and every index computation below assumes `n >= 1`.
    if n == 0 || errors.len() != n {
        return None;
    }
    let shortcuts = config.engine == AnalysisEngine::Streaming;
    let (w, window_start) = window(n, lookback);
    let error_floor = match screened_floor {
        Some(floor) => floor,
        None => {
            // Adaptive floor: the model's typical error during the
            // pre-window period (skip the calibration prefix where errors
            // are trivially 0).
            let normal_span_start = config.learner.calibration_samples.min(n - 1);
            let normal_span_end = n.saturating_sub(w).max(normal_span_start + 1).min(n);
            let sorted = &mut scratch.floor_buf;
            sorted.clear();
            sorted.extend_from_slice(errors.range(normal_span_start, normal_span_end));
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in percentile"));
            let floor = error_floor(
                |p| stats::percentile_sorted(sorted, p),
                sorted.last().copied(),
                config,
            );
            let (_, errors_start) = suffix_starts(n, lookback, config);
            if shortcuts && screen(errors.from(errors_start).iter().copied(), floor) {
                return None;
            }
            floor
        }
    };

    // 2. Change points on the smoothed look-back window.
    smooth::moving_average_into(
        hist.from(window_start),
        config.smoothing_half,
        &mut scratch.smooth_prefix,
        &mut scratch.window_smooth,
    );
    {
        let _span = obs::time(obs::Stage::SlaveCusum);
        // The streaming engine prunes rejection-certain bootstrap
        // segments and gathers recurring ones from the permutation memo
        // (bit-identical, see `detect_into_pruned`); the batch reference
        // runs every reshuffle.
        if shortcuts {
            let memo = scratch.cusum.detect_into_pruned(
                &scratch.window_smooth,
                &mut scratch.cusum_prefix,
                &mut scratch.bootstrap,
                &mut scratch.change_points,
            );
            obs::count(obs::Counter::CusumMemoHits, memo.hits);
            obs::count(obs::Counter::CusumMemoAdmits, memo.admits);
            obs::count(obs::Counter::CusumMemoMisses, memo.misses);
        } else {
            scratch.cusum.detect_into(
                &scratch.window_smooth,
                &mut scratch.cusum_prefix,
                &mut scratch.bootstrap,
                &mut scratch.change_points,
            );
        }
    }
    let window_smooth = &scratch.window_smooth;
    let change_points = &scratch.change_points;
    obs::count(
        obs::Counter::ChangePointCandidates,
        change_points.len() as u64,
    );
    if change_points.is_empty() {
        return None;
    }
    let outliers = magnitude_outliers(change_points, window_smooth, &config.outlier);
    obs::count(obs::Counter::ChangePointOutliers, outliers.len() as u64);

    // 3. Predictability filter. The burst-adaptive expectation is anchored
    // just before the *first* change point of the window: anything after it
    // may already be fault manifestation, and a fault must not raise its
    // own threshold.
    let anchor = window_start + change_points[0].index;
    // The window head is a second normal-context candidate: with long
    // look-back windows the region before the first change point can
    // itself be fault manifestation, while the window head is the most
    // distant (most likely normal) context available. The quieter of the
    // two gives the burstiness baseline; the error floor (learned from the
    // whole normal history) guards against an unusually calm head.
    let q2 = 2 * config.burst_window as usize;
    let head_end = (window_start + q2).min(n - 1);
    let fft_span = obs::time(obs::Stage::SlaveFft);
    let head = scratch.plan.burst_magnitude(
        hist.range(window_start, head_end + 1),
        config.high_freq_fraction,
        config.burst_percentile,
    ) * config.burst_scale;
    // The expectation is anchored at the first change point, not at the
    // outlier under test, so it is loop-invariant: synthesize it once
    // instead of re-running the FFT per outlier.
    let expected = expected_error(&mut scratch.plan, hist, anchor, config)
        .min(head)
        .max(error_floor);
    drop(fft_span);
    let mut abnormal: Vec<(ChangePoint, f64, f64)> = Vec::new();
    for cp in &outliers {
        let abs_idx = window_start + cp.index;
        let real = real_error(errors, abs_idx, config.error_slack as usize);
        // A genuine regime change keeps surprising the model for several
        // ticks; an isolated noise spike does not. Requiring sustained
        // errors alongside the peak filters one-tick accidents.
        let sus_hi = (abs_idx + 6).min(n - 1);
        let sustained =
            errors.range(abs_idx, sus_hi + 1).iter().sum::<f64>() / (sus_hi - abs_idx + 1) as f64;
        if real > expected && sustained > 0.4 * expected {
            abnormal.push((*cp, real, expected));
        }
    }
    obs::count(obs::Counter::ChangePointsAccepted, abnormal.len() as u64);
    obs::count(
        obs::Counter::ChangePointsRejected,
        (outliers.len() - abnormal.len()) as u64,
    );
    // 4. Earliest abnormal change point wins; roll it back to the onset.
    let (cp, real, expected) = abnormal.into_iter().min_by_key(|(cp, _, _)| cp.index)?;
    let rollback_span = obs::time(obs::Stage::SlaveRollback);
    let onset_idx =
        super::rollback::rollback_onset(window_smooth, change_points, &cp, config.tangent_epsilon);
    drop(rollback_span);
    // Saturating: a caller-supplied `violation_at` smaller than the window
    // (possible for synthetic or truncated histories) must clamp to tick 0
    // rather than underflow.
    let to_tick = |idx: usize| violation_at.saturating_sub(w as Tick) + idx as Tick;
    Some(AbnormalChange {
        metric: kind,
        change_at: to_tick(cp.index),
        onset: to_tick(onset_idx),
        prediction_error: real,
        expected_error: expected,
        direction: cp.direction,
    })
}

/// The lowest percentile [`error_floor`] reads; the daemon's per-metric
/// [`fchain_metrics::PercentileSketch`] keeps exactly the ranks at or
/// above it.
pub(crate) const FLOOR_MIN_PERCENTILE: f64 = 90.0;

/// The error floor over the pre-window normal span, read through
/// `percentile` (the span's interpolated percentile, asked only for
/// `p ≥ FLOOR_MIN_PERCENTILE`) and `max` (its largest error, `None` when
/// empty). The batch engine passes its freshly sorted span
/// ([`stats::percentile_sorted`]); the streaming engine passes the
/// daemon's sketch, whose percentiles interpolate through the same
/// [`stats::percentile_by`] — so both engines produce the same bits.
pub(crate) fn error_floor(
    percentile: impl Fn(f64) -> Option<f64>,
    max: Option<f64>,
    config: &FChainConfig,
) -> f64 {
    // Two floors: typical error (p90) scaled up, and the error *tail*
    // (p99) with a smaller multiplier — rare-but-normal fluctuations (the
    // tail of learnable bursts) must not qualify as abnormal.
    let p90 = percentile(FLOOR_MIN_PERCENTILE).unwrap_or(0.0);
    let p99 = percentile(99.0).unwrap_or(0.0);
    // The strictest floor is empirical: an abnormal prediction error must
    // exceed every error the model produced across the whole pre-window
    // normal span — "the model has seen fluctuation this size before" is
    // exactly what disqualifies a change point as abnormal.
    let max_normal = max.unwrap_or(0.0);
    (config.error_floor_scale * p90)
        .max(1.8 * p99)
        .max(1.02 * max_normal)
        .max(1e-9)
}

/// The real prediction error near a change point: the maximum causal error
/// in `[idx − 2, idx + slack]` — the change manifests *from* the change
/// point onward (fast faults take a few ticks to saturate), while only a
/// small backward allowance covers change-point placement jitter.
fn real_error(errors: Suffix<'_>, idx: usize, slack: usize) -> f64 {
    let lo = idx.saturating_sub(2);
    let hi = (idx + slack).min(errors.len() - 1);
    errors.range(lo, hi + 1).iter().copied().fold(0.0, f64::max)
}

/// The burst-adaptive expected prediction error for a change point: the
/// configured percentile of the FFT-synthesized burst signal over the
/// `2Q` raw samples *preceding* the point, times the safety multiplier.
///
/// The paper extracts the window surrounding the change point; here the
/// window ends just before it, because the expected error must measure
/// the burstiness of the *normal* behavior the change is judged against —
/// a large fault inside the window would otherwise raise its own
/// threshold and mask itself.
fn expected_error(plan: &mut FftPlan, hist: Suffix<'_>, idx: usize, config: &FChainConfig) -> f64 {
    let q = config.burst_window as usize;
    let guard = burst_guard(config);
    let lo = idx.saturating_sub(2 * q + guard);
    let hi = idx.saturating_sub(1 + guard).max(lo);
    config.burst_scale
        * plan.burst_magnitude(
            hist.range(lo, hi.min(hist.len() - 1) + 1),
            config.high_freq_fraction,
            config.burst_percentile,
        )
}

/// Change-point placement has a few ticks of jitter (smoothing blurs
/// onsets); this guard keeps the first fault samples out of the "normal
/// burstiness" window [`expected_error`] reads.
fn burst_guard(config: &FChainConfig) -> usize {
    config.smoothing_half + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ComponentFinding;
    use crate::slave::{Recording, SlaveDaemon};
    use crate::ComponentCase;
    use fchain_metrics::{AppId, ComponentId, TimeSeries};

    /// Replays `component` into a slave daemon that retains its whole
    /// history and analyzes it at `violation_at` over the default 100-tick
    /// window: the path every recorded component takes to selection,
    /// including the daemon's non-finite drop-and-bridge rule.
    fn analyze(component: &ComponentCase, violation_at: Tick) -> ComponentFinding {
        let recording = Recording {
            app: AppId::default(),
            offset: 0,
            replicas: 1,
            components: vec![(component.id, &component.metrics[..])],
        };
        SlaveDaemon::replay_pool(&FChainConfig::default(), 1, &[recording])[0]
            .analyze(component.id, violation_at)
            .expect("the component was fed")
    }

    /// Builds a component whose CPU metric is `cpu` and whose other five
    /// metrics are benign constants with light noise.
    fn component(cpu: Vec<f64>) -> ComponentCase {
        let n = cpu.len();
        let mut metrics: Vec<TimeSeries> = (0..6)
            .map(|k| {
                TimeSeries::from_samples(
                    0,
                    (0..n).map(|t| 50.0 + ((t * (k + 3)) % 4) as f64).collect(),
                )
            })
            .collect();
        metrics[MetricKind::Cpu.index()] = TimeSeries::from_samples(0, cpu);
        ComponentCase {
            id: ComponentId(0),
            name: "test".into(),
            metrics,
        }
    }

    fn periodic(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| 30.0 + 4.0 * ((t % 12) as f64 / 12.0) + ((t * 7) % 3) as f64)
            .collect()
    }

    #[test]
    fn normal_component_has_no_abnormal_changes() {
        let c = component(periodic(1200));
        let f = analyze(&c, 1150);
        assert!(f.changes.is_empty(), "false positives: {:?}", f.changes);
    }

    #[test]
    fn step_fault_is_selected_with_onset() {
        let mut cpu = periodic(1200);
        for (t, v) in cpu.iter_mut().enumerate() {
            if t >= 1100 {
                *v += 55.0;
            }
        }
        let c = component(cpu);
        let f = analyze(&c, 1150);
        let onset = f.onset().expect("step must be selected");
        assert!((1095..=1105).contains(&onset), "onset {onset}");
        let cpu_changes: Vec<_> = f
            .changes
            .iter()
            .filter(|ch| ch.metric == MetricKind::Cpu)
            .collect();
        assert_eq!(cpu_changes.len(), 1);
        assert!(cpu_changes[0].prediction_error > cpu_changes[0].expected_error);
    }

    #[test]
    fn gradual_ramp_rolls_back_to_start() {
        // Memory-leak-style ramp into unseen territory starting at 1080.
        let mut cpu = periodic(1200);
        for (t, v) in cpu.iter_mut().enumerate() {
            if t >= 1080 {
                *v += (t - 1080) as f64 * 0.9;
            }
        }
        let c = component(cpu);
        let f = analyze(&c, 1150);
        let onset = f.onset().expect("ramp must be selected");
        assert!(
            (1070..=1100).contains(&onset),
            "onset {onset} should be near the ramp start 1080"
        );
    }

    #[test]
    fn learned_bursty_metric_is_filtered() {
        // A metric with frequent large normal bursts: the burst-adaptive
        // threshold must suppress its change points.
        let mut vals = Vec::with_capacity(1500);
        for t in 0..1500usize {
            let base = 500.0 + 80.0 * ((t % 20) as f64 / 20.0);
            let burst = if (t * 2654435761) % 13 == 0 {
                900.0
            } else {
                0.0
            };
            vals.push(base + burst);
        }
        let c = component(vals);
        let f = analyze(&c, 1450);
        let cpu_changes: Vec<_> = f
            .changes
            .iter()
            .filter(|ch| ch.metric == MetricKind::Cpu)
            .collect();
        assert!(
            cpu_changes.is_empty(),
            "normal bursts must be filtered: {cpu_changes:?}"
        );
    }

    #[test]
    fn non_finite_samples_do_not_poison_the_analysis() {
        let mut cpu = periodic(1200);
        cpu[500] = f64::NAN;
        cpu[800] = f64::INFINITY;
        for (t, v) in cpu.iter_mut().enumerate() {
            if t >= 1100 && v.is_finite() {
                *v += 55.0;
            }
        }
        let c = component(cpu);
        let f = analyze(&c, 1150);
        let onset = f.onset().expect("step still selected despite NaN/Inf");
        assert!((1095..=1105).contains(&onset), "onset {onset}");
    }

    #[test]
    fn leading_non_finite_samples_do_not_fake_a_step() {
        // A NaN head sanitized to 0.0 would make the first real sample
        // look like a 0-to-baseline step; the daemon drops the head, so
        // the series starts at the first finite sample.
        let mut cpu = periodic(1200);
        cpu[0] = f64::NAN;
        cpu[1] = f64::NEG_INFINITY;
        cpu[2] = f64::NAN;
        let c = component(cpu);
        let f = analyze(&c, 1150);
        assert!(
            f.changes.is_empty(),
            "NaN head must not look like a change: {:?}",
            f.changes
        );
    }

    #[test]
    fn all_non_finite_history_is_benign() {
        let c = component(vec![f64::NAN; 1200]);
        let f = analyze(&c, 1150);
        let cpu_changes: Vec<_> = f
            .changes
            .iter()
            .filter(|ch| ch.metric == MetricKind::Cpu)
            .collect();
        assert!(cpu_changes.is_empty(), "{cpu_changes:?}");
    }

    #[test]
    fn short_history_is_skipped_gracefully() {
        let c = component(periodic(30));
        let f = analyze(&c, 25);
        assert!(f.changes.is_empty());
    }

    #[test]
    fn fault_on_two_metrics_reports_both() {
        let n = 1200;
        let mut c = component({
            let mut cpu = periodic(n);
            for (t, v) in cpu.iter_mut().enumerate() {
                if t >= 1100 {
                    *v += 50.0;
                }
            }
            cpu
        });
        // Also break the memory metric.
        let mem: Vec<f64> = (0..n)
            .map(|t| {
                let base = 800.0 + ((t * 3) % 7) as f64;
                if t >= 1102 {
                    base + 400.0
                } else {
                    base
                }
            })
            .collect();
        c.metrics[MetricKind::Memory.index()] = TimeSeries::from_samples(0, mem);
        let f = analyze(&c, 1150);
        let kinds: Vec<MetricKind> = f.changes.iter().map(|ch| ch.metric).collect();
        assert!(kinds.contains(&MetricKind::Cpu), "{kinds:?}");
        assert!(kinds.contains(&MetricKind::Memory), "{kinds:?}");
        // Component onset is the earliest of the two.
        assert!(f.onset().unwrap() <= 1102);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Selection must survive every history/look-back/violation shape —
        /// empty windows, `lookback >= n`, violations earlier than the
        /// window — without any slice-length or arithmetic panic, both
        /// with the streaming shortcuts and through the unscreened batch
        /// pipeline.
        #[test]
        fn degenerate_windows_never_panic(
            hist in proptest::collection::vec(0.0f64..100.0, 0..150),
            lookback in 0u64..400,
            violation_at in 0u64..2000,
        ) {
            let errors: Vec<f64> = hist.iter().map(|x| (x * 0.01).abs()).collect();
            for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
                let config = FChainConfig {
                    engine,
                    ..FChainConfig::default()
                };
                let _ = select(
                    Suffix::whole(&hist),
                    Suffix::whole(&errors),
                    MetricKind::Cpu,
                    violation_at,
                    lookback,
                    &config,
                    None,
                    &mut SelectionScratch::new(&config),
                );
            }
        }
    }
}
