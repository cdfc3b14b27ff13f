//! Tangent-based rollback to the abnormal change onset (paper §II.B).
//!
//! "The selected abnormal change point sometimes resides in the middle of
//! the fault manifestation process instead of at the beginning ... FChain
//! performs tangent-based rollback to identify the precise start time of
//! the abnormal change. Starting from the abnormal change point, we
//! compare the tangent of the current change point with that of its
//! preceding change point. If their values are close (e.g., < 0.1), we
//! roll back to the preceding change point."
//!
//! The tangent of a change point is taken as the least-squares slope of
//! the *segment* it opens (up to the next change point): two adjacent
//! change points on the same gradual manifestation open segments with the
//! same slope, so the rollback walks to the manifestation's first change
//! point and stops at the kink where the slope regime actually began.
//! A level-jump guard keeps step changes from rolling into the preceding
//! flat regime (a step is its own onset).

use fchain_detect::ChangePoint;
use fchain_metrics::{stats, tangent};

/// Longest segment prefix used for a slope estimate, keeping the tangent a
/// *local* property near the change point.
const SEGMENT_CAP: usize = 30;

/// Tangent comparisons run in noise units (the window's median absolute
/// successive difference); below this many noise units two tangents always
/// count as close, regardless of the relative `epsilon` test.
const ABSOLUTE_SLACK: f64 = 0.75;

/// Level jumps larger than this many noise units mark a genuine
/// discontinuity (a step), which is never rolled past.
const DISCONTINUITY_NOISE_UNITS: f64 = 4.0;

/// Smoothing smears a step over a few ticks; a cumulative rise over this
/// many consecutive ticks larger than
/// `DISCONTINUITY_NOISE_UNITS * SPREAD_TICKS / 2` noise units is also a
/// discontinuity.
const SPREAD_TICKS: usize = 3;

/// Rolls the selected abnormal change point back through preceding change
/// points while adjacent tangents stay close, returning the onset index in
/// the analyzed window.
///
/// Closeness is scale-free: slopes are normalized by the window's noise
/// scale and compared with the paper's relative `epsilon` (0.1) plus an
/// absolute slack, so "close" means *the slope regime did not change*.
///
/// # Panics
///
/// Panics if `selected` is not an element of `change_points` or the list
/// is not sorted by index.
///
/// # Examples
///
/// ```
/// use fchain_core::slave::rollback::rollback_onset;
/// use fchain_detect::{ChangePoint, Trend};
///
/// // Flat, then a long ramp; CUSUM segmentation yielded change points at
/// // 40 (ramp start) and 70 (mid-ramp). Selecting the mid-ramp point must
/// // roll back to 40.
/// let mut xs = vec![10.0; 40];
/// xs.extend((0..60).map(|i| 10.0 + 3.0 * i as f64));
/// let cp = |index| ChangePoint { index, magnitude: 5.0, direction: Trend::Up };
/// let cps = vec![cp(40), cp(70)];
/// assert_eq!(rollback_onset(&xs, &cps, &cps[1], 0.1), 40);
/// ```
pub fn rollback_onset(
    window: &[f64],
    change_points: &[ChangePoint],
    selected: &ChangePoint,
    epsilon: f64,
) -> usize {
    let mut pos = change_points
        .iter()
        .position(|c| c.index == selected.index)
        .expect("selected change point must come from the change point list");
    debug_assert!(
        change_points.windows(2).all(|w| w[0].index <= w[1].index),
        "change points must be sorted"
    );

    // Noise scale: median absolute successive difference of the window.
    let diffs: Vec<f64> = window.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    let noise = stats::percentile(&diffs, 50.0).unwrap_or(0.0).max(1e-9);

    while pos > 0 {
        let here = change_points[pos].index;
        let prev = change_points[pos - 1].index;
        let next = change_points
            .get(pos + 1)
            .map(|c| c.index)
            .unwrap_or(window.len());

        // A real level discontinuity at this change point — or anywhere in
        // the segment separating it from the preceding change point — is
        // an onset by itself: never roll a step into the quiet regime
        // before it.
        let scan_from = (prev + 1).max(1);
        let scan_to = here.min(window.len() - 1);
        let single_jump = (scan_from..=scan_to)
            .any(|i| (window[i] - window[i - 1]).abs() > DISCONTINUITY_NOISE_UNITS * noise);
        // Smoothing smears steps; also test the cumulative movement over a
        // few consecutive ticks.
        let spread_limit = DISCONTINUITY_NOISE_UNITS * SPREAD_TICKS as f64 / 2.0 * noise;
        let smeared_jump = (scan_from..=scan_to.saturating_sub(SPREAD_TICKS))
            .any(|i| (window[i + SPREAD_TICKS] - window[i]).abs() > spread_limit);
        if single_jump || smeared_jump {
            break;
        }

        let slope_after = segment_slope(window, here, next) / noise;
        let slope_before = segment_slope(window, prev, here) / noise;
        let scale = slope_after.abs().max(slope_before.abs());
        let close = tangent::tangents_close(
            slope_after,
            slope_before,
            (epsilon * scale).max(ABSOLUTE_SLACK),
        );
        if close {
            pos -= 1;
        } else {
            break;
        }
    }
    change_points[pos].index
}

/// Least-squares slope of `window[from..to]`, capped at [`SEGMENT_CAP`]
/// samples starting at `from`.
fn segment_slope(window: &[f64], from: usize, to: usize) -> f64 {
    let from = from.min(window.len().saturating_sub(1));
    let to = to.clamp(from + 1, window.len()).min(from + SEGMENT_CAP);
    if to - from < 2 {
        return 0.0;
    }
    tangent::slope(&window[from..to])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_detect::Trend;

    fn cp(index: usize) -> ChangePoint {
        ChangePoint {
            index,
            magnitude: 5.0,
            direction: Trend::Up,
        }
    }

    /// Flat(40) + ramp(60) with slope 3.
    fn flat_then_ramp() -> Vec<f64> {
        let mut xs = vec![10.0; 40];
        xs.extend((0..60).map(|i| 10.0 + 3.0 * i as f64));
        xs
    }

    #[test]
    fn mid_ramp_rolls_back_to_ramp_start() {
        let xs = flat_then_ramp();
        let cps = vec![cp(40), cp(60), cp(80)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[2], 0.1), 40);
    }

    #[test]
    fn rollback_does_not_enter_the_flat_prefix() {
        // A spurious change point in the flat region must not be reached:
        // the segment it opens is flat while the ramp is steep.
        let xs = flat_then_ramp();
        let cps = vec![cp(10), cp(40), cp(70)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[2], 0.1), 40);
    }

    #[test]
    fn rollback_stops_at_a_kink() {
        // Flat, ramp, flat again; selecting a point on the second plateau
        // rolls back to where that plateau began (70) but NOT into the
        // ramp (40).
        let mut xs = vec![10.0; 40];
        xs.extend((0..30).map(|i| 10.0 + 3.0 * i as f64));
        xs.extend(vec![100.0; 40]);
        for (i, v) in xs.iter_mut().enumerate() {
            *v += (i % 2) as f64 * 0.2; // jitter for a non-degenerate noise scale
        }
        let cps = vec![cp(40), cp(70), cp(90)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[2], 0.1), 70);
    }

    #[test]
    fn step_change_is_its_own_onset() {
        // Flat, then a big step at 60; an earlier spurious change point at
        // 30 must not attract the rollback across the discontinuity.
        let mut xs = vec![10.0; 60];
        xs.extend(vec![80.0; 40]);
        for (i, v) in xs.iter_mut().enumerate() {
            *v += ((i * 7) % 3) as f64 * 0.3;
        }
        let cps = vec![cp(30), cp(60)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[1], 0.1), 60);
    }

    #[test]
    fn selected_first_point_stays() {
        let xs = flat_then_ramp();
        let cps = vec![cp(40), cp(70)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[0], 0.1), 40);
    }

    #[test]
    fn single_change_point_is_its_own_onset() {
        let xs = flat_then_ramp();
        let cps = vec![cp(55)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[0], 0.1), 55);
    }

    #[test]
    fn onset_at_window_start_is_reachable() {
        // The whole window is one ramp from index 0: the first change
        // point sits at the very start of the window, and rolling back
        // from deep inside the ramp must land exactly there without
        // indexing before the window.
        let xs: Vec<f64> = (0..100).map(|i| 2.5 * i as f64).collect();
        let cps = vec![cp(0), cp(35), cp(70)];
        assert_eq!(rollback_onset(&xs, &cps, &cps[2], 0.1), 0);
        // Selecting the window-start point itself is a fixed point.
        assert_eq!(rollback_onset(&xs, &cps, &cps[0], 0.1), 0);
    }

    #[test]
    fn monotone_series_rolls_all_the_way_back() {
        // On a strictly monotone series every segment has the same slope,
        // so adjacent tangents are always close and the walk never stops
        // early: however many change points CUSUM scattered along the
        // ramp, the onset is the earliest one.
        let xs: Vec<f64> = (0..120).map(|i| 1.7 * i as f64).collect();
        let cps: Vec<ChangePoint> = (1..=10).map(|k| cp(k * 10)).collect();
        let last = cps.len() - 1;
        assert_eq!(rollback_onset(&xs, &cps, &cps[last], 0.1), 10);
    }

    #[test]
    fn series_shorter_than_the_tangent_window_is_handled() {
        // The window is far shorter than SEGMENT_CAP (30): every slope
        // estimate must clamp to the available samples instead of reading
        // out of bounds, and the result is still a listed change point.
        let xs: Vec<f64> = (0..8).map(|i| 3.0 * i as f64).collect();
        assert!(xs.len() < SEGMENT_CAP);
        let cps = vec![cp(1), cp(4), cp(6)];
        let onset = rollback_onset(&xs, &cps, &cps[2], 0.1);
        assert!(cps.iter().any(|c| c.index == onset));
        assert!(onset <= 6);
        // Monotone + short: the walk still reaches the earliest point.
        assert_eq!(onset, 1);
        // Degenerate two-sample "window".
        let tiny = vec![0.0, 5.0];
        let cps = vec![cp(0), cp(1)];
        assert_eq!(rollback_onset(&tiny, &cps, &cps[1], 0.1), 0);
    }

    #[test]
    #[should_panic(expected = "selected change point")]
    fn foreign_selected_point_panics() {
        let xs = flat_then_ramp();
        let cps = vec![cp(40)];
        let foreign = cp(99);
        rollback_onset(&xs, &cps, &foreign, 0.1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fchain_detect::Trend;
    use proptest::prelude::*;

    proptest! {
        /// The rollback always lands on one of the provided change points,
        /// never later than the selected one, for arbitrary signals.
        #[test]
        fn rollback_stays_within_the_list(
            xs in proptest::collection::vec(-1e3f64..1e3, 30..200),
            raw_indices in proptest::collection::btree_set(0usize..200, 1..8),
            pick in 0usize..8,
        ) {
            let indices: Vec<usize> = raw_indices
                .into_iter()
                .filter(|&i| i < xs.len())
                .collect();
            prop_assume!(!indices.is_empty());
            let cps: Vec<ChangePoint> = indices
                .iter()
                .map(|&index| ChangePoint {
                    index,
                    magnitude: 1.0,
                    direction: Trend::Up,
                })
                .collect();
            let selected = &cps[pick % cps.len()];
            let onset = rollback_onset(&xs, &cps, selected, 0.1);
            prop_assert!(indices.contains(&onset), "onset {onset} not a change point");
            prop_assert!(onset <= selected.index, "rolled forward");
        }
    }
}
