//! PAL-style change-magnitude outlier filtering.

use crate::ChangePoint;
use fchain_metrics::stats;
use serde::{Deserialize, Serialize};

/// Configuration of the magnitude outlier filter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutlierConfig {
    /// A change point is an outlier when its magnitude exceeds
    /// `mean + deviations * std_dev` of all change magnitudes in the
    /// window.
    pub deviations: f64,
    /// Additionally the magnitude must exceed this fraction of the window's
    /// own standard deviation, so trivia on near-constant signals never
    /// qualifies.
    pub min_relative_magnitude: f64,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        OutlierConfig {
            deviations: 1.0,
            min_relative_magnitude: 1.0,
        }
    }
}

/// Filters change points down to magnitude outliers, the abnormality test
/// of PAL (paper §II.B: "We can use smoothing and change magnitude outlier
/// detection to filter some normal change points \[13\]").
///
/// A change point survives when its magnitude is an outlier among all
/// detected change magnitudes **and** is large relative to the window's
/// standard deviation. On windows with a single change point the
/// population statistics degenerate, so only the relative test applies.
///
/// The paper's point — and the reason FChain adds the predictability
/// filter on top — is that this test fails on metrics with large *normal*
/// variation (Fig. 3's Hadoop DiskWrite): normal bursts produce magnitudes
/// as large as fault onsets.
///
/// # Examples
///
/// ```
/// use fchain_detect::{magnitude_outliers, ChangePoint, OutlierConfig, Trend};
///
/// // A window with ~unit normal spread.
/// let window: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64).collect();
/// let cps = vec![
///     ChangePoint { index: 20, magnitude: 0.2, direction: Trend::Up },
///     ChangePoint { index: 60, magnitude: 30.0, direction: Trend::Up },
/// ];
/// let kept = magnitude_outliers(&cps, &window, &OutlierConfig::default());
/// assert_eq!(kept.len(), 1);
/// assert_eq!(kept[0].index, 60);
/// ```
pub fn magnitude_outliers(
    change_points: &[ChangePoint],
    window: &[f64],
    config: &OutlierConfig,
) -> Vec<ChangePoint> {
    if change_points.is_empty() {
        return Vec::new();
    }
    let window_std = stats::std_dev(window);
    let magnitudes: Vec<f64> = change_points.iter().map(|cp| cp.magnitude).collect();
    let mag_mean = stats::mean(&magnitudes);
    let mag_std = stats::std_dev(&magnitudes);

    change_points
        .iter()
        .filter(|cp| {
            let relative_ok = cp.magnitude >= config.min_relative_magnitude * window_std
                || window_std <= f64::EPSILON;
            // The population test only separates when the magnitudes
            // actually spread out; a window whose change magnitudes are all
            // comparable (bursty normal behavior) offers no outlier signal
            // and falls through to the relative test alone.
            let spread_is_meaningful =
                change_points.len() >= 3 && mag_std > 0.25 * mag_mean && mag_std > f64::EPSILON;
            let population_ok = !spread_is_meaningful
                || cp.magnitude >= mag_mean + config.deviations * mag_std
                || cp.magnitude >= 2.0 * mag_mean;
            relative_ok && population_ok
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trend;

    fn cp(index: usize, magnitude: f64) -> ChangePoint {
        ChangePoint {
            index,
            magnitude,
            direction: Trend::Up,
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(magnitude_outliers(&[], &[1.0, 2.0], &OutlierConfig::default()).is_empty());
    }

    #[test]
    fn dominant_magnitude_survives_small_ones_drop() {
        // Window with moderate spread.
        let window: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64).collect();
        let cps = vec![cp(10, 0.2), cp(30, 0.3), cp(50, 0.25), cp(70, 15.0)];
        let kept = magnitude_outliers(&cps, &window, &OutlierConfig::default());
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].index, 70);
    }

    #[test]
    fn single_change_point_uses_relative_test() {
        let window: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64).collect();
        // Big relative to the window std — kept.
        let kept = magnitude_outliers(&[cp(40, 5.0)], &window, &OutlierConfig::default());
        assert_eq!(kept.len(), 1);
        // Small relative to the window std — dropped.
        let kept = magnitude_outliers(&[cp(40, 0.1)], &window, &OutlierConfig::default());
        assert!(kept.is_empty());
    }

    #[test]
    fn bursty_window_hides_fault_sized_changes() {
        // The failure mode motivating FChain's predictability filter: when
        // normal variation is huge, a genuine fault-sized change is NOT an
        // outlier by magnitude.
        let window: Vec<f64> = (0..100)
            .map(|i| if i % 4 == 0 { 100.0 } else { 5.0 })
            .collect();
        let cps = vec![cp(10, 40.0), cp(30, 45.0), cp(50, 42.0), cp(70, 44.0)];
        let kept = magnitude_outliers(&cps, &window, &OutlierConfig::default());
        // All magnitudes are comparable: no outlier population separation.
        assert!(
            kept.len() >= 3,
            "all similar magnitudes should pass or fail together"
        );
    }

    #[test]
    fn constant_window_keeps_everything_relative() {
        let window = vec![5.0; 50];
        let kept = magnitude_outliers(&[cp(10, 0.01)], &window, &OutlierConfig::default());
        assert_eq!(kept.len(), 1); // zero window std: relative test passes
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Trend;
    use proptest::prelude::*;

    proptest! {
        /// The filter only ever removes change points, never invents or
        /// reorders them.
        #[test]
        fn filter_is_a_subsequence(
            mags in proptest::collection::vec(0.0f64..100.0, 0..20),
            window in proptest::collection::vec(0.0f64..100.0, 2..120),
        ) {
            let cps: Vec<ChangePoint> = mags
                .iter()
                .enumerate()
                .map(|(i, &m)| ChangePoint {
                    index: i * 5,
                    magnitude: m,
                    direction: Trend::Up,
                })
                .collect();
            let kept = magnitude_outliers(&cps, &window, &OutlierConfig::default());
            prop_assert!(kept.len() <= cps.len());
            let mut cursor = 0usize;
            for k in &kept {
                let pos = cps[cursor..].iter().position(|c| c.index == k.index);
                prop_assert!(pos.is_some(), "kept cp not in order");
                cursor += pos.unwrap() + 1;
            }
        }
    }
}
