//! The per-metric online learner the FChain slave runs continuously.

use crate::{MarkovPredictor, Prediction, PredictionBasis, Quantizer};
use serde::{Deserialize, Serialize};

/// Configuration of the per-metric online learner.
///
/// The defaults match the light-weight profile the paper reports
/// (normal-fluctuation modeling over 1000 samples costs ~23 ms, §III.G).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// Number of quantization bins.
    pub bins: usize,
    /// Samples used to calibrate the quantizer range before the Markov
    /// model starts learning.
    pub calibration_samples: usize,
    /// Headroom added around the calibrated range (fraction of span per
    /// side).
    pub calibration_margin: f64,
    /// Per-observation exponential decay of learned mass.
    pub decay: f64,
    /// Minimum transition-row mass for a state to count as "seen".
    pub min_row_mass: f64,
    /// EWMA coefficient of the slow baseline the model detrends against
    /// (`0.0` disables detrending and the chain runs on raw values).
    ///
    /// Long-running workloads drift — a Hadoop job's reduce phase ramps
    /// its I/O up for half an hour — and a fixed-range quantizer on raw
    /// values would spend the whole drift out of range. Learning the
    /// *residual* against a slow baseline keeps the state space
    /// stationary under drift, while faults (steps, leaks, stalls) still
    /// throw the residual far outside everything the model has seen.
    pub detrend_alpha: f64,
}

impl LearnerConfig {
    /// Checks that a learner can calibrate and train with this
    /// configuration.
    ///
    /// # Errors
    ///
    /// Names the first violated rule: `bins == 0`,
    /// `calibration_samples == 0`, `detrend_alpha` outside `[0, 1)`,
    /// `decay` outside `(0, 1]`, or `min_row_mass < 0`.
    pub fn validate(&self) -> Result<(), String> {
        if self.bins == 0 {
            return Err("bins must be non-zero".into());
        }
        if self.calibration_samples == 0 {
            return Err("calibration_samples must be non-zero".into());
        }
        if !(0.0..1.0).contains(&self.detrend_alpha) {
            return Err("detrend_alpha must be in [0, 1)".into());
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err("decay must be in (0, 1]".into());
        }
        if !(0.0..).contains(&self.min_row_mass) {
            return Err("min_row_mass must be non-negative".into());
        }
        Ok(())
    }
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            bins: 24,
            calibration_samples: 60,
            calibration_margin: 0.75,
            decay: 0.9995,
            min_row_mass: 1.0,
            detrend_alpha: 0.02,
        }
    }
}

/// Continuously learns one metric's normal fluctuation pattern and exposes
/// causal one-step-ahead prediction errors.
///
/// The learner maintains a slow EWMA baseline and feeds the *residual*
/// (value − baseline) into a quantized Markov chain. It buffers a short
/// calibration prefix, fixes the quantizer from it, then trains online.
/// `feed` returns the prediction error for the sample *before* the model
/// absorbs it — the error series is strictly causal, as required for
/// replaying the look-back window after an SLO violation.
///
/// # Examples
///
/// ```
/// use fchain_model::{LearnerConfig, OnlineLearner};
///
/// let mut learner = OnlineLearner::new(LearnerConfig::default());
/// let mut last_error = 0.0;
/// for t in 0..400 {
///     let v = if t % 2 == 0 { 10.0 } else { 30.0 };
///     last_error = learner.feed(v);
/// }
/// // The alternation is fully learned.
/// assert!(last_error < 4.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineLearner {
    config: LearnerConfig,
    calibration: Vec<f64>,
    predictor: Option<MarkovPredictor>,
    baseline: Option<f64>,
    last_residual: Option<f64>,
}

impl OnlineLearner {
    /// Creates a learner that will calibrate itself from its first samples.
    ///
    /// # Panics
    ///
    /// Panics if [`LearnerConfig::validate`] rejects `config`.
    pub fn new(config: LearnerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        OnlineLearner {
            config,
            calibration: Vec::new(),
            predictor: None,
            baseline: None,
            last_residual: None,
        }
    }

    /// Whether calibration has completed and the Markov model is live.
    pub fn is_calibrated(&self) -> bool {
        self.predictor.is_some()
    }

    /// Access to the underlying predictor once calibrated.
    pub fn predictor(&self) -> Option<&MarkovPredictor> {
        self.predictor.as_ref()
    }

    /// The current slow baseline, if any sample has been seen.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Predicts the raw value that `value` would be followed by, without
    /// learning. During calibration this is persistence.
    pub fn predict_from(&self, value: f64) -> Prediction {
        match (&self.predictor, self.baseline) {
            (Some(p), Some(base)) => {
                let r = p.predict_from(value - base);
                Prediction {
                    value: base + r.value,
                    basis: r.basis,
                }
            }
            _ => Prediction {
                value,
                basis: PredictionBasis::Persistence,
            },
        }
    }

    /// Feeds one sample and returns the absolute prediction error for it
    /// (prediction made from the model state *before* this sample).
    pub fn feed(&mut self, value: f64) -> f64 {
        let base = self.baseline.unwrap_or(value);
        let residual = if self.config.detrend_alpha > 0.0 {
            value - base
        } else {
            value
        };
        let error = match (&self.predictor, self.last_residual) {
            (Some(p), Some(prev)) => (p.predict_from(prev).value - residual).abs(),
            // During calibration use persistence error, which is small for
            // any continuous signal and keeps the error series total.
            (_, Some(prev)) => (prev - residual).abs(),
            _ => 0.0,
        };

        if self.predictor.is_none() {
            self.calibration.push(residual);
            if self.calibration.len() >= self.config.calibration_samples {
                let quantizer = Quantizer::calibrate(
                    &self.calibration,
                    self.config.bins,
                    self.config.calibration_margin,
                );
                let mut predictor =
                    MarkovPredictor::new(quantizer, self.config.decay, self.config.min_row_mass);
                for &r in &self.calibration {
                    predictor.observe(r);
                }
                self.predictor = Some(predictor);
                self.calibration.clear();
                self.calibration.shrink_to_fit();
            }
        } else if let Some(p) = &mut self.predictor {
            p.observe(residual);
        }
        self.last_residual = Some(residual);
        // The baseline updates after the residual is taken, keeping the
        // error computation causal.
        self.baseline = Some(if self.config.detrend_alpha > 0.0 {
            self.config.detrend_alpha * value + (1.0 - self.config.detrend_alpha) * base
        } else {
            0.0
        });
        error
    }

    /// Trains over a whole series and returns the causal one-step-ahead
    /// prediction error at every index (index 0 has error 0).
    pub fn train_errors(&mut self, series: &[f64]) -> Vec<f64> {
        series.iter().map(|&v| self.feed(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_then_learning() {
        let cfg = LearnerConfig {
            calibration_samples: 10,
            ..LearnerConfig::default()
        };
        let mut l = OnlineLearner::new(cfg);
        for i in 0..9 {
            l.feed(i as f64);
            assert!(!l.is_calibrated());
        }
        l.feed(9.0);
        assert!(l.is_calibrated());
        assert!(l.predictor().is_some());
        assert!(l.baseline().is_some());
    }

    #[test]
    fn learned_pattern_has_low_error_unseen_jump_has_high_error() {
        let mut l = OnlineLearner::new(LearnerConfig::default());
        // Train a 10-tick sawtooth between 20 and 40 for a long time.
        for t in 0..1000 {
            let v = 20.0 + 2.0 * (t % 10) as f64;
            l.feed(v);
        }
        // Normal next sample: low error.
        let normal_err = l.feed(20.0);
        // Fault: jump to a value far outside the learned range.
        let fault_err = l.feed(300.0);
        assert!(
            fault_err > 10.0 * (normal_err + 1.0),
            "fault {fault_err} vs normal {normal_err}"
        );
    }

    #[test]
    fn gradual_unseen_drift_has_high_error() {
        // A *fault-speed* ramp into unseen territory produces large errors:
        // unseen residual states fall back to the stationary expectation.
        let mut l = OnlineLearner::new(LearnerConfig::default());
        for t in 0..800 {
            let v = 30.0 + 5.0 * ((t as f64) * 0.7).sin();
            l.feed(v);
        }
        // Memory-leak style ramp: +3 units per tick.
        let mut max_err: f64 = 0.0;
        for step in 1..=120 {
            let v = 35.0 + 3.0 * step as f64;
            max_err = max_err.max(l.feed(v));
        }
        assert!(max_err > 30.0, "max_err {max_err}");
    }

    #[test]
    fn slow_workload_drift_stays_predictable() {
        // The detrending property: a workload that ramps steadily over the
        // whole run (far slower than any fault) keeps producing low errors
        // even though raw values leave the initial range entirely.
        let mut l = OnlineLearner::new(LearnerConfig::default());
        let mut late_max: f64 = 0.0;
        for t in 0..3000 {
            let drift = 500.0 + 0.4 * t as f64; // +1200 over the run
            let season = 30.0 * ((t % 20) as f64 / 20.0);
            let e = l.feed(drift + season);
            if t > 2500 {
                late_max = late_max.max(e);
            }
        }
        assert!(late_max < 60.0, "drift not absorbed: {late_max}");
    }

    #[test]
    fn train_errors_is_causal_length() {
        let series: Vec<f64> = (0..200).map(|t| (t % 5) as f64).collect();
        let mut l = OnlineLearner::new(LearnerConfig::default());
        let errors = l.train_errors(&series);
        assert_eq!(errors.len(), series.len());
        assert_eq!(errors[0], 0.0);
    }

    #[test]
    fn predict_before_calibration_is_persistence() {
        let l = OnlineLearner::new(LearnerConfig::default());
        let p = l.predict_from(17.0);
        assert_eq!(p.value, 17.0);
        assert_eq!(p.basis, PredictionBasis::Persistence);
    }

    #[test]
    fn raw_mode_without_detrending_still_works() {
        let mut l = OnlineLearner::new(LearnerConfig {
            detrend_alpha: 0.0,
            ..LearnerConfig::default()
        });
        for t in 0..500 {
            let v = if t % 2 == 0 { 10.0 } else { 30.0 };
            l.feed(v);
        }
        let e = l.feed(10.0);
        assert!(e < 4.0, "error {e}");
    }

    #[test]
    #[should_panic(expected = "bins")]
    fn zero_bins_rejected() {
        let _ = OnlineLearner::new(LearnerConfig {
            bins: 0,
            ..LearnerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "detrend_alpha")]
    fn bad_alpha_rejected() {
        let _ = OnlineLearner::new(LearnerConfig {
            detrend_alpha: 1.0,
            ..LearnerConfig::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Prediction errors are finite and non-negative on arbitrary input.
        #[test]
        fn errors_finite(values in proptest::collection::vec(-1e4f64..1e4, 1..400)) {
            let mut l = OnlineLearner::new(LearnerConfig::default());
            for e in l.train_errors(&values) {
                prop_assert!(e.is_finite());
                prop_assert!(e >= 0.0);
            }
        }
    }
}
