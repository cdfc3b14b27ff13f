//! Online pinpointing validation (paper §II.A, §III.D).
//!
//! "FChain performs online pinpointing validation using the dynamic
//! resource scaling technique ... we can then adjust those metrics on the
//! faulty components to validate the accuracy of the pinpointing results
//! by observing the resource adjustment impact to the application's SLO
//! violation status." Validation removes false alarms (it cannot recover
//! missed components — §III.D notes recall is unchanged).

use crate::report::DiagnosisReport;
use fchain_metrics::{ComponentId, MetricKind};
use fchain_obs as obs;

/// The actuator validation drives: scale a resource on a component and
/// observe whether the SLO improves.
///
/// On a real deployment this adjusts hypervisor caps and watches the SLO
/// for ~30 s per component (Table II); in this reproduction the simulator
/// provides an implementation backed by its fault ground truth plus
/// observation noise.
pub trait ValidationProbe: std::fmt::Debug {
    /// Scales `metric` on `component` and reports whether the SLO
    /// violation eased.
    fn scale_and_observe(&mut self, component: ComponentId, metric: MetricKind) -> bool;
}

/// How many abnormal metrics validation scales per pinpointed component:
/// the paper adjusts up to the two strongest ones (§II.A, §III.D).
pub const VALIDATION_MAX_METRICS: usize = 2;

/// Validates a diagnosis in place: every pinpointed component gets its
/// strongest abnormal metrics scaled (up to [`VALIDATION_MAX_METRICS`]
/// attempts); if no scaling improves the SLO, the component is dropped
/// from `pinpointed` into `removed_by_validation`.
///
/// # Examples
///
/// ```
/// use fchain_core::{validate_pinpointing, ValidationProbe};
/// use fchain_core::{AbnormalChange, ComponentFinding, DiagnosisReport, Verdict};
/// use fchain_detect::Trend;
/// use fchain_metrics::{ComponentId, MetricKind};
///
/// #[derive(Debug)]
/// struct OnlyC1;
/// impl ValidationProbe for OnlyC1 {
///     fn scale_and_observe(&mut self, c: ComponentId, _m: MetricKind) -> bool {
///         c == ComponentId(1)
///     }
/// }
///
/// let change = AbnormalChange {
///     metric: MetricKind::Cpu, change_at: 10, onset: 10,
///     prediction_error: 9.0, expected_error: 1.0, direction: Trend::Up,
/// };
/// let mut report = DiagnosisReport {
///     verdict: Verdict::Faulty,
///     pinpointed: vec![ComponentId(0), ComponentId(1)],
///     findings: vec![
///         ComponentFinding { id: ComponentId(0), changes: vec![change] },
///         ComponentFinding { id: ComponentId(1), changes: vec![change] },
///     ],
///     removed_by_validation: vec![],
///     coverage: Default::default(),
///     engine: Default::default(),
///     app: Default::default(),
/// };
/// validate_pinpointing(&mut report, &mut OnlyC1);
/// assert_eq!(report.pinpointed, vec![ComponentId(1)]);
/// assert_eq!(report.removed_by_validation, vec![ComponentId(0)]);
/// ```
pub fn validate_pinpointing(report: &mut DiagnosisReport, probe: &mut dyn ValidationProbe) {
    let _span = obs::time(obs::Stage::MasterValidation);
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    for &c in &report.pinpointed {
        let metrics: Vec<MetricKind> = report
            .findings
            .iter()
            .find(|f| f.id == c)
            .map(|f| f.abnormal_metrics())
            .unwrap_or_default();
        // A pinpointed component with no abnormal metric on record (no
        // matching finding, or a finding whose changes were filtered)
        // gives validation no resource to scale: there is no experiment
        // whose outcome could refute it. Validation may only remove
        // *refuted* alarms (§III.D), so such components stay pinpointed.
        if metrics.is_empty() {
            kept.push(c);
            continue;
        }
        let confirmed = metrics.into_iter().take(VALIDATION_MAX_METRICS).any(|m| {
            obs::count(obs::Counter::ValidationProbes, 1);
            probe.scale_and_observe(c, m)
        });
        if confirmed {
            kept.push(c);
        } else {
            removed.push(c);
        }
    }
    obs::count(obs::Counter::ValidationRemoved, removed.len() as u64);
    report.pinpointed = kept;
    report.removed_by_validation = removed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AbnormalChange, ComponentFinding, Verdict};
    use fchain_detect::Trend;

    fn change(metric: MetricKind, excess: f64) -> AbnormalChange {
        AbnormalChange {
            metric,
            change_at: 100,
            onset: 100,
            prediction_error: 1.0 + excess,
            expected_error: 1.0,
            direction: Trend::Up,
        }
    }

    fn report(pinpointed: Vec<u32>) -> DiagnosisReport {
        DiagnosisReport {
            verdict: Verdict::Faulty,
            pinpointed: pinpointed.iter().map(|&c| ComponentId(c)).collect(),
            findings: (0..4)
                .map(|c| ComponentFinding {
                    id: ComponentId(c),
                    changes: vec![
                        change(MetricKind::Memory, 50.0),
                        change(MetricKind::Cpu, 10.0),
                    ],
                })
                .collect(),
            removed_by_validation: vec![],
            coverage: Default::default(),
            engine: Default::default(),
            app: Default::default(),
        }
    }

    /// Probe that records calls and approves a fixed (component, metric).
    #[derive(Debug)]
    struct Recorder {
        approve: (ComponentId, MetricKind),
        calls: Vec<(ComponentId, MetricKind)>,
    }

    impl ValidationProbe for Recorder {
        fn scale_and_observe(&mut self, c: ComponentId, m: MetricKind) -> bool {
            self.calls.push((c, m));
            (c, m) == self.approve
        }
    }

    #[test]
    fn false_alarm_is_removed_true_positive_kept() {
        let mut r = report(vec![0, 2]);
        let mut probe = Recorder {
            approve: (ComponentId(2), MetricKind::Memory),
            calls: vec![],
        };
        validate_pinpointing(&mut r, &mut probe);
        assert_eq!(r.pinpointed, vec![ComponentId(2)]);
        assert_eq!(r.removed_by_validation, vec![ComponentId(0)]);
    }

    #[test]
    fn strongest_metric_is_tried_first() {
        let mut r = report(vec![2]);
        let mut probe = Recorder {
            approve: (ComponentId(2), MetricKind::Memory),
            calls: vec![],
        };
        validate_pinpointing(&mut r, &mut probe);
        // Memory has the bigger error excess, so it is scaled first and
        // validation stops there.
        assert_eq!(probe.calls, vec![(ComponentId(2), MetricKind::Memory)]);
    }

    #[test]
    fn tries_up_to_max_metrics_before_dropping() {
        let mut r = report(vec![1]);
        let mut probe = Recorder {
            approve: (ComponentId(9), MetricKind::Cpu), // never approves
            calls: vec![],
        };
        validate_pinpointing(&mut r, &mut probe);
        assert_eq!(probe.calls.len(), VALIDATION_MAX_METRICS);
        assert!(r.pinpointed.is_empty());
        assert_eq!(r.removed_by_validation, vec![ComponentId(1)]);
    }

    #[test]
    fn component_without_findings_stays_pinpointed() {
        // Regression: a pinpointed component with no matching finding (or
        // no abnormal metrics) used to be removed without the probe ever
        // being called — `confirmed` was vacuously false. Validation can
        // only remove alarms an actual scaling experiment refuted.
        let mut r = report(vec![2, 9]); // 9 has no finding at all
        let mut probe = Recorder {
            approve: (ComponentId(2), MetricKind::Memory),
            calls: vec![],
        };
        validate_pinpointing(&mut r, &mut probe);
        assert_eq!(r.pinpointed, vec![ComponentId(2), ComponentId(9)]);
        assert!(r.removed_by_validation.is_empty());
        // The probe was never consulted about the finding-less component.
        assert!(probe.calls.iter().all(|(c, _)| *c != ComponentId(9)));
    }

    #[test]
    fn component_with_empty_changes_stays_pinpointed() {
        let mut r = report(vec![0]);
        r.findings[0].changes.clear(); // finding exists but is empty
        let mut probe = Recorder {
            approve: (ComponentId(5), MetricKind::Cpu), // never approves
            calls: vec![],
        };
        validate_pinpointing(&mut r, &mut probe);
        assert_eq!(r.pinpointed, vec![ComponentId(0)]);
        assert!(probe.calls.is_empty(), "no metric, no experiment");
    }

    #[test]
    fn empty_pinpointing_is_untouched() {
        let mut r = report(vec![]);
        let mut probe = Recorder {
            approve: (ComponentId(0), MetricKind::Cpu),
            calls: vec![],
        };
        validate_pinpointing(&mut r, &mut probe);
        assert!(probe.calls.is_empty());
        assert!(r.pinpointed.is_empty());
        assert!(r.removed_by_validation.is_empty());
    }
}
