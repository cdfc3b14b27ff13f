//! The FChain system: slaves + master wired together.

use crate::case::CaseData;
use crate::config::{widened_lookback, FChainConfig};
use crate::localizer::Localizer;
use crate::master::pinpoint::pinpoint_findings;
use crate::master::validation::{validate_pinpointing, ValidationProbe};
use crate::report::{ComponentFinding, DiagnosisReport};
use crate::slave::analyze_component;
use fchain_metrics::ComponentId;

/// The FChain fault localization system.
///
/// [`FChain::diagnose`] runs the full pipeline — per-component abnormal
/// change point selection, onset rollback, integrated pinpointing with
/// dependency refinement — and returns a [`DiagnosisReport`].
/// [`FChain::diagnose_validated`] additionally runs online pinpointing
/// validation through a [`ValidationProbe`].
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct FChain {
    config: FChainConfig,
}

impl FChain {
    /// Creates an FChain instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FChainConfig::validate`]).
    pub fn new(config: FChainConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid FChainConfig: {e}");
        }
        FChain { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FChainConfig {
        &self.config
    }

    /// Full diagnosis without online validation.
    ///
    /// With [`FChainConfig::adaptive_lookback`] enabled, a diagnosis whose
    /// earliest onset touches the very start of the window is re-run with
    /// a window four times longer (capped at 600 s): an onset at the edge
    /// means the manifestation probably started before the window — the
    /// slow-fault situation that otherwise requires hand-picking `W`.
    pub fn diagnose(&self, case: &CaseData) -> DiagnosisReport {
        // The case's look-back window is authoritative (the master
        // decides W per diagnosis — e.g. 500 s for slow-manifesting
        // faults); the config's `lookback` is the default used when the
        // case does not carry one.
        let base_w = if case.lookback > 0 {
            case.lookback
        } else {
            self.config.lookback
        };
        let report = self.diagnose_with_lookback(case, base_w);
        if !self.config.adaptive_lookback {
            return report;
        }
        let window_start = case.violation_at.saturating_sub(base_w);
        let edge = window_start + base_w / 4;
        let touches_edge = report
            .propagation_chain()
            .first()
            .is_some_and(|&(_, onset)| onset <= edge);
        // Nothing found despite a live SLO violation also means the
        // manifestation is probably older than the window.
        let empty = matches!(report.verdict, crate::Verdict::NoAnomaly);
        if !touches_edge && !empty {
            return report;
        }
        match widened_lookback(base_w) {
            Some(extended) => self.diagnose_with_lookback(case, extended),
            None => report,
        }
    }

    /// Diagnosis over a look-back window of `w` ticks.
    fn diagnose_with_lookback(&self, case: &CaseData, w: u64) -> DiagnosisReport {
        let findings: Vec<ComponentFinding> = case
            .components
            .iter()
            .map(|cc| analyze_component(cc, case.violation_at, w, &self.config))
            .collect();
        let dependencies = case.dependency_evidence(self.config.ensemble.enabled);
        // The in-process API analyzes every component locally: there is
        // no slave fan-out that could fail, so coverage is complete.
        let (verdict, pinpointed) = pinpoint_findings(&self.config, &findings, dependencies, 1.0);
        DiagnosisReport {
            verdict,
            pinpointed,
            findings,
            removed_by_validation: Vec::new(),
            coverage: crate::report::DiagnosisCoverage::default(),
            engine: self.config.engine,
            // The in-process API serves one application: the default
            // tenant.
            app: fchain_metrics::AppId::default(),
        }
    }

    /// Full diagnosis followed by online pinpointing validation
    /// ("FChain+VAL" in the paper's Fig. 11). Each pinpointed component
    /// has up to its two strongest abnormal metrics scaled via `probe`.
    pub fn diagnose_validated(
        &self,
        case: &CaseData,
        probe: &mut dyn ValidationProbe,
    ) -> DiagnosisReport {
        let mut report = self.diagnose(case);
        validate_pinpointing(&mut report, probe);
        report
    }
}

impl Default for FChain {
    fn default() -> Self {
        FChain::new(FChainConfig::default())
    }
}

impl Localizer for FChain {
    fn name(&self) -> &str {
        "FChain"
    }

    fn localize(&self, case: &CaseData) -> Vec<ComponentId> {
        self.diagnose(case).pinpointed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ComponentCase;
    use fchain_metrics::{MetricKind, TimeSeries};

    /// Builds a benign component whose CPU carries `delta(t)` added on top
    /// of a learnable periodic pattern.
    fn component(id: u32, delta: impl Fn(usize) -> f64) -> ComponentCase {
        let n = 1200usize;
        let mut metrics: Vec<TimeSeries> = (0..6)
            .map(|k| {
                TimeSeries::from_samples(
                    0,
                    (0..n).map(|t| 40.0 + ((t * (k + 2)) % 5) as f64).collect(),
                )
            })
            .collect();
        let cpu: Vec<f64> = (0..n)
            .map(|t| 30.0 + ((t * 3) % 7) as f64 + delta(t))
            .collect();
        metrics[MetricKind::Cpu.index()] = TimeSeries::from_samples(0, cpu);
        ComponentCase {
            id: ComponentId(id),
            name: format!("c{id}"),
            metrics,
        }
    }

    fn case(components: Vec<ComponentCase>) -> CaseData {
        CaseData {
            violation_at: 1150,
            lookback: 100,
            components,
            known_topology: None,
            discovered_deps: None,
            frontend: None,
        }
    }

    #[test]
    fn culprit_manifests_first_and_wins() {
        // Component 1 jumps at 1090; component 0 is "infected" at 1103.
        let c = case(vec![
            component(0, |t| if t >= 1103 { 40.0 } else { 0.0 }),
            component(1, |t| if t >= 1090 { 45.0 } else { 0.0 }),
            component(2, |_| 0.0),
        ]);
        let report = FChain::default().diagnose(&c);
        assert_eq!(report.pinpointed, vec![ComponentId(1)]);
        let chain = report.propagation_chain();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].0, ComponentId(1));
        assert!(chain[0].1 < chain[1].1);
    }

    #[test]
    fn concurrent_faults_both_pinpointed() {
        let c = case(vec![
            component(0, |t| if t >= 1090 { 45.0 } else { 0.0 }),
            component(1, |t| if t >= 1091 { 45.0 } else { 0.0 }),
            component(2, |_| 0.0),
        ]);
        let report = FChain::default().diagnose(&c);
        assert_eq!(report.pinpointed, vec![ComponentId(0), ComponentId(1)]);
    }

    #[test]
    fn no_anomaly_when_everything_normal() {
        let c = case(vec![component(0, |_| 0.0), component(1, |_| 0.0)]);
        let report = FChain::default().diagnose(&c);
        assert_eq!(report.verdict, crate::Verdict::NoAnomaly);
        assert!(report.pinpointed.is_empty());
        // The adaptive retry's 4× widening saturates on a huge window.
        let adaptive = FChain::new(FChainConfig {
            adaptive_lookback: true,
            ..FChainConfig::default()
        });
        let huge = CaseData {
            lookback: u64::MAX,
            ..c
        };
        assert_eq!(adaptive.diagnose(&huge).verdict, crate::Verdict::NoAnomaly);
    }

    #[test]
    fn localizer_impl_matches_diagnose() {
        let c = case(vec![
            component(0, |_| 0.0),
            component(1, |t| if t >= 1100 { 50.0 } else { 0.0 }),
        ]);
        let f = FChain::default();
        assert_eq!(f.localize(&c), f.diagnose(&c).pinpointed);
        assert_eq!(f.name(), "FChain");
    }

    #[test]
    fn validation_removes_unconfirmed() {
        #[derive(Debug)]
        struct NeverImproves;
        impl ValidationProbe for NeverImproves {
            fn scale_and_observe(&mut self, _c: ComponentId, _m: MetricKind) -> bool {
                false
            }
        }
        let c = case(vec![
            component(0, |_| 0.0),
            component(1, |t| if t >= 1100 { 50.0 } else { 0.0 }),
        ]);
        let report = FChain::default().diagnose_validated(&c, &mut NeverImproves);
        assert!(report.pinpointed.is_empty());
        assert_eq!(report.removed_by_validation, vec![ComponentId(1)]);
    }
}
