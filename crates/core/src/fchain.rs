//! The FChain system: slaves + master wired together.

use crate::case::CaseData;
use crate::config::{clamp_lookback, FChainConfig};
use crate::localizer::Localizer;
use crate::master::validation::ValidationProbe;
use crate::master::Master;
use crate::report::DiagnosisReport;
use crate::slave::{Recording, SlaveDaemon};
use fchain_metrics::{AppId, ComponentId};

/// The FChain fault localization system.
///
/// [`FChain::diagnose`] runs the production pipeline on a recorded case:
/// the case is replayed into an in-process [`SlaveDaemon`] that retains
/// the whole history, and a [`Master`] holding the case's dependency
/// evidence answers the violation — per-component abnormal change point
/// selection, onset rollback, integrated pinpointing with dependency
/// refinement. [`FChain::diagnose_validated`] additionally runs online
/// pinpointing validation through a [`ValidationProbe`].
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

    /// Full diagnosis without online validation. With
    /// [`FChainConfig::lookback_retry`] set, an empty first answer is
    /// re-asked over a widened window, as the master does in deployment.
    pub fn diagnose(&self, case: &CaseData) -> DiagnosisReport {
        self.master(case, 1).on_violation(case.violation_at)
    }

    /// Full diagnosis followed by online pinpointing validation
    /// ("FChain+VAL" in the paper's Fig. 11). Each pinpointed component
    /// has up to its two strongest abnormal metrics scaled via `probe`.
    pub fn diagnose_validated(
        &self,
        case: &CaseData,
        probe: &mut dyn ValidationProbe,
    ) -> DiagnosisReport {
        self.master(case, 1)
            .on_violation_validated(case.violation_at, probe)
    }

    /// The deployment a recorded case stands for: the case staged on
    /// `hosts` slave daemons by [`SlaveDaemon::replay_pool`] (components
    /// round-robin, every sample retained, so the error floor learns from
    /// the whole normal history), registered with a master that holds
    /// the case's dependency evidence. The diagnosis does not depend on
    /// `hosts`.
    ///
    /// The case's look-back window is authoritative (the master decides
    /// `W` per diagnosis — e.g. 500 s for slow-manifesting faults); the
    /// config's `lookback` applies when the case carries none, and a
    /// window outside [`MIN_LOOKBACK`](crate::MIN_LOOKBACK)`..=`
    /// [`MAX_LOOKBACK`](crate::MAX_LOOKBACK) is clamped into it. The
    /// in-process slaves cannot be lost, so no deadline applies.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn master(&self, case: &CaseData, hosts: usize) -> Master {
        let lookback = match case.lookback {
            0 => self.config.lookback,
            w => clamp_lookback(w),
        };
        let config = FChainConfig {
            lookback,
            slave_deadline_ms: 0,
            ..self.config.clone()
        };
        let recording = Recording::case(AppId::default(), 0, case);
        let pool = SlaveDaemon::replay_pool(&config, hosts, &[recording]);
        let mut master = Master::new(config);
        for slave in pool {
            master.register_slave(slave);
        }
        if let Some(deps) = case.dependency_evidence(self.config.ensemble.enabled) {
            master.set_dependencies(deps.clone());
        }
        master
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
        // The master's widen retry keeps the empty answer on a window
        // already past its cap (a huge case window is clamped, not
        // rejected).
        let widen = FChain::new(FChainConfig {
            lookback_retry: crate::LookbackRetry::Widen,
            ..FChainConfig::default()
        });
        let huge = CaseData {
            lookback: u64::MAX,
            ..c
        };
        assert_eq!(widen.diagnose(&huge).verdict, crate::Verdict::NoAnomaly);
    }

    #[test]
    fn all_non_finite_component_is_absent_from_findings() {
        // The daemon drops every non-finite sample at ingest, so a
        // component whose six metrics never carry a finite value has no
        // series to analyze: it is absent from `findings` (not present
        // with empty changes), and the culprit is still pinpointed.
        let mut dark = component(2, |_| 0.0);
        for series in &mut dark.metrics {
            *series = TimeSeries::from_samples(0, vec![f64::NAN; series.len()]);
        }
        let c = case(vec![
            component(0, |_| 0.0),
            component(1, |t| if t >= 1100 { 50.0 } else { 0.0 }),
            dark,
        ]);
        let report = FChain::default().diagnose(&c);
        let ids: Vec<ComponentId> = report.findings.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![ComponentId(0), ComponentId(1)]);
        assert_eq!(report.pinpointed, vec![ComponentId(1)]);
        assert!(report.coverage.is_complete());
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
