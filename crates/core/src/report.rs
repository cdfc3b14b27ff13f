//! Diagnosis outputs.

use crate::config::AnalysisEngine;
use fchain_detect::Trend;
use fchain_metrics::{AppId, ComponentId, MetricKind, Tick};
use serde::{Deserialize, Serialize};

/// One abnormal change selected on one metric of one component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbnormalChange {
    /// Which metric changed abnormally.
    pub metric: MetricKind,
    /// Tick of the selected abnormal change point.
    pub change_at: Tick,
    /// Tick of the change *onset* after tangent-based rollback.
    pub onset: Tick,
    /// Real prediction error at the change point.
    pub prediction_error: f64,
    /// Burst-adaptive expected prediction error (the threshold it beat).
    pub expected_error: f64,
    /// Shift direction.
    pub direction: Trend,
}

/// Per-component result of the slave's abnormal change point selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentFinding {
    /// The component.
    pub id: ComponentId,
    /// All abnormal changes found across metrics (may be empty).
    pub changes: Vec<AbnormalChange>,
}

impl ComponentFinding {
    /// The component's abnormal-change start time: the earliest onset over
    /// all abnormal metrics (paper §II.B), or `None` if the component is
    /// normal.
    pub fn onset(&self) -> Option<Tick> {
        self.changes.iter().map(|c| c.onset).min()
    }

    /// The component's consensus trend: `Some` only when **all** its
    /// abnormal changes share one direction. Mixed directions (CPU up,
    /// throughput down — the typical fault signature) return `None`, so a
    /// genuinely faulty application is never mistaken for an external
    /// factor just because each component's earliest change points the
    /// same way.
    pub fn trend(&self) -> Option<Trend> {
        let mut iter = self.changes.iter().map(|c| c.direction);
        let first = iter.next()?;
        iter.all(|d| d == first).then_some(first)
    }

    /// Metrics that changed abnormally, strongest (largest error excess)
    /// first — the candidates online validation scales.
    pub fn abnormal_metrics(&self) -> Vec<MetricKind> {
        let mut ms: Vec<&AbnormalChange> = self.changes.iter().collect();
        ms.sort_by(|a, b| {
            let ea = a.prediction_error - a.expected_error;
            let eb = b.prediction_error - b.expected_error;
            eb.partial_cmp(&ea).expect("finite errors")
        });
        let mut seen = Vec::new();
        for c in ms {
            if !seen.contains(&c.metric) {
                seen.push(c.metric);
            }
        }
        seen
    }
}

/// Health of one registered slave during a diagnosis fan-out.
///
/// The paper's testbed assumes every slave answers the master instantly
/// and completely (§II.C); at cloud scale some of them are crashed,
/// stalled or partitioned at exactly the moment the SLO violation fires.
/// The master records what actually happened to each probe so a clean
/// verdict can be told apart from a partial one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlaveStatus {
    /// Answered on the first attempt.
    Ok,
    /// Answered after `retries` transient failures.
    Recovered {
        /// How many retries were needed before the slave answered.
        retries: u32,
    },
    /// Missed the fan-out deadline and was abandoned as a straggler.
    TimedOut,
    /// Failed every attempt (crashed or partitioned host).
    Unreachable,
}

impl SlaveStatus {
    /// Whether this slave's findings made it into the report.
    pub fn answered(&self) -> bool {
        matches!(self, SlaveStatus::Ok | SlaveStatus::Recovered { .. })
    }
}

/// How much of the cloud a diagnosis actually covered.
///
/// A report with `coverage < 1.0` is a *degraded-mode* diagnosis: the
/// components of the unreachable slaves produced no findings, so their
/// absence from the propagation chain is absence of evidence, not
/// evidence of health.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisCoverage {
    /// Per registered slave, in registration order.
    pub slaves: Vec<SlaveStatus>,
    /// Indices (into `slaves`) of the slaves that never answered.
    pub unreachable_slaves: Vec<usize>,
    /// Components monitored by unreachable slaves and not covered by any
    /// answering slave: the blind spot of this diagnosis.
    pub unreachable_components: Vec<ComponentId>,
    /// Fraction of registered **slaves** (not components) whose findings
    /// made it into the report: `answered / registered`; `1.0` for a clean
    /// fan-out (and for a slave-less master). Slaves are the unit because
    /// a slave fails as a whole — the master cannot tell which of a dead
    /// slave's components would have reported. For the component-level
    /// blind spot, use [`DiagnosisCoverage::component_coverage`] /
    /// `unreachable_components`.
    pub coverage: f64,
}

impl Default for DiagnosisCoverage {
    fn default() -> Self {
        DiagnosisCoverage {
            slaves: Vec::new(),
            unreachable_slaves: Vec::new(),
            unreachable_components: Vec::new(),
            coverage: 1.0,
        }
    }
}

impl DiagnosisCoverage {
    /// Full coverage over `n` slaves: the pre-degraded-mode assumption.
    pub fn full(n: usize) -> Self {
        DiagnosisCoverage {
            slaves: vec![SlaveStatus::Ok; n],
            ..DiagnosisCoverage::default()
        }
    }

    /// Whether every registered slave answered.
    pub fn is_complete(&self) -> bool {
        self.unreachable_slaves.is_empty()
    }

    /// The *component*-level analogue of [`coverage`](Self::coverage):
    /// the fraction of `total_components` not in the diagnosis blind spot.
    /// Differs from the slave fraction whenever slaves monitor unequal
    /// component counts; `1.0` when `total_components == 0`.
    pub fn component_coverage(&self, total_components: usize) -> f64 {
        if total_components == 0 {
            return 1.0;
        }
        let blind = self.unreachable_components.len().min(total_components);
        (total_components - blind) as f64 / total_components as f64
    }
}

/// What the integrated diagnosis concluded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// One or more components were pinpointed as faulty.
    Faulty,
    /// Every component changed with the same trend: the anomaly is likely
    /// an external factor (workload increase on `Trend::Up`, e.g. a shared
    /// NFS problem on `Trend::Down`); no component is blamed (§II.C).
    ExternalFactor(Trend),
    /// No component showed any abnormal change.
    NoAnomaly,
}

/// The complete output of one FChain diagnosis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiagnosisReport {
    /// Overall conclusion.
    pub verdict: Verdict,
    /// Pinpointed faulty components (empty unless `verdict == Faulty`).
    pub pinpointed: Vec<ComponentId>,
    /// Per-component slave findings, for inspection.
    pub findings: Vec<ComponentFinding>,
    /// Components whose pinpointing was dropped by online validation
    /// (empty when validation was not run).
    pub removed_by_validation: Vec<ComponentId>,
    /// Which slaves actually contributed findings. Defaults to full
    /// coverage for diagnosis paths that never fan out over slaves (the
    /// batch [`crate::FChain`] API).
    pub coverage: DiagnosisCoverage,
    /// Which analysis engine produced this report. Provenance only: both
    /// engines yield bit-identical findings, so the field is excluded
    /// from `PartialEq` and cross-engine reports of the
    /// same data compare equal — which is exactly what the parity suite
    /// asserts.
    /// Older serialized reports lack the field — its `Deserialize` maps
    /// absence to the default.
    pub engine: AnalysisEngine,
    /// Which tenant application this report diagnoses. Provenance, like
    /// `engine`: the single-app paths always stamp the default tenant
    /// (`A0`), and a fleet-of-one report of the same case must compare
    /// equal to the single-app one — so the field is excluded from
    /// `PartialEq`. Reports serialized before the fleet layer existed
    /// lack the field — its `Deserialize` maps absence to the default.
    pub app: AppId,
}

/// Equality over the diagnosis *payload* only: `engine` and `app` are
/// provenance, so both are ignored, keeping report comparison (and the
/// determinism/parity suites) meaningful for cross-engine and
/// fleet-of-one runs.
impl PartialEq for DiagnosisReport {
    fn eq(&self, other: &Self) -> bool {
        self.verdict == other.verdict
            && self.pinpointed == other.pinpointed
            && self.findings == other.findings
            && self.removed_by_validation == other.removed_by_validation
            && self.coverage == other.coverage
    }
}

impl DiagnosisReport {
    /// The abnormal-change propagation chain: abnormal components sorted
    /// by onset time (the paper's Fig. 2 / Fig. 5 view).
    pub fn propagation_chain(&self) -> Vec<(ComponentId, Tick)> {
        let mut chain: Vec<(ComponentId, Tick)> = self
            .findings
            .iter()
            .filter_map(|f| f.onset().map(|o| (f.id, o)))
            .collect();
        chain.sort_by_key(|&(c, o)| (o, c));
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(metric: MetricKind, onset: Tick, err: f64, exp: f64) -> AbnormalChange {
        AbnormalChange {
            metric,
            change_at: onset + 5,
            onset,
            prediction_error: err,
            expected_error: exp,
            direction: Trend::Up,
        }
    }

    #[test]
    fn onset_is_earliest_across_metrics() {
        let f = ComponentFinding {
            id: ComponentId(0),
            changes: vec![
                change(MetricKind::Cpu, 120, 10.0, 2.0),
                change(MetricKind::Memory, 90, 50.0, 5.0),
            ],
        };
        assert_eq!(f.onset(), Some(90));
        assert_eq!(f.trend(), Some(Trend::Up));
    }

    #[test]
    fn normal_component_has_no_onset() {
        let f = ComponentFinding {
            id: ComponentId(1),
            changes: vec![],
        };
        assert_eq!(f.onset(), None);
        assert_eq!(f.trend(), None);
        assert!(f.abnormal_metrics().is_empty());
    }

    #[test]
    fn abnormal_metrics_sorted_by_excess() {
        let f = ComponentFinding {
            id: ComponentId(0),
            changes: vec![
                change(MetricKind::Cpu, 100, 10.0, 8.0),    // excess 2
                change(MetricKind::Memory, 100, 90.0, 5.0), // excess 85
            ],
        };
        assert_eq!(
            f.abnormal_metrics(),
            vec![MetricKind::Memory, MetricKind::Cpu]
        );
    }

    #[test]
    fn propagation_chain_sorted_by_onset() {
        let report = DiagnosisReport {
            verdict: Verdict::Faulty,
            pinpointed: vec![ComponentId(2)],
            findings: vec![
                ComponentFinding {
                    id: ComponentId(0),
                    changes: vec![change(MetricKind::Cpu, 150, 9.0, 1.0)],
                },
                ComponentFinding {
                    id: ComponentId(2),
                    changes: vec![change(MetricKind::Memory, 100, 9.0, 1.0)],
                },
                ComponentFinding {
                    id: ComponentId(1),
                    changes: vec![],
                },
            ],
            removed_by_validation: vec![],
            coverage: DiagnosisCoverage::default(),
            engine: AnalysisEngine::default(),
            app: AppId::default(),
        };
        assert_eq!(
            report.propagation_chain(),
            vec![(ComponentId(2), 100), (ComponentId(0), 150)]
        );
    }

    #[test]
    fn default_coverage_is_complete() {
        let cov = DiagnosisCoverage::default();
        assert!(cov.is_complete());
        assert_eq!(cov.coverage, 1.0);
        let full = DiagnosisCoverage::full(3);
        assert!(full.is_complete());
        assert_eq!(full.slaves, vec![SlaveStatus::Ok; 3]);
    }

    #[test]
    fn engine_and_app_are_excluded_from_report_equality() {
        let base = DiagnosisReport {
            verdict: Verdict::NoAnomaly,
            pinpointed: vec![],
            findings: vec![],
            removed_by_validation: vec![],
            coverage: DiagnosisCoverage::default(),
            engine: AnalysisEngine::Streaming,
            app: AppId::default(),
        };
        let mut batch = base.clone();
        batch.engine = AnalysisEngine::Batch;
        assert_eq!(base, batch, "engine provenance must not affect equality");
        let mut tenant = base.clone();
        tenant.app = AppId(3);
        assert_eq!(base, tenant, "tenant provenance must not affect equality");
        let mut different = base.clone();
        different.pinpointed = vec![ComponentId(7)];
        assert_ne!(base, different);
    }

    #[test]
    fn component_coverage_counts_components_not_slaves() {
        // One slave monitoring 1 component answered, one monitoring 3
        // crashed: slave coverage is 1/2 but component coverage is 1/4.
        let cov = DiagnosisCoverage {
            slaves: vec![SlaveStatus::Ok, SlaveStatus::Unreachable],
            unreachable_slaves: vec![1],
            unreachable_components: vec![ComponentId(1), ComponentId(2), ComponentId(3)],
            coverage: 0.5,
        };
        assert_eq!(cov.component_coverage(4), 0.25);
        assert_eq!(DiagnosisCoverage::default().component_coverage(0), 1.0);
        assert_eq!(DiagnosisCoverage::full(3).component_coverage(5), 1.0);
    }

    #[test]
    fn slave_status_answered() {
        assert!(SlaveStatus::Ok.answered());
        assert!(SlaveStatus::Recovered { retries: 2 }.answered());
        assert!(!SlaveStatus::TimedOut.answered());
        assert!(!SlaveStatus::Unreachable.answered());
    }
}
