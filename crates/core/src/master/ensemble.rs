//! Ensemble pinpointing stage: the onset chain over confidence-weighted
//! evidence, with structural corrections from the dependency graph.
//!
//! The base pinpointer (§II.C, [`crate::pinpoint`]) trusts every abnormal
//! change equally and ranks purely by onset time. That is exactly right on
//! the paper's testbed — one application, every slave answering, every
//! change a real one — but at fleet scale two failure modes dominate the
//! precision/recall budget:
//!
//! * **noise-onset theft** — a borderline change on a healthy sibling
//!   (prediction error barely past the floor) lands an *earlier* onset
//!   than the true fault and steals the chain source;
//! * **silent holes** — a bottlenecked component stalls without moving
//!   its own metrics while every peer around it goes abnormal in one
//!   near-simultaneous uniform-trend wave, which the base rule reads as
//!   an external factor and pinpoints nothing.
//!
//! The ensemble stage keeps the onset chain as the primary signal and
//! layers two kinds of correction over it, following the Flock-style
//! evidence-weighting line of work:
//!
//! 1. every abnormal change gets a *confidence* — its prediction-error
//!    excess ratio, down-weighted when the diagnosis ran on partial
//!    evidence (deadline-clipped or unreachable slaves, per the existing
//!    [`crate::DiagnosisCoverage`] accounting) — and only confident
//!    changes vote for the onset chain;
//! 2. the dependency graph settles the shapes onset order cannot: a
//!    single silent interior component surrounded by a uniform
//!    near-simultaneous wave is re-read as the wave's origin instead of
//!    an external factor; mutually independent flow sources that explain
//!    every other abnormal component are blamed together whatever their
//!    onset order; and a sub-floor change aligned with the culprits and
//!    path-independent of them marks a concurrent sibling fault.
//!
//! The stage is gated behind [`crate::EnsembleConfig::enabled`] (default
//! *off*), and with the switch off every report stays bit-identical to the
//! base pipeline. Its tuning is fixed: [`CONFIDENCE_FLOOR`] and
//! [`COVERAGE_PENALTY`], with the silent-hole reading always on.

use crate::config::FChainConfig;
use crate::master::pinpoint::{pinpoint, PinpointInput};
use crate::report::{AbnormalChange, ComponentFinding, Verdict};
use fchain_deps::DependencyGraph;
use fchain_metrics::{ComponentId, Tick};

/// Everything the ensemble stage sees for one diagnosis.
#[derive(Debug)]
pub struct EnsembleInput<'a> {
    /// Per-component slave findings (normal components have no changes).
    pub findings: &'a [ComponentFinding],
    /// Inter-component dependency graph, if one is known. An empty graph
    /// counts as "no information".
    pub dependencies: Option<&'a DependencyGraph>,
    /// Fraction of monitored *components* the findings actually observed
    /// ([`crate::DiagnosisCoverage::component_coverage`]). Components, not
    /// slaves: a crashed host whose every shard has a surviving replica
    /// loses no evidence and must not discount the confidences. Non-finite
    /// or out-of-range values are clamped to `[0, 1]` with `NaN` read as 0.
    pub coverage: f64,
}

/// Minimum per-evidence confidence (prediction-error excess ratio, after
/// the coverage penalty) for a change to vote in the onset chain. Genuine
/// faults land well above 1.35 on the calibration campaigns; borderline
/// noise sits in 1.0–1.3.
pub const CONFIDENCE_FLOOR: f64 = 1.35;

/// How strongly missing coverage discounts evidence: a change's confidence
/// is divided by `1 + COVERAGE_PENALTY * (1 - coverage)`.
pub const COVERAGE_PENALTY: f64 = 1.0;

/// The ensemble pinpointing stage. Stateless; its only inputs besides the
/// fixed tuning above are the base pinpointer's thresholds.
#[derive(Debug)]
struct EnsembleScorer {
    concurrency_threshold: u64,
    external_quorum: f64,
}

/// Guards a ratio computation against zero/non-finite denominators.
const ERROR_EPSILON: f64 = 1e-9;

impl EnsembleScorer {
    /// Builds a scorer from the full system configuration.
    fn new(config: &FChainConfig) -> Self {
        EnsembleScorer {
            concurrency_threshold: config.concurrency_threshold,
            external_quorum: config.external_quorum,
        }
    }

    /// Sanitized coverage: `NaN` reads as 0 (all evidence suspect),
    /// anything else clamps into `[0, 1]`.
    fn sane_coverage(coverage: f64) -> f64 {
        if coverage.is_finite() {
            coverage.clamp(0.0, 1.0)
        } else if coverage == f64::INFINITY {
            1.0
        } else {
            0.0
        }
    }

    /// Per-evidence confidence: the prediction-error excess ratio,
    /// divided by the coverage penalty. A change observed under full
    /// coverage keeps its raw ratio; one observed while half the slaves
    /// were clipped needs proportionally more excess to count. Always
    /// finite and non-negative.
    fn confidence(&self, change: &AbnormalChange, coverage: f64) -> f64 {
        let ratio = change.prediction_error / change.expected_error.max(ERROR_EPSILON);
        if !ratio.is_finite() || ratio < 0.0 {
            return 0.0;
        }
        let missing = 1.0 - Self::sane_coverage(coverage);
        ratio / (1.0 + COVERAGE_PENALTY * missing)
    }

    /// The base §II.C pinpointer over `findings` with this stage's
    /// thresholds.
    fn base(
        &self,
        findings: &[ComponentFinding],
        dependencies: Option<&DependencyGraph>,
    ) -> (Verdict, Vec<ComponentId>) {
        pinpoint(&PinpointInput {
            findings,
            dependencies,
            concurrency_threshold: self.concurrency_threshold,
            external_quorum: self.external_quorum,
        })
    }

    /// The findings with only their confident changes kept. Components
    /// whose every change fails the confidence floor degrade to "normal"
    /// (empty changes), exactly how the base pipeline encodes health.
    fn confident_findings(&self, input: &EnsembleInput<'_>) -> Vec<ComponentFinding> {
        input
            .findings
            .iter()
            .map(|f| ComponentFinding {
                id: f.id,
                changes: f
                    .changes
                    .iter()
                    .filter(|c| self.confidence(c, input.coverage) >= CONFIDENCE_FLOOR)
                    .cloned()
                    .collect(),
            })
            .collect()
    }

    /// The stale-loner correction: when the earliest confident component
    /// precedes the *rest of the wave* by more than twice the widening
    /// window, its early changes are residue of pre-fault noise (or an
    /// onset rollback that walked through noise), not the propagation
    /// source — an SLO violation fires because of the wave, and a lone
    /// change dozens of ticks before it with nothing in between did not
    /// cause it. Only fires when at least four components are confidently
    /// abnormal, so slow-manifesting single faults (a leak leading its
    /// infection by tens of ticks, with one or two infected peers) keep
    /// their early onset. Drops the loner's stale changes (anything older
    /// than the wave minus the widening window) and re-checks, so a
    /// loner's genuine late change still votes.
    fn drop_stale_loners(&self, findings: &mut [ComponentFinding]) {
        for _ in 0..findings.len() {
            let mut onsets: Vec<(Tick, ComponentId)> = findings
                .iter()
                .filter_map(|f| f.onset().map(|o| (o, f.id)))
                .collect();
            if onsets.len() < 4 {
                return;
            }
            onsets.sort();
            let (first, loner) = onsets[0];
            let wave = onsets[1].0;
            if wave - first <= 8 * self.concurrency_threshold {
                return;
            }
            let cutoff = wave - 4 * self.concurrency_threshold;
            let finding = findings
                .iter_mut()
                .find(|f| f.id == loner)
                .expect("loner comes from this slice");
            finding.changes.retain(|c| c.onset >= cutoff);
        }
    }

    /// The silent-hole correction: every component abnormal in one
    /// near-simultaneous uniform-trend wave *except one*, and that one
    /// sits in the interior of the dependency graph (it has both
    /// dependents and dependencies). A workload surge hits everything; a
    /// stalled interior component starves its downstream and back-
    /// pressures its upstream while its own metrics flatline — so the
    /// hole, not an external factor, is the origin. Evaluated on the
    /// *confident* findings: a weak noise change on a peer must not break
    /// the wave's tight spread.
    fn silent_hole(
        &self,
        findings: &[ComponentFinding],
        raw: &[ComponentFinding],
        dependencies: Option<&DependencyGraph>,
    ) -> Option<ComponentId> {
        let deps = dependencies.filter(|g| !g.is_empty())?;
        if findings.len() < 4 {
            return None;
        }
        let mut holes = findings.iter().filter(|f| f.onset().is_none());
        let hole = holes.next()?.id;
        if holes.next().is_some() {
            return None; // more than one silent component: a real quiet zone
        }
        let abnormal: Vec<&ComponentFinding> =
            findings.iter().filter(|f| f.onset().is_some()).collect();
        // The wave must look exactly like the external-factor signature:
        // one consistent trend everywhere, onsets within the same window
        // the base rule uses (4x the concurrency threshold).
        let first_trend = abnormal.first().and_then(|f| f.trend())?;
        if !abnormal.iter().all(|f| f.trend() == Some(first_trend)) {
            return None;
        }
        let onsets: Vec<Tick> = abnormal.iter().filter_map(|f| f.onset()).collect();
        let spread = onsets.iter().max()? - onsets.iter().min()?;
        if spread > 4 * self.concurrency_threshold {
            return None;
        }
        // The hole must be silent in the *raw* findings too. A stalled
        // component flatlines; one whose raw changes follow the wave's own
        // trend is a weak wave member the confidence floor demoted — that
        // is the external-factor shape, not a starved interior hole.
        let raw_hole_trend = raw
            .iter()
            .find(|f| f.id == hole)
            .and_then(|f| f.onset().is_some().then(|| f.trend()).flatten());
        if raw_hole_trend == Some(first_trend) {
            return None;
        }
        // Interior check: a frontend (no dependencies) or a sink (no
        // dependents) cannot both starve downstream and back-pressure
        // upstream, so a silent one stays exonerated.
        let interior =
            !deps.dependents_of(hole).is_empty() && !deps.dependencies_of(hole).is_empty();
        interior.then_some(hole)
    }

    /// The source-quorum correction: with multiple mutually-independent
    /// flow *sources* confidently abnormal and every other abnormal
    /// component downstream of one of them, blame the sources — whatever
    /// the onset order says. Slow-manifesting faults surface downstream
    /// first (a starved sink backs up before the hog's own counters move
    /// past the noise floor), so the base earliest-onset chain routinely
    /// crowns an infected sink; structure breaks the tie. A source here
    /// is a component nothing sends requests to (no possible upstream
    /// explanation) that participates in the graph.
    fn source_quorum(
        &self,
        confident: &[ComponentFinding],
        input: &EnsembleInput<'_>,
    ) -> Option<Vec<ComponentId>> {
        let deps = input.dependencies.filter(|g| !g.is_empty())?;
        let abnormal: Vec<ComponentId> = confident
            .iter()
            .filter(|f| f.onset().is_some())
            .map(|f| f.id)
            .collect();
        let sources: Vec<ComponentId> = abnormal
            .iter()
            .copied()
            .filter(|&c| deps.dependents_of(c).is_empty() && !deps.dependencies_of(c).is_empty())
            .collect();
        if sources.len() < 2 {
            return None;
        }
        for &c in &abnormal {
            if sources.contains(&c) {
                continue;
            }
            if !sources.iter().any(|&s| deps.has_directed_path(s, c)) {
                return None; // an unexplained abnormal: not the concurrent-source shape
            }
        }
        let mut picked = sources;
        self.promote_weak_siblings(input, confident, &mut picked);
        picked.sort();
        picked.dedup();
        Some(picked)
    }

    /// Weak-sibling promotion: a component whose every change fell below
    /// the confidence floor, but whose raw onset lands inside the
    /// widening window of the picked culprits' raw onsets and which is
    /// dependency-independent (no directed path either way) of all of
    /// them, is a concurrent sibling fault with a weak signature — e.g.
    /// one of three simultaneous hogs whose own counters barely moved.
    /// Propagation cannot explain it (no path), and the onset alignment
    /// rules out unrelated noise.
    fn promote_weak_siblings(
        &self,
        input: &EnsembleInput<'_>,
        confident: &[ComponentFinding],
        picked: &mut Vec<ComponentId>,
    ) {
        let Some(deps) = input.dependencies.filter(|g| !g.is_empty()) else {
            return;
        };
        let raw_onset = |id: ComponentId| {
            input
                .findings
                .iter()
                .find(|f| f.id == id)
                .and_then(|f| f.onset())
        };
        let Some(anchor) = picked.iter().filter_map(|&c| raw_onset(c)).min() else {
            return;
        };
        for f in input.findings {
            let Some(onset) = f.onset() else {
                continue;
            };
            if picked.contains(&f.id) {
                continue;
            }
            let confidently_abnormal = confident
                .iter()
                .find(|g| g.id == f.id)
                .is_some_and(|g| g.onset().is_some());
            if confidently_abnormal {
                continue; // confident components go through the chain rules
            }
            if onset.abs_diff(anchor) > 4 * self.concurrency_threshold {
                continue;
            }
            let entangled = picked
                .iter()
                .any(|&p| deps.has_directed_path(p, f.id) || deps.has_directed_path(f.id, p));
            if !entangled {
                picked.push(f.id);
            }
        }
    }

    /// The sub-floor wave, checked only when *no* change anywhere in the
    /// app clears the confidence floor: a quorum of components abnormal
    /// with one uniform trend. An internal fault propagates outward from a
    /// source whose own deviation is strong — at least the culprit's
    /// change rises well above its model. A wave with no confident member
    /// at all is load-shaped: a drifting workload lifts every component a
    /// little, and because the drift ramps rather than steps, its onsets
    /// can spread over tens of ticks — which is why, unlike the base
    /// rule, this check does not bound the onset spread.
    fn sub_floor_wave(&self, input: &EnsembleInput<'_>) -> Option<fchain_detect::Trend> {
        // Half the quorum the confident-evidence rule needs: with *no*
        // change anywhere clearing the floor, the internal-fault prior is
        // already weak, and demanding the full quorum would let a shift
        // that only registers on the busiest half of the app slip through.
        let quorum = (0.5 * self.external_quorum * input.findings.len() as f64).ceil() as usize;
        let abnormal: Vec<&ComponentFinding> = input
            .findings
            .iter()
            .filter(|f| f.onset().is_some())
            .collect();
        if input.findings.len() < 2 || abnormal.len() < quorum.max(2) {
            return None;
        }
        let first = abnormal.first().and_then(|f| f.trend())?;
        abnormal
            .iter()
            .all(|f| f.trend() == Some(first))
            .then_some(first)
    }

    /// Runs the full ensemble stage: confidence filtering, stale-loner
    /// dropping, the silent-hole and source-quorum structural
    /// corrections, the external-factor checks, then the base onset-chain
    /// pinpointer over the confident evidence plus weak-sibling
    /// promotion.
    fn pinpoint(&self, input: &EnsembleInput<'_>) -> (Verdict, Vec<ComponentId>) {
        let mut confident = self.confident_findings(input);
        self.drop_stale_loners(&mut confident);

        if let Some(hole) = self.silent_hole(&confident, input.findings, input.dependencies) {
            return (Verdict::Faulty, vec![hole]);
        }

        if let Some(picked) = self.source_quorum(&confident, input) {
            return (Verdict::Faulty, picked);
        }

        // The external-factor inference (paper §II.C rule 3) must see the
        // *raw* findings: a mild workload shift lifts every component only
        // slightly above its model, so the confidence floor — a culprit-
        // ranking device — eats exactly the quorum members whose uniform
        // wave identifies the shift, leaving two or three stragglers the
        // chain rule then blames. Checked only after the structural
        // corrections above: a silent interior hole or a confident
        // multi-source quorum is positive evidence of an internal fault
        // that the surge signature cannot override.
        let raw = self.base(input.findings, input.dependencies);
        if matches!(raw.0, Verdict::ExternalFactor(_)) {
            return raw;
        }

        // No change anywhere clears the confidence floor (stale-loner
        // dropping cannot empty the set: it needs four confident
        // components and leaves three). A uniform sub-floor wave is load;
        // anything else means the floor is wrong for this workload, not
        // the evidence, so the base answer on the raw findings stands
        // instead of reporting health.
        if confident.iter().all(|f| f.onset().is_none()) {
            return match self.sub_floor_wave(input) {
                Some(trend) => (Verdict::ExternalFactor(trend), Vec::new()),
                None => raw,
            };
        }

        // The base pinpointer's dependency refinement (rule 4) already
        // pinpoints every confident component with no directed path, in
        // either direction, to an earlier confident one.
        let (verdict, mut picked) = self.base(&confident, input.dependencies);
        if verdict != Verdict::Faulty {
            return (verdict, picked);
        }
        self.promote_weak_siblings(input, &confident, &mut picked);
        picked.sort();
        picked.dedup();
        (verdict, picked)
    }
}

/// Runs the ensemble stage with the thresholds of `config`. Callers gate
/// on [`crate::EnsembleConfig::enabled`] themselves so the disabled path
/// never constructs anything.
pub fn ensemble_pinpoint(
    config: &FChainConfig,
    input: &EnsembleInput<'_>,
) -> (Verdict, Vec<ComponentId>) {
    EnsembleScorer::new(config).pinpoint(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_detect::Trend;
    use fchain_metrics::MetricKind;

    fn change(onset: Tick, error: f64, trend: Trend) -> AbnormalChange {
        AbnormalChange {
            metric: MetricKind::Cpu,
            change_at: onset + 2,
            onset,
            prediction_error: error,
            expected_error: 1.0,
            direction: trend,
        }
    }

    fn finding(id: u32, changes: Vec<AbnormalChange>) -> ComponentFinding {
        ComponentFinding {
            id: ComponentId(id),
            changes,
        }
    }

    fn enabled_config() -> FChainConfig {
        let mut config = FChainConfig::default();
        config.ensemble.enabled = true;
        config
    }

    #[test]
    fn confidence_filters_noise_onset_theft() {
        // A healthy sibling's borderline change (ratio 1.2) lands earlier
        // than the true fault (ratio 4.0). The base chain blames the
        // sibling; the ensemble filters the weak vote out.
        let findings = vec![
            finding(0, vec![change(195, 1.2, Trend::Up)]),
            finding(1, vec![change(200, 4.0, Trend::Up)]),
            finding(2, vec![]),
            finding(3, vec![]),
        ];
        let base = pinpoint(&PinpointInput {
            findings: &findings,
            dependencies: None,
            concurrency_threshold: 2,
            external_quorum: 0.75,
        });
        assert_eq!(base.1, vec![ComponentId(0)], "base blames the noise");
        let (v, p) = ensemble_pinpoint(
            &enabled_config(),
            &EnsembleInput {
                findings: &findings,
                dependencies: None,
                coverage: 1.0,
            },
        );
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(1)], "ensemble blames the fault");
    }

    #[test]
    fn low_coverage_raises_the_effective_floor() {
        let scorer = EnsembleScorer::new(&enabled_config());
        let c = change(200, 2.0, Trend::Up);
        let full = scorer.confidence(&c, 1.0);
        let half = scorer.confidence(&c, 0.5);
        let none = scorer.confidence(&c, 0.0);
        assert_eq!(full, 2.0);
        assert!(half < full && none < half, "{full} {half} {none}");
        assert!(none.is_finite());
    }

    #[test]
    fn all_evidence_filtered_falls_back_to_base() {
        // Every change is weak: rather than reporting NoAnomaly where the
        // base pipeline sees a fault, fall back to the base chain.
        let findings = vec![
            finding(0, vec![change(200, 1.1, Trend::Up)]),
            finding(1, vec![]),
            finding(2, vec![]),
        ];
        let (v, p) = ensemble_pinpoint(
            &enabled_config(),
            &EnsembleInput {
                findings: &findings,
                dependencies: None,
                coverage: 1.0,
            },
        );
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(0)]);
    }

    #[test]
    fn silent_interior_hole_beats_external_factor() {
        // 0 -> 1 -> 2 -> 3 pipeline; component 1 stalls silently while
        // everything around it degrades in one simultaneous wave.
        let mut deps = DependencyGraph::new();
        deps.add_edge(ComponentId(0), ComponentId(1));
        deps.add_edge(ComponentId(1), ComponentId(2));
        deps.add_edge(ComponentId(2), ComponentId(3));
        let findings = vec![
            finding(0, vec![change(200, 3.0, Trend::Up)]),
            finding(1, vec![]),
            finding(2, vec![change(201, 3.0, Trend::Up)]),
            finding(3, vec![change(203, 3.0, Trend::Up)]),
        ];
        let base = pinpoint(&PinpointInput {
            findings: &findings,
            dependencies: Some(&deps),
            concurrency_threshold: 2,
            external_quorum: 0.75,
        });
        assert!(
            matches!(base.0, Verdict::ExternalFactor(_)),
            "base misreads the wave as external: {base:?}"
        );
        let (v, p) = ensemble_pinpoint(
            &enabled_config(),
            &EnsembleInput {
                findings: &findings,
                dependencies: Some(&deps),
                coverage: 1.0,
            },
        );
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(1)]);
    }

    #[test]
    fn silent_frontend_is_not_a_hole() {
        // Same wave, but the silent component is the frontend (no
        // dependencies): it cannot be the origin, keep the base verdict.
        let mut deps = DependencyGraph::new();
        deps.add_edge(ComponentId(0), ComponentId(1));
        deps.add_edge(ComponentId(1), ComponentId(2));
        deps.add_edge(ComponentId(2), ComponentId(3));
        let findings = vec![
            finding(0, vec![]),
            finding(1, vec![change(200, 3.0, Trend::Up)]),
            finding(2, vec![change(201, 3.0, Trend::Up)]),
            finding(3, vec![change(203, 3.0, Trend::Up)]),
        ];
        let (v, _) = ensemble_pinpoint(
            &enabled_config(),
            &EnsembleInput {
                findings: &findings,
                dependencies: Some(&deps),
                coverage: 1.0,
            },
        );
        assert!(matches!(v, Verdict::ExternalFactor(_)), "got {v:?}");
    }

    #[test]
    fn centrality_widening_recovers_jittered_concurrent_source() {
        // Two independent flow sources (0, 1) feed sinks (2, 3, 4) — the
        // concurrent map-task shape. Source 1's detected onset lags by 5
        // ticks and sink 2 manifests *between* the two sources, so the
        // base either-direction rule explains source 1 away through its
        // own downstream (path 1 -> 2) even though nothing upstream of it
        // is abnormal. The source quorum recovers it: both sources are
        // confidently abnormal and explain the abnormal sink.
        let mut deps = DependencyGraph::new();
        for src in [0u32, 1] {
            for dst in [2u32, 3, 4] {
                deps.add_edge(ComponentId(src), ComponentId(dst));
            }
        }
        let findings = vec![
            finding(0, vec![change(200, 3.0, Trend::Up)]),
            finding(1, vec![change(205, 3.0, Trend::Up)]),
            finding(2, vec![change(203, 3.0, Trend::Up)]),
            finding(3, vec![]),
            finding(4, vec![]),
        ];
        let base = pinpoint(&PinpointInput {
            findings: &findings,
            dependencies: Some(&deps),
            concurrency_threshold: 2,
            external_quorum: 0.75,
        });
        assert_eq!(base.1, vec![ComponentId(0)], "base demotes source 1");
        let (v, p) = ensemble_pinpoint(
            &enabled_config(),
            &EnsembleInput {
                findings: &findings,
                dependencies: Some(&deps),
                coverage: 1.0,
            },
        );
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(0), ComponentId(1)]);
    }

    #[test]
    fn widening_never_promotes_a_downstream_component() {
        // 0 -> 1: component 1's onset trails inside the near-concurrent
        // window but it has a confident abnormal upstream — still
        // propagation.
        let mut deps = DependencyGraph::new();
        deps.add_edge(ComponentId(0), ComponentId(1));
        let findings = vec![
            finding(0, vec![change(200, 3.0, Trend::Down)]),
            finding(1, vec![change(205, 3.0, Trend::Up)]),
            finding(2, vec![]),
        ];
        let (_, p) = ensemble_pinpoint(
            &enabled_config(),
            &EnsembleInput {
                findings: &findings,
                dependencies: Some(&deps),
                coverage: 1.0,
            },
        );
        assert_eq!(p, vec![ComponentId(0)]);
    }

    #[test]
    fn zero_coverage_and_junk_errors_stay_nan_free() {
        let findings = vec![
            finding(
                0,
                vec![AbnormalChange {
                    metric: MetricKind::Cpu,
                    change_at: 202,
                    onset: 200,
                    prediction_error: 5.0,
                    expected_error: 0.0, // degenerate denominator
                    direction: Trend::Up,
                }],
            ),
            finding(1, vec![change(201, f64::INFINITY, Trend::Up)]),
            finding(2, vec![]),
        ];
        let scorer = EnsembleScorer::new(&enabled_config());
        for coverage in [0.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            for c in findings.iter().flat_map(|f| &f.changes) {
                let confidence = scorer.confidence(c, coverage);
                assert!(
                    confidence.is_finite(),
                    "NaN leaked at coverage {coverage}: {c:?} -> {confidence}"
                );
            }
            let (v, p) = scorer.pinpoint(&EnsembleInput {
                findings: &findings,
                dependencies: None,
                coverage,
            });
            assert!(matches!(v, Verdict::Faulty | Verdict::NoAnomaly));
            for c in &p {
                assert!(findings.iter().any(|f| f.id == *c));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fchain_detect::Trend;
    use fchain_metrics::MetricKind;
    use proptest::prelude::*;

    fn findings_strategy() -> impl Strategy<Value = Vec<ComponentFinding>> {
        proptest::collection::vec(
            proptest::collection::vec((50u64..300, 0.0f64..8.0, proptest::bool::ANY), 0..3),
            1..8,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, changes)| ComponentFinding {
                    id: ComponentId(i as u32),
                    changes: changes
                        .into_iter()
                        .map(|(onset, error, up)| AbnormalChange {
                            metric: MetricKind::Cpu,
                            change_at: onset + 2,
                            onset,
                            prediction_error: error,
                            expected_error: 1.0,
                            direction: if up { Trend::Up } else { Trend::Down },
                        })
                        .collect(),
                })
                .collect()
        })
    }

    fn deps_strategy() -> impl Strategy<Value = DependencyGraph> {
        proptest::collection::vec((0u32..8, 0u32..8), 0..10).prop_map(|edges| {
            let mut g = DependencyGraph::new();
            for (a, b) in edges {
                if a != b {
                    g.add_edge(ComponentId(a), ComponentId(b));
                }
            }
            g
        })
    }

    proptest! {
        /// Ensemble pinpointing is a pure function of the finding *set*:
        /// shuffling the input order changes nothing.
        #[test]
        fn ensemble_is_deterministic_under_permutation(
            findings in findings_strategy(),
            deps in deps_strategy(),
            seed in 0u64..u64::MAX,
        ) {
            let config = {
                let mut c = FChainConfig::default();
                c.ensemble.enabled = true;
                c
            };
            let scorer = EnsembleScorer::new(&config);
            let mut shuffled = findings.clone();
            // Seeded Fisher-Yates via splitmix64 so the shuffle itself is
            // reproducible under proptest's shrinking.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let a = scorer.pinpoint(&EnsembleInput {
                findings: &findings, dependencies: Some(&deps), coverage: 1.0,
            });
            let b = scorer.pinpoint(&EnsembleInput {
                findings: &shuffled, dependencies: Some(&deps), coverage: 1.0,
            });
            prop_assert_eq!(a, b, "pinpoint depends on finding order");
        }

        /// Zero (or garbage) coverage never produces NaN confidences, and the
        /// pinpointed set only ever contains abnormal components — except
        /// the silent-hole correction, which by design blames a single
        /// silent component — sorted and deduplicated: the base
        /// invariants survive the ensemble.
        #[test]
        fn ensemble_is_nan_free_under_zero_coverage(
            findings in findings_strategy(),
            deps in deps_strategy(),
            coverage in (0u8..5, -1.0f64..2.0).prop_map(|(which, v)| match which {
                0 => 0.0,
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => v,
            }),
        ) {
            let config = {
                let mut c = FChainConfig::default();
                c.ensemble.enabled = true;
                c
            };
            let scorer = EnsembleScorer::new(&config);
            let input = EnsembleInput {
                findings: &findings, dependencies: Some(&deps), coverage,
            };
            for c in findings.iter().flat_map(|f| &f.changes) {
                let confidence = scorer.confidence(c, coverage);
                prop_assert!(confidence.is_finite(), "confidence NaN/inf: {c:?}");
            }
            let (verdict, picked) = scorer.pinpoint(&input);
            let abnormal: Vec<ComponentId> = findings
                .iter()
                .filter(|f| f.onset().is_some())
                .map(|f| f.id)
                .collect();
            let known: Vec<ComponentId> = findings.iter().map(|f| f.id).collect();
            let silent_hole_pick = picked.len() == 1 && !abnormal.contains(&picked[0]);
            for c in &picked {
                prop_assert!(known.contains(c), "blamed an unknown component");
                prop_assert!(
                    abnormal.contains(c) || silent_hole_pick,
                    "blamed a normal component outside the silent-hole shape"
                );
            }
            let mut sorted = picked.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(&sorted, &picked, "output not sorted/deduped");
            if verdict != Verdict::Faulty {
                prop_assert!(picked.is_empty());
            }
        }
    }
}
