//! Integrated faulty component pinpointing (paper §II.C).

use crate::config::FChainConfig;
use crate::master::ensemble::{ensemble_pinpoint, EnsembleInput};
use crate::report::{ComponentFinding, Verdict};
use fchain_deps::DependencyGraph;
use fchain_metrics::{ComponentId, Tick};

/// Input to the integrated pinpointing step.
#[derive(Debug)]
pub struct PinpointInput<'a> {
    /// Per-component slave findings (normal components have no changes).
    pub findings: &'a [ComponentFinding],
    /// Inter-component dependency graph, if discovery produced one. An
    /// empty graph counts as "no information" (the System S outcome).
    pub dependencies: Option<&'a DependencyGraph>,
    /// Onset-time difference under which two faults are concurrent.
    pub concurrency_threshold: u64,
    /// Fraction of components that must be abnormal for the external-
    /// factor inference (1.0 = the paper's "all components" rule).
    pub external_quorum: f64,
}

/// Pinpoints the faulty component(s) from the abnormal change propagation
/// pattern and the dependency information. The algorithm of §II.C:
///
/// 1. Sort abnormal components into a chain by their abnormal-change onset
///    time; the source of the chain is faulty.
/// 2. Components whose onset is within the concurrency threshold of the
///    earliest pinpointed onset are concurrent faults — pinpoint them too.
/// 3. If *every* component is abnormal with the same trend, blame an
///    external factor (workload change / shared-infrastructure problem)
///    and pinpoint nothing.
/// 4. For each remaining abnormal component, check the dependency graph:
///    if no dependency path links it with any component that manifested
///    earlier, anomaly propagation cannot explain it — it is an
///    independent fault, so pinpoint it as well. (A path counts in either
///    single direction: downstream with the requests, or upstream through
///    back-pressure.)
///
/// # Examples
///
/// ```
/// use fchain_core::{pinpoint, ComponentFinding, PinpointInput, Verdict};
/// use fchain_core::AbnormalChange;
/// use fchain_detect::Trend;
/// use fchain_metrics::{ComponentId, MetricKind};
///
/// let change = |onset| AbnormalChange {
///     metric: MetricKind::Cpu, change_at: onset, onset,
///     prediction_error: 10.0, expected_error: 1.0, direction: Trend::Up,
/// };
/// let findings = vec![
///     ComponentFinding { id: ComponentId(0), changes: vec![change(210)] },
///     ComponentFinding { id: ComponentId(1), changes: vec![change(200)] },
///     ComponentFinding { id: ComponentId(2), changes: vec![] },
/// ];
/// let (verdict, culprits) = pinpoint(&PinpointInput {
///     findings: &findings,
///     dependencies: None,
///     concurrency_threshold: 2,
///     external_quorum: 1.0,
/// });
/// assert_eq!(verdict, Verdict::Faulty);
/// assert_eq!(culprits, vec![ComponentId(1)]);
/// ```
pub fn pinpoint(input: &PinpointInput<'_>) -> (Verdict, Vec<ComponentId>) {
    // Abnormal components sorted into the propagation chain.
    let mut chain: Vec<(ComponentId, Tick)> = input
        .findings
        .iter()
        .filter_map(|f| f.onset().map(|o| (f.id, o)))
        .collect();
    chain.sort_by_key(|&(c, o)| (o, c));

    if chain.is_empty() {
        return (Verdict::NoAnomaly, Vec::new());
    }

    // External factor: every component abnormal, every component's changes
    // consistently following one and the same trend (a mixed-trend
    // component — CPU up, throughput down — rules the inference out), and
    // the onsets nearly simultaneous. A workload change or a shared-
    // infrastructure problem hits all components within seconds, while a
    // propagating fault spreads its onsets over tens of seconds.
    let quorum = (input.external_quorum * input.findings.len() as f64).ceil() as usize;
    if chain.len() >= quorum.max(2) && input.findings.len() > 1 {
        let spread = chain.last().expect("non-empty").1 - chain[0].1;
        let trends: Vec<_> = input
            .findings
            .iter()
            .filter(|f| f.onset().is_some())
            .map(|f| f.trend())
            .collect();
        if let Some(Some(first)) = trends.first() {
            if spread <= 4 * input.concurrency_threshold
                && trends.iter().all(|t| t.as_ref() == Some(first))
            {
                return (Verdict::ExternalFactor(*first), Vec::new());
            }
        }
    }

    // Source of the chain, plus concurrent onsets.
    let t0 = chain[0].1;
    let mut pinpointed: Vec<ComponentId> = chain
        .iter()
        .filter(|&&(_, o)| o - t0 <= input.concurrency_threshold)
        .map(|&(c, _)| c)
        .collect();

    // Dependency refinement: an abnormal component whose anomaly cannot
    // have propagated from any component that manifested *earlier* must
    // carry an independent fault. Propagation is plausible only along a
    // dependency chain — downstream from the earlier component (directed
    // path e -> c) or by back-pressure against one (directed path
    // c -> e). Siblings that merely share a dependency (two application
    // servers both calling the database, two map nodes both feeding the
    // reducers) have neither path — Fig. 5's spurious-propagation case.
    if let Some(deps) = input.dependencies {
        if !deps.is_empty() {
            for (i, &(c, onset)) in chain.iter().enumerate() {
                if pinpointed.contains(&c) {
                    continue;
                }
                let explainable = chain[..i].iter().any(|&(e, e_onset)| {
                    e_onset < onset
                        && (deps.has_directed_path(e, c) || deps.has_directed_path(c, e))
                });
                if !explainable {
                    pinpointed.push(c);
                }
            }
        }
    }

    pinpointed.sort();
    (Verdict::Faulty, pinpointed)
}

/// Integrated pinpointing over collected findings: the ensemble stage
/// when it is enabled, otherwise the paper's §II.C rules. `coverage` is
/// the fraction of monitored components the findings observed
/// ([`crate::DiagnosisCoverage::component_coverage`]); only the ensemble
/// reads it.
pub(crate) fn pinpoint_findings(
    config: &FChainConfig,
    findings: &[ComponentFinding],
    dependencies: Option<&DependencyGraph>,
    coverage: f64,
) -> (Verdict, Vec<ComponentId>) {
    if config.ensemble.enabled {
        ensemble_pinpoint(
            config,
            &EnsembleInput {
                findings,
                dependencies,
                coverage,
            },
        )
    } else {
        pinpoint(&PinpointInput {
            findings,
            dependencies,
            concurrency_threshold: config.concurrency_threshold,
            external_quorum: config.external_quorum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AbnormalChange;
    use fchain_detect::Trend;
    use fchain_metrics::MetricKind;

    fn finding(id: u32, onset: Option<Tick>, trend: Trend) -> ComponentFinding {
        ComponentFinding {
            id: ComponentId(id),
            changes: onset
                .map(|o| {
                    vec![AbnormalChange {
                        metric: MetricKind::Cpu,
                        change_at: o + 3,
                        onset: o,
                        prediction_error: 20.0,
                        expected_error: 2.0,
                        direction: trend,
                    }]
                })
                .unwrap_or_default(),
        }
    }

    fn run(
        findings: &[ComponentFinding],
        deps: Option<&DependencyGraph>,
    ) -> (Verdict, Vec<ComponentId>) {
        pinpoint(&PinpointInput {
            findings,
            dependencies: deps,
            concurrency_threshold: 2,
            external_quorum: 1.0,
        })
    }

    #[test]
    fn earliest_onset_wins() {
        let fs = vec![
            finding(0, Some(210), Trend::Up),
            finding(1, Some(200), Trend::Up),
            finding(2, Some(220), Trend::Down),
            finding(3, None, Trend::Up),
        ];
        let (v, p) = run(&fs, None);
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(1)]);
    }

    #[test]
    fn concurrent_faults_within_threshold() {
        let fs = vec![
            finding(0, Some(200), Trend::Up),
            finding(1, Some(202), Trend::Up), // within 2s -> concurrent
            finding(2, Some(203), Trend::Up), // 3s -> propagation
            finding(3, None, Trend::Up),      // normal (so not "external")
        ];
        let (_, p) = run(&fs, None);
        assert_eq!(p, vec![ComponentId(0), ComponentId(1)]);
    }

    #[test]
    fn no_abnormal_components() {
        let fs = vec![finding(0, None, Trend::Up), finding(1, None, Trend::Up)];
        let (v, p) = run(&fs, None);
        assert_eq!(v, Verdict::NoAnomaly);
        assert!(p.is_empty());
    }

    #[test]
    fn external_factor_same_trend_everywhere() {
        let fs = vec![
            finding(0, Some(200), Trend::Up),
            finding(1, Some(203), Trend::Up),
            finding(2, Some(206), Trend::Up),
        ];
        let (v, p) = run(&fs, None);
        assert_eq!(v, Verdict::ExternalFactor(Trend::Up));
        assert!(p.is_empty());
    }

    #[test]
    fn mixed_trends_are_not_external() {
        let fs = vec![
            finding(0, Some(200), Trend::Up),
            finding(1, Some(203), Trend::Down),
            finding(2, Some(206), Trend::Up),
        ];
        let (v, p) = run(&fs, None);
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(0)]);
    }

    #[test]
    fn slow_spreading_same_trend_is_not_external() {
        // All components abnormal with one trend but onsets spread over
        // 25 s: a propagating fault, not a workload change.
        let fs = vec![
            finding(0, Some(200), Trend::Up),
            finding(1, Some(212), Trend::Up),
            finding(2, Some(225), Trend::Up),
        ];
        let (v, p) = run(&fs, None);
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(0)]);
    }

    #[test]
    fn not_external_when_some_component_is_normal() {
        let fs = vec![
            finding(0, Some(200), Trend::Up),
            finding(1, Some(205), Trend::Up),
            finding(2, None, Trend::Up),
        ];
        let (v, _) = run(&fs, None);
        assert_eq!(v, Verdict::Faulty);
    }

    #[test]
    fn dependency_filter_pinpoints_independent_component() {
        // app1(1) and app2(2) both abnormal; they are connected only via
        // web(0)/db(3). A second application component (10) with a later
        // onset is NOT connected to the pinpointed one: independent fault.
        let mut deps = DependencyGraph::new();
        deps.add_edge(ComponentId(0), ComponentId(1));
        deps.add_edge(ComponentId(0), ComponentId(2));
        deps.add_edge(ComponentId(1), ComponentId(3));
        deps.add_edge(ComponentId(2), ComponentId(3));
        deps.add_edge(ComponentId(10), ComponentId(11));

        let fs = vec![
            finding(0, None, Trend::Up), // web stays normal
            finding(1, Some(200), Trend::Up),
            finding(2, Some(208), Trend::Up), // sibling: independent fault
            finding(3, Some(211), Trend::Up), // depends on app1: plausible
            finding(10, Some(215), Trend::Up), // other app: independent
        ];
        let (_, p) = run(&fs, Some(&deps));
        // app2 (2) shares the db with app1 but has no dependency path to or
        // from it, so its anomaly cannot be propagation — Fig. 5's case.
        assert_eq!(p, vec![ComponentId(1), ComponentId(2), ComponentId(10)]);
    }

    #[test]
    fn empty_dependency_graph_means_no_filtering() {
        // The System S case: discovery found nothing; FChain falls back to
        // pure propagation reasoning.
        let deps = DependencyGraph::new();
        let fs = vec![
            finding(0, Some(200), Trend::Up),
            finding(1, Some(210), Trend::Up),
            finding(2, None, Trend::Up),
        ];
        let (_, p) = run(&fs, Some(&deps));
        assert_eq!(p, vec![ComponentId(0)]);
    }

    #[test]
    fn single_component_app_is_never_external() {
        let fs = vec![finding(0, Some(100), Trend::Up)];
        let (v, p) = run(&fs, None);
        assert_eq!(v, Verdict::Faulty);
        assert_eq!(p, vec![ComponentId(0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::report::AbnormalChange;
    use fchain_detect::Trend;
    use fchain_metrics::MetricKind;
    use proptest::prelude::*;

    fn findings_strategy() -> impl Strategy<Value = Vec<ComponentFinding>> {
        proptest::collection::vec(
            (proptest::option::of(50u64..300), proptest::bool::ANY),
            1..10,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (onset, up))| ComponentFinding {
                    id: ComponentId(i as u32),
                    changes: onset
                        .map(|o| {
                            vec![AbnormalChange {
                                metric: MetricKind::Cpu,
                                change_at: o + 2,
                                onset: o,
                                prediction_error: 9.0,
                                expected_error: 1.0,
                                direction: if up { Trend::Up } else { Trend::Down },
                            }]
                        })
                        .unwrap_or_default(),
                })
                .collect()
        })
    }

    /// A dependency graph with at least one edge over components 0..10.
    fn deps_strategy() -> impl Strategy<Value = DependencyGraph> {
        proptest::collection::vec((0u32..10, 1u32..10), 1..14).prop_map(|edges| {
            let mut g = DependencyGraph::new();
            for (a, step) in edges {
                g.add_edge(ComponentId(a), ComponentId((a + step) % 10));
            }
            g
        })
    }

    proptest! {
        /// Rule 4 is complete: with a dependency graph, a Faulty answer
        /// holds every abnormal component that has no directed path, in
        /// either direction, to an abnormal component with an earlier
        /// onset — concurrency window or not. The ensemble stage relies on
        /// this instead of widening the window itself.
        #[test]
        fn faulty_answer_holds_every_unexplained_component(
            findings in findings_strategy(),
            deps in deps_strategy(),
            concurrency_threshold in 0u64..8,
            full_quorum in proptest::bool::ANY,
        ) {
            let (verdict, picked) = pinpoint(&PinpointInput {
                findings: &findings,
                dependencies: Some(&deps),
                concurrency_threshold,
                external_quorum: if full_quorum { 1.0 } else { 0.75 },
            });
            if verdict != Verdict::Faulty {
                return Ok(());
            }
            let abnormal: Vec<(ComponentId, Tick)> = findings
                .iter()
                .filter_map(|f| f.onset().map(|o| (f.id, o)))
                .collect();
            for &(c, onset) in &abnormal {
                let explained = abnormal.iter().any(|&(e, e_onset)| {
                    e_onset < onset
                        && (deps.has_directed_path(e, c) || deps.has_directed_path(c, e))
                });
                prop_assert!(
                    explained || picked.contains(&c),
                    "unexplained {c:?} (onset {onset}) missing from {picked:?}"
                );
            }
        }

        /// Pinpointing only ever blames abnormal components, reports them
        /// sorted and deduplicated, and — when the verdict is Faulty —
        /// always includes the earliest-onset component.
        #[test]
        fn pinpoint_invariants(findings in findings_strategy()) {
            let (verdict, picked) = pinpoint(&PinpointInput {
                findings: &findings,
                dependencies: None,
                concurrency_threshold: 2,
                external_quorum: 1.0,
            });
            let abnormal: Vec<ComponentId> = findings
                .iter()
                .filter(|f| f.onset().is_some())
                .map(|f| f.id)
                .collect();
            for c in &picked {
                prop_assert!(abnormal.contains(c), "blamed a normal component");
            }
            let mut sorted = picked.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(&sorted, &picked, "output not sorted/deduped");
            if verdict == Verdict::Faulty {
                let earliest = findings
                    .iter()
                    .filter_map(|f| f.onset().map(|o| (o, f.id)))
                    .min();
                prop_assert!(picked.contains(&earliest.expect("abnormal exists").1));
            } else {
                prop_assert!(picked.is_empty());
            }
        }
    }
}
