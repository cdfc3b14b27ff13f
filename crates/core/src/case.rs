//! The diagnosis case: everything a localizer may look at.

use fchain_deps::DependencyGraph;
use fchain_metrics::{ComponentId, MetricKind, Tick, TimeSeries};
use serde::{Deserialize, Serialize};

/// Monitoring history of one component up to the violation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentCase {
    /// The component.
    pub id: ComponentId,
    /// Human-readable name.
    pub name: String,
    /// Full metric history `[0, t_v]`, indexed by [`MetricKind::index`].
    pub metrics: Vec<TimeSeries>,
}

impl ComponentCase {
    /// The history of one metric.
    ///
    /// # Panics
    ///
    /// Panics if the metrics vector was not built with all six kinds.
    pub fn metric(&self, kind: MetricKind) -> &TimeSeries {
        &self.metrics[kind.index()]
    }
}

/// One diagnosis case handed to a fault localizer when an SLO violation is
/// detected at `t_v`: per-component metric histories plus whatever
/// structural knowledge the scheme is allowed to use.
///
/// `known_topology` is the *a-priori* application topology (what NetMedic
/// and the Topology baseline assume); `discovered_deps` is the output of
/// black-box dependency discovery (what FChain and the Dependency baseline
/// use). Either may be absent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseData {
    /// When the SLO violation was detected.
    pub violation_at: Tick,
    /// The look-back window length `W` the master asks the slaves to scan.
    pub lookback: u64,
    /// All application components with their metric histories.
    pub components: Vec<ComponentCase>,
    /// A-priori topology, if the scheme assumes it.
    pub known_topology: Option<DependencyGraph>,
    /// Black-box discovered dependencies, if available (empty graph means
    /// discovery ran and found nothing — the System S case).
    pub discovered_deps: Option<DependencyGraph>,
    /// The component at which the SLO is observed (the web tier for
    /// RUBiS-style request latency, the sink for stream pipelines).
    /// Schemes that rank candidates by their impact on the affected
    /// service (NetMedic) use it as the ranking target.
    pub frontend: Option<ComponentId>,
}

impl CaseData {
    /// First tick of the look-back window `[t_v − W, t_v]`.
    pub fn window_start(&self) -> Tick {
        self.violation_at.saturating_sub(self.lookback)
    }

    /// The dependency graph FChain's pinpointing uses: the discovered
    /// dependencies. The ensemble stage (`ensemble == true`) falls back
    /// to the operator-declared topology when request-trace discovery
    /// found nothing (the System S outcome) — declared structure is
    /// weaker evidence than observed propagation, but the ensemble weighs
    /// it instead of ignoring it.
    pub fn dependency_evidence(&self, ensemble: bool) -> Option<&DependencyGraph> {
        if ensemble {
            self.discovered_deps
                .as_ref()
                .filter(|g| !g.is_empty())
                .or(self.known_topology.as_ref())
        } else {
            self.discovered_deps.as_ref()
        }
    }

    /// The look-back window samples of one metric on one component.
    ///
    /// # Panics
    ///
    /// Panics if the component id is unknown.
    pub fn window(&self, c: ComponentId, kind: MetricKind) -> &[f64] {
        self.component(c)
            .metric(kind)
            .window(self.window_start(), self.violation_at)
    }

    /// The component case for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn component(&self, c: ComponentId) -> &ComponentCase {
        self.components
            .iter()
            .find(|cc| cc.id == c)
            .unwrap_or_else(|| panic!("unknown component {c}"))
    }

    /// Ids of all components.
    pub fn component_ids(&self) -> Vec<ComponentId> {
        self.components.iter().map(|c| c.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> CaseData {
        let metrics = |base: f64| {
            (0..6)
                .map(|k| {
                    TimeSeries::from_samples(0, (0..200).map(|t| base + (t + k) as f64).collect())
                })
                .collect()
        };
        CaseData {
            violation_at: 150,
            lookback: 50,
            components: vec![
                ComponentCase {
                    id: ComponentId(0),
                    name: "a".into(),
                    metrics: metrics(0.0),
                },
                ComponentCase {
                    id: ComponentId(1),
                    name: "b".into(),
                    metrics: metrics(100.0),
                },
            ],
            known_topology: None,
            discovered_deps: None,
            frontend: None,
        }
    }

    #[test]
    fn window_bounds() {
        let c = case();
        assert_eq!(c.window_start(), 100);
        let w = c.window(ComponentId(0), MetricKind::Cpu);
        assert_eq!(w.len(), 51); // inclusive [100, 150]
        assert_eq!(w[0], 100.0);
        assert_eq!(w[50], 150.0);
    }

    #[test]
    fn lookback_larger_than_history_clamps() {
        let mut c = case();
        c.lookback = 10_000;
        assert_eq!(c.window_start(), 0);
        assert_eq!(c.window(ComponentId(1), MetricKind::Cpu).len(), 151);
    }

    #[test]
    fn component_lookup() {
        let c = case();
        assert_eq!(c.component(ComponentId(1)).name, "b");
        assert_eq!(c.component_ids(), vec![ComponentId(0), ComponentId(1)]);
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn unknown_component_panics() {
        let _ = case().component(ComponentId(9));
    }
}
