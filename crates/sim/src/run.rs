//! Run configuration, run output, and the scaling oracle.

use crate::faults::{FaultKind, InjectedFault};
use crate::topology::{AppKind, AppModel};
use fchain_deps::Packet;
use fchain_metrics::{ComponentId, MetricKind, Tick, TimeSeries};
use serde::{Deserialize, Serialize};

/// An additional fault injected alongside the primary one — the raw
/// material of chaos-lab cascade scenarios.
///
/// Extra faults are fully explicit (kind, targets, onset): resolving them
/// consumes no randomness, so a config with an empty `extra_faults` list
/// produces a bit-identical run to one predating the field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtraFault {
    /// The fault scenario to overlay.
    pub kind: FaultKind,
    /// Explicit target components (must be non-empty; a workload surge is
    /// an external factor, not a component fault, and is rejected).
    pub targets: Vec<ComponentId>,
    /// Injection tick.
    pub start: Tick,
}

/// Configuration of one simulated application run.
///
/// Runs are fully deterministic per `(app, fault, seed)`.
///
/// # Examples
///
/// ```
/// use fchain_sim::{AppKind, FaultKind, RunConfig};
///
/// let cfg = RunConfig::new(AppKind::SystemS, FaultKind::Bottleneck, 3)
///     .with_duration(1800)
///     .with_fault_window(0.4, 0.6);
/// assert_eq!(cfg.duration, 1800);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Which benchmark application to run.
    pub app: AppKind,
    /// Which fault to inject.
    pub fault: FaultKind,
    /// Master seed for every random choice in the run.
    pub seed: u64,
    /// Run length in ticks (the paper uses one-hour runs: 3600).
    pub duration: Tick,
    /// The fault start is drawn uniformly from this fraction range of the
    /// run duration.
    pub fault_window: (f64, f64),
    /// Explicit fault targets, overriding canonical resolution.
    pub targets: Option<Vec<ComponentId>>,
    /// Per-component, per-tick probability of a rare transient glitch
    /// (an unseen spike unrelated to the fault).
    pub glitch_rate: f64,
    /// Probability that one scaling observation during online validation
    /// is wrong (observation noise).
    pub validation_error_prob: f64,
    /// Replayed per-tick workload intensities overriding the synthetic
    /// generator (e.g. a normalized series from a real web trace).
    pub workload_replay: Option<Vec<f64>>,
    /// Multi-tenant mode: the paper runs the three benchmarks concurrently
    /// on shared VCL hosts (§III.A); this adds correlated neighbor-tenant
    /// interference bursts shared by co-located components.
    pub multi_tenant: bool,
    /// Explicit primary-fault onset tick, overriding the draw from
    /// [`RunConfig::fault_window`]. The window draw still happens (the RNG
    /// sequence must not depend on this field), its result is just
    /// discarded.
    pub fault_start: Option<Tick>,
    /// Additional concurrent faults overlaid on the primary one
    /// (multi-fault cascades). Empty by default; see [`ExtraFault`].
    pub extra_faults: Vec<ExtraFault>,
}

impl RunConfig {
    /// Creates a run with the paper's defaults (3600 s, fault injected in
    /// the middle half of the run).
    pub fn new(app: AppKind, fault: FaultKind, seed: u64) -> Self {
        RunConfig {
            app,
            fault,
            seed,
            duration: 3600,
            fault_window: (0.35, 0.65),
            targets: None,
            glitch_rate: 1.2e-5,
            validation_error_prob: 0.04,
            workload_replay: None,
            multi_tenant: false,
            fault_start: None,
            extra_faults: Vec::new(),
        }
    }

    /// Overrides the run duration.
    ///
    /// # Panics
    ///
    /// Panics if shorter than 600 ticks (models need calibration headroom).
    pub fn with_duration(mut self, duration: Tick) -> Self {
        assert!(duration >= 600, "runs must be at least 600 ticks");
        self.duration = duration;
        self
    }

    /// Overrides the fault injection window (fractions of the duration).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo <= hi < 1`.
    pub fn with_fault_window(mut self, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi && hi < 1.0, "invalid fault window");
        self.fault_window = (lo, hi);
        self
    }

    /// Overrides the fault targets.
    pub fn with_targets(mut self, targets: Vec<ComponentId>) -> Self {
        self.targets = Some(targets);
        self
    }

    /// Enables multi-tenant neighbor interference.
    pub fn with_multi_tenant(mut self) -> Self {
        self.multi_tenant = true;
        self
    }

    /// Replays recorded workload intensities instead of the synthetic
    /// generator.
    ///
    /// # Panics
    ///
    /// Panics on an empty series.
    pub fn with_workload_replay(mut self, intensities: Vec<f64>) -> Self {
        assert!(
            !intensities.is_empty(),
            "replayed workload must be non-empty"
        );
        self.workload_replay = Some(intensities);
        self
    }

    /// Pins the primary fault onset to an exact tick instead of drawing it
    /// from [`RunConfig::fault_window`].
    ///
    /// # Panics
    ///
    /// Panics if the tick lies outside `(0, duration)`.
    pub fn with_fault_start(mut self, start: Tick) -> Self {
        assert!(
            start > 0 && start < self.duration,
            "fault start must be inside the run"
        );
        self.fault_start = Some(start);
        self
    }

    /// Overlays an additional fault on the run (multi-fault cascade).
    ///
    /// # Panics
    ///
    /// Panics on an empty target list, a [`FaultKind::WorkloadSurge`]
    /// (an external factor, not a component fault), or an onset outside
    /// `(0, duration)`.
    pub fn with_extra_fault(
        mut self,
        kind: FaultKind,
        targets: Vec<ComponentId>,
        start: Tick,
    ) -> Self {
        assert!(!targets.is_empty(), "extra faults must target components");
        assert!(
            kind != FaultKind::WorkloadSurge,
            "a workload surge cannot be an extra fault"
        );
        assert!(
            start > 0 && start < self.duration,
            "extra fault start must be inside the run"
        );
        self.extra_faults.push(ExtraFault {
            kind,
            targets,
            start,
        });
        self
    }
}

/// Ground-truth oracle for online pinpointing validation.
///
/// FChain validates a pinpointed component by scaling the fault-related
/// resource and watching the SLO (§II.A). On a real testbed the scaling is
/// performed live; in the simulator this oracle answers "would scaling
/// resource `m` on component `c` improve the SLO?" — true exactly when `c`
/// is truly faulty and `m` matches the fault's primary resource, with a
/// small deterministic observation-noise probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingOracle {
    targets: Vec<ComponentId>,
    primary: MetricKind,
    seed: u64,
    error_prob: f64,
}

impl ScalingOracle {
    /// Creates the oracle for a run.
    pub fn new(fault: &InjectedFault, seed: u64, error_prob: f64) -> Self {
        ScalingOracle {
            targets: fault.targets.clone(),
            primary: fault.kind.primary_metric(),
            seed,
            error_prob,
        }
    }

    /// Whether scaling `metric` on `component` improves the SLO.
    ///
    /// Deterministic per `(run seed, component, metric)`.
    pub fn scale_improves(&self, component: ComponentId, metric: MetricKind) -> bool {
        let truth = self.targets.contains(&component) && metric == self.primary;
        // Deterministic "noise": a splitmix-style hash of the query.
        let mut h = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(component.0) << 8)
            .wrapping_add(metric.index() as u64);
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let flip = (h as f64 / u64::MAX as f64) < self.error_prob;
        truth ^ flip
    }

    /// How long one component's validation takes on the testbed (the paper
    /// reports ~30 s per component, Table II).
    pub fn observation_cost_secs(&self) -> u64 {
        30
    }
}

/// Everything a run produced: the monitoring data FChain and the baselines
/// consume, plus ground truth for scoring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// The application model the run used.
    pub model: AppModel,
    /// Per-component metric series covering the full run;
    /// `series[c][MetricKind::index()]`.
    pub series: Vec<Vec<TimeSeries>>,
    /// The SLO signal (latency in ms, or progress rate).
    pub slo: TimeSeries,
    /// First tick the SLO was declared violated (`t_v`), if any.
    pub violation_at: Option<Tick>,
    /// The injected fault (ground truth).
    pub fault: InjectedFault,
    /// Additional faults overlaid on the primary one (empty outside chaos
    /// cascade scenarios), in injection order.
    pub extra_faults: Vec<InjectedFault>,
    /// Network packets observed before the violation (dependency
    /// discovery input).
    pub packets: Vec<Packet>,
    /// Scaling oracle for online validation.
    pub oracle: ScalingOracle,
    /// The run seed (for reproducing).
    pub seed: u64,
}

impl RunRecord {
    /// The series of one metric on one component.
    ///
    /// # Panics
    ///
    /// Panics if the component id is out of range.
    pub fn metric(&self, c: ComponentId, kind: MetricKind) -> &TimeSeries {
        &self.series[c.index()][kind.index()]
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.series.len()
    }

    /// The full ground-truth faulty set: the union of every injected
    /// fault's targets, sorted and deduplicated. **Set semantics** — a
    /// component targeted by two overlapping faults counts once, matching
    /// how `fchain_eval` scores pinpointing (a localizer can only name a
    /// component once).
    pub fn ground_truth(&self) -> Vec<ComponentId> {
        self.faults_active_at(Tick::MAX)
    }

    /// The ground truth *visible at* tick `t`: targets of faults whose
    /// onset is `<= t`, sorted and deduplicated. A fault that has not yet
    /// started by the diagnosis trigger is not localizable evidence, so
    /// chaos scenarios score against this set at the violation tick.
    pub fn faults_active_at(&self, t: Tick) -> Vec<ComponentId> {
        let mut all: Vec<ComponentId> = std::iter::once(&self.fault)
            .chain(self.extra_faults.iter())
            .filter(|f| f.start <= t)
            .flat_map(|f| f.targets.iter().copied())
            .collect();
        all.sort_unstable_by_key(|c| c.0);
        all.dedup();
        all
    }

    /// The earliest fault onset across the primary and extra faults —
    /// the boundary of the "normal period" (dependency discovery input).
    pub fn first_onset(&self) -> Tick {
        self.extra_faults
            .iter()
            .map(|f| f.start)
            .fold(self.fault.start, Tick::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault() -> InjectedFault {
        InjectedFault {
            kind: FaultKind::CpuHog,
            targets: vec![ComponentId(3)],
            start: 1000,
        }
    }

    #[test]
    fn oracle_matches_ground_truth_without_noise() {
        let oracle = ScalingOracle::new(&fault(), 9, 0.0);
        assert!(oracle.scale_improves(ComponentId(3), MetricKind::Cpu));
        assert!(!oracle.scale_improves(ComponentId(3), MetricKind::Memory));
        assert!(!oracle.scale_improves(ComponentId(0), MetricKind::Cpu));
        assert_eq!(oracle.observation_cost_secs(), 30);
    }

    #[test]
    fn oracle_is_deterministic() {
        let a = ScalingOracle::new(&fault(), 9, 0.3);
        let b = ScalingOracle::new(&fault(), 9, 0.3);
        for c in 0..5u32 {
            for m in MetricKind::ALL {
                assert_eq!(
                    a.scale_improves(ComponentId(c), m),
                    b.scale_improves(ComponentId(c), m)
                );
            }
        }
    }

    #[test]
    fn oracle_noise_rate_is_plausible() {
        // With error_prob = 0.25, roughly a quarter of queries flip.
        let oracle = ScalingOracle::new(&fault(), 1234, 0.25);
        let mut flips = 0;
        let mut total = 0;
        for c in 0..50u32 {
            for m in MetricKind::ALL {
                let truth = c == 3 && m == MetricKind::Cpu;
                if oracle.scale_improves(ComponentId(c), m) != truth {
                    flips += 1;
                }
                total += 1;
            }
        }
        let rate = flips as f64 / total as f64;
        assert!((0.12..0.38).contains(&rate), "flip rate {rate}");
    }

    #[test]
    fn config_builders_validate() {
        let cfg = RunConfig::new(AppKind::Rubis, FaultKind::MemLeak, 1);
        assert_eq!(cfg.duration, 3600);
        let cfg = cfg.with_duration(700).with_fault_window(0.2, 0.8);
        assert_eq!(cfg.duration, 700);
        assert_eq!(cfg.fault_window, (0.2, 0.8));
    }

    #[test]
    #[should_panic(expected = "600")]
    fn too_short_duration_panics() {
        let _ = RunConfig::new(AppKind::Rubis, FaultKind::MemLeak, 1).with_duration(10);
    }

    #[test]
    #[should_panic(expected = "fault window")]
    fn bad_fault_window_panics() {
        let _ = RunConfig::new(AppKind::Rubis, FaultKind::MemLeak, 1).with_fault_window(0.9, 0.1);
    }
}
