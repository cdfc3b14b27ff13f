//! The campaign driver: execute plans, score families, emit readiness.

use crate::scenario::{plan_scenario, Family, PartitionMode, ScenarioPlan};
use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{
    FChain, FChainConfig, FaultySlave, FleetMaster, FleetViolation, SlaveEndpoint, SlaveFault,
    TenantSlave,
};
use fchain_eval::{case_from_run, Counts};
use fchain_metrics::{AppId, ComponentId, Tick};
use fchain_obs as obs;
use fchain_sim::{RunConfig, RunRecord, Simulator};
use serde_json::json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// How long a fault must have been active before the scorer *requires*
/// the pipeline to localize it. Fast faults (CPU, network, disk hogs)
/// trip their own SLO within ~30 ticks of onset, so a fault younger than
/// that at someone else's violation may not have manifested an abnormal
/// change yet — it is scored as gray (neither credited nor punished).
pub const MANIFEST_GRACE: u64 = 30;

/// One diagnosed violation inside a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationOutcome {
    /// Tenant index within the scenario plan.
    pub tenant: usize,
    /// Registered tenant name, e.g. `rubis-0`.
    pub name: String,
    /// The violation tick this report answered.
    pub violation_at: Tick,
    /// What the fleet drain pinpointed.
    pub pinpointed: Vec<ComponentId>,
    /// Ground truth required at the violation tick: targets of faults
    /// active for at least [`MANIFEST_GRACE`] ticks, plus the primary
    /// fault once active (set semantics). Younger non-primary faults are
    /// gray — neither required nor punished.
    pub truth: Vec<ComponentId>,
    /// What the solo single-app pipeline pinpointed for the first
    /// violation (empty for flap repeats; the solo path answers once).
    pub solo_pinpointed: Vec<ComponentId>,
}

/// One executed scenario, scored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Scenario index within the campaign.
    pub index: usize,
    /// The scenario seed (replay handle together with the campaign seed).
    pub seed: u64,
    /// The scenario family.
    pub family: Family,
    /// Tenants planned in the scenario.
    pub planned_tenants: usize,
    /// Tenants whose SLO fired and were diagnosed.
    pub engaged_tenants: usize,
    /// Every diagnosed violation, in drain order.
    pub violations: Vec<ViolationOutcome>,
    /// Accumulated pinpointing score.
    pub counts: Counts,
    /// Total faults the plan injected.
    pub faults: usize,
}

impl ScenarioOutcome {
    /// Whether the scenario counts as a fuzzer hit: a wrong or missed
    /// pinpoint anywhere in the drain.
    pub fn failed(&self) -> bool {
        self.counts.fp > 0 || self.counts.fn_ > 0
    }

    /// Whether every planned tenant engaged (fired its SLO and produced
    /// a report) — the coverage event.
    pub fn engaged(&self) -> bool {
        self.engaged_tenants == self.planned_tenants
    }
}

/// Per-family readiness: the row of `chaos_readiness.json`.
#[derive(Debug, Clone)]
pub struct FamilyReadiness {
    /// The family.
    pub family: Family,
    /// Scenarios executed in the family.
    pub scenarios: usize,
    /// Scenarios where every planned tenant engaged.
    pub engaged: usize,
    /// Accumulated score across the family's scenarios.
    pub counts: Counts,
    /// Indices of failing scenarios (fuzzer hits), ascending.
    pub failing: Vec<usize>,
}

impl FamilyReadiness {
    /// Fraction of the family's scenarios where diagnosis fully engaged.
    pub fn coverage(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.engaged as f64 / self.scenarios as f64
        }
    }

    /// Whether the family misses the readiness floor.
    pub fn weak(&self) -> bool {
        self.counts.precision() < 0.9 || self.counts.recall() < 0.9
    }
}

/// The campaign verdict: everything `chaos_readiness.json` serializes.
#[derive(Debug, Clone)]
pub struct ChaosReadiness {
    /// The campaign seed.
    pub seed: u64,
    /// How many scenarios were swept.
    pub scenarios: usize,
    /// Analysis engine the fleet ran.
    pub engine: String,
    /// Per-family rows, in [`Family::ALL`] order.
    pub families: Vec<FamilyReadiness>,
    /// Aggregate score across every scenario.
    pub overall: Counts,
    /// Per-scenario summaries, ascending by index.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ChaosReadiness {
    /// Families below the readiness floor, in [`Family::ALL`] order.
    pub fn weak_families(&self) -> Vec<Family> {
        self.families
            .iter()
            .filter(|f| f.weak())
            .map(|f| f.family)
            .collect()
    }

    /// Renders the machine-readable readiness artifact. Key order and
    /// float formatting are deterministic, so the same campaign always
    /// produces byte-identical JSON.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "report": "chaos_readiness",
            "seed": self.seed,
            "scenarios": self.scenarios,
            "engine": self.engine,
            "overall": {
                "precision": self.overall.precision(),
                "recall": self.overall.recall(),
                "tp": self.overall.tp,
                "fp": self.overall.fp,
                "fn": self.overall.fn_,
            },
            "weak_families": self.weak_families().iter().map(|f| f.name()).collect::<Vec<_>>(),
            "families": self.families.iter().map(|f| json!({
                "family": f.family.name(),
                "scenarios": f.scenarios,
                "engaged": f.engaged,
                "coverage": f.coverage(),
                "precision": f.counts.precision(),
                "recall": f.counts.recall(),
                "tp": f.counts.tp,
                "fp": f.counts.fp,
                "fn": f.counts.fn_,
                "failing": f.failing,
            })).collect::<Vec<_>>(),
            "scenarios_detail": self.outcomes.iter().map(|o| json!({
                "index": o.index,
                "seed": o.seed,
                "family": o.family.name(),
                "tenants": o.planned_tenants,
                "engaged": o.engaged_tenants,
                "faults": o.faults,
                "tp": o.counts.tp,
                "fp": o.counts.fp,
                "fn": o.counts.fn_,
                "failed": o.failed(),
            })).collect::<Vec<_>>(),
        })
    }
}

/// The seeded generative scenario fuzzer.
///
/// One u64 seed fans out into `scenarios` generated compositions over the
/// whole fault space (families cycle, so every sweep covers each axis
/// evenly). Each scenario is reproducible from `(seed, index)` alone —
/// [`ChaosCampaign::run_scenario`] replays one, [`ChaosCampaign::run`]
/// sweeps and aggregates readiness per family.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
    /// The campaign seed.
    pub seed: u64,
    /// How many scenarios to sweep.
    pub scenarios: usize,
    /// Master-side config (engine, ensemble, deadline budget).
    pub config: FChainConfig,
}

impl ChaosCampaign {
    /// A campaign of `scenarios` scenarios on `seed` with defaults.
    pub fn new(seed: u64, scenarios: usize) -> Self {
        ChaosCampaign {
            seed,
            scenarios,
            config: FChainConfig::default(),
        }
    }

    /// Replays a single scenario.
    pub fn run_scenario(&self, index: usize) -> ScenarioOutcome {
        let plan = plan_scenario(self.seed, index);
        execute_plan(&plan, &self.config)
    }

    /// Sweeps every scenario (in parallel) and aggregates readiness.
    pub fn run(&self) -> ChaosReadiness {
        let slots: Vec<Mutex<Option<ScenarioOutcome>>> =
            (0..self.scenarios).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.scenarios.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= self.scenarios {
                        break;
                    }
                    *slots[i].lock().expect("poisoned scenario slot") = Some(self.run_scenario(i));
                });
            }
        });
        let outcomes: Vec<ScenarioOutcome> = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("poisoned scenario slot")
                    .expect("every scenario executed")
            })
            .collect();

        let mut overall = Counts::default();
        let mut families: Vec<FamilyReadiness> = Family::ALL
            .iter()
            .map(|&family| FamilyReadiness {
                family,
                scenarios: 0,
                engaged: 0,
                counts: Counts::default(),
                failing: Vec::new(),
            })
            .collect();
        for outcome in &outcomes {
            overall.merge(outcome.counts);
            let row = families
                .iter_mut()
                .find(|f| f.family == outcome.family)
                .expect("every family has a row");
            row.scenarios += 1;
            if outcome.engaged() {
                row.engaged += 1;
            }
            row.counts.merge(outcome.counts);
            if outcome.failed() {
                row.failing.push(outcome.index);
            }
        }
        families.retain(|f| f.scenarios > 0);

        ChaosReadiness {
            seed: self.seed,
            scenarios: self.scenarios,
            engine: self.config.engine.to_string(),
            families,
            overall,
            outcomes,
        }
    }
}

/// Builds the [`RunConfig`] a tenant plan describes.
fn run_config(plan: &ScenarioPlan, tenant: &crate::scenario::TenantPlan) -> RunConfig {
    let mut cfg = RunConfig::new(tenant.app, tenant.primary.kind, tenant.seed)
        .with_duration(plan.duration)
        .with_targets(tenant.primary.targets.clone())
        .with_fault_start(tenant.primary.start);
    for extra in &tenant.extras {
        cfg = cfg.with_extra_fault(extra.kind, extra.targets.clone(), extra.start);
    }
    cfg
}

/// Executes one scenario plan against a staged fleet and scores it.
///
/// The executor consumes no randomness: every fault, host and violation
/// comes from the plan, so replay and structural shrinking are exact.
pub fn execute_plan(plan: &ScenarioPlan, config: &FChainConfig) -> ScenarioOutcome {
    let _span = obs::time(obs::Stage::ChaosScenario);
    obs::count(obs::Counter::ChaosScenarios, 1);
    obs::count(obs::Counter::ChaosFaultsInjected, plan.fault_count() as u64);

    // The series must retain the run's entire history: the detector
    // calibrates its normal-behavior model on everything retained before
    // the evidence window, so a store shorter than the run would give the
    // fleet a different (worse-calibrated) model than the solo reference
    // and turn borderline detections into spurious divergences.
    let capacity = SlaveDaemon::capacity_for_horizon(plan.duration);
    let pool: Vec<Arc<SlaveDaemon>> = (0..plan.hosts)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone()).with_capacity(capacity)))
        .collect();
    let mut fleet = FleetMaster::new(config.clone());
    let solo = FChain::new(config.clone());

    let mut violations: Vec<FleetViolation> = Vec::new();
    // (tenant index, name, AppId, the simulated run) per engaged tenant.
    let mut engaged: Vec<(usize, String, AppId, RunRecord)> = Vec::new();
    let mut solo_reports: Vec<Vec<ComponentId>> = Vec::new();

    for (i, tenant) in plan.tenants.iter().enumerate() {
        let run = Simulator::new(run_config(plan, tenant)).run();
        let Some(t_v) = run.violation_at else {
            continue; // the SLO never fired; a coverage miss, not a score
        };
        let Some(mut case) = case_from_run(&run, tenant.lookback) else {
            continue;
        };
        case.lookback = tenant.lookback;
        let name = format!("{}-{i}", tenant.app.name());
        let app = fleet.add_tenant(&name);
        if tenant.lookback != config.lookback {
            fleet.set_tenant_lookback(app, tenant.lookback);
        }

        // The full series is ingested (as a live collector would keep
        // streaming); the analysis anchors each diagnosis at its
        // violation tick by trimming the ring tail, so flap re-asks at
        // `t_v + delta` see exactly the evidence available then.
        let replicas = plan.replicas.clamp(1, plan.hosts);
        for c in 0..run.component_count() {
            // With `replicas > 1` each component's evidence lands on
            // several consecutive hosts — a partitioned host then loses
            // no component outright and the master must fail over to a
            // surviving copy.
            for r in 0..replicas {
                let host = &pool[(i + c + r) % plan.hosts];
                for sample in MetricSample::replay(ComponentId(c as u32), &run.series[c]) {
                    host.ingest_for(app, sample);
                }
            }
        }
        for (h, daemon) in pool.iter().enumerate() {
            let view: Arc<dyn SlaveEndpoint> = Arc::new(TenantSlave::new(Arc::clone(daemon), app));
            let slave: Arc<dyn SlaveEndpoint> = if plan.crashed_hosts.contains(&h) {
                // The partition axis: the plan decides *how* this host
                // misbehaves at diagnosis time — unreachable, answering
                // from a truncated window, or recovering mid-retry.
                let fault = match plan.partition_mode {
                    PartitionMode::Crash => SlaveFault::Crash,
                    PartitionMode::PartialWindow { missing_ticks } => {
                        SlaveFault::PartialWindow { missing_ticks }
                    }
                    PartitionMode::Transient { failures } => SlaveFault::Transient { failures },
                };
                Arc::new(FaultySlave::new(view, fault))
            } else {
                view
            };
            fleet.register_slave(app, slave);
        }
        // Same dependency evidence the solo pipeline uses (and, under the
        // ensemble, the declared topology as a weaker fallback).
        if let Some(deps) = case.dependency_evidence(config.ensemble.enabled) {
            fleet.set_dependencies(app, deps.clone());
        }

        violations.push(FleetViolation {
            app,
            violation_at: t_v,
        });
        for (_, delta) in plan.flaps.iter().filter(|(t, _)| *t == i) {
            violations.push(FleetViolation {
                app,
                violation_at: t_v + delta,
            });
        }
        solo_reports.push(solo.diagnose(&case).pinpointed);
        engaged.push((i, name, app, run));
    }

    let reports = fleet.on_violations(&violations);

    let mut counts = Counts::default();
    let mut outcomes = Vec::with_capacity(reports.len());
    for report in &reports {
        let (tenant, name, _, run, solo_pinpointed) = engaged
            .iter()
            .zip(&solo_reports)
            .find(|((_, _, app, _), _)| *app == report.app)
            .map(|((t, n, a, r), s)| (*t, n.clone(), *a, r, s.clone()))
            .expect("every report belongs to an engaged tenant");
        // Ground truth at this violation, with a manifestation grace: a
        // fault that has not started is not localizable evidence at all,
        // and one that started fewer than MANIFEST_GRACE ticks ago may
        // not have produced an abnormal change yet, so it is *gray* —
        // pinpointing it earns nothing and missing it costs nothing. The
        // primary fault is always required once active: its symptoms are
        // what the tenant's SLO tripped on.
        let active = run.faults_active_at(report.violation_at);
        let mut required = run.faults_active_at(report.violation_at.saturating_sub(MANIFEST_GRACE));
        if run.fault.start <= report.violation_at {
            for c in &run.fault.targets {
                if !required.contains(c) {
                    required.push(*c);
                }
            }
            required.sort_unstable_by_key(|c| c.0);
        }
        let scored: Vec<ComponentId> = report
            .report
            .pinpointed
            .iter()
            .copied()
            .filter(|c| required.contains(c) || !active.contains(c))
            .collect();
        counts.add_case(&scored, &required);
        outcomes.push(ViolationOutcome {
            tenant,
            name,
            violation_at: report.violation_at,
            pinpointed: report.report.pinpointed.clone(),
            truth: required,
            solo_pinpointed,
        });
    }

    let outcome = ScenarioOutcome {
        index: plan.index,
        seed: plan.seed,
        family: plan.family,
        planned_tenants: plan.tenants.len(),
        engaged_tenants: engaged.len(),
        violations: outcomes,
        counts,
        faults: plan.fault_count(),
    };
    if outcome.failed() {
        obs::count(obs::Counter::ChaosFailures, 1);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scenario_replay_is_deterministic() {
        let campaign = ChaosCampaign::new(42, 7);
        let a = campaign.run_scenario(0);
        let b = campaign.run_scenario(0);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.engaged_tenants, b.engaged_tenants);
        assert_eq!(
            a.violations
                .iter()
                .map(|v| &v.pinpointed)
                .collect::<Vec<_>>(),
            b.violations
                .iter()
                .map(|v| &v.pinpointed)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn baseline_scenario_localizes_its_fault() {
        // Index 0 is the control family: a canonical tenant_mix fault the
        // pipeline is known to localize.
        let outcome = ChaosCampaign::new(42, 1).run_scenario(0);
        assert_eq!(outcome.family, Family::Baseline);
        assert!(outcome.engaged(), "the control tenant must violate");
        assert!(outcome.counts.tp > 0, "{outcome:?}");
    }

    #[test]
    fn readiness_covers_every_legacy_family() {
        // The first seven indices sit in the frozen legacy band and cycle
        // the original families exactly once each; the eighth family only
        // enters the rotation above `LEGACY_FAMILY_BAND`.
        let readiness = ChaosCampaign::new(42, 7).run();
        assert_eq!(readiness.families.len(), 7);
        for row in &readiness.families {
            assert_eq!(row.scenarios, 1);
        }
    }

    #[test]
    fn borderline_mix_scenario_engages_and_scores() {
        use crate::scenario::LEGACY_FAMILY_BAND;
        let index = LEGACY_FAMILY_BAND.next_multiple_of(Family::ALL.len()) + 7;
        let outcome = ChaosCampaign::new(42, 1).run_scenario(index);
        assert_eq!(outcome.family, Family::BorderlineFaultMix);
        assert_eq!(outcome.planned_tenants, 2);
        assert!(
            outcome.engaged_tenants > 0,
            "neither borderline tenant tripped its SLO: {outcome:?}"
        );
        // Both profiles are known-weak; what the family guarantees is
        // that every violation is drained and scored, not that the score
        // is perfect — the readiness report tracks the accuracy.
        assert_eq!(outcome.violations.len(), outcome.engaged_tenants);
    }

    #[test]
    fn readiness_json_is_deterministic() {
        let campaign = ChaosCampaign::new(42, Family::ALL.len());
        let a = serde_json::to_string_pretty(&campaign.run().to_json()).unwrap();
        let b = serde_json::to_string_pretty(&campaign.run().to_json()).unwrap();
        assert_eq!(a, b, "same campaign must render byte-identical JSON");
        assert!(a.contains("\"report\": \"chaos_readiness\""));
    }

    #[test]
    fn workload_trap_scores_surge_as_empty_truth() {
        // Family index 5 is the workload-shift trap; the surge tenant's
        // violations must carry an empty ground-truth set.
        let outcome = ChaosCampaign::new(42, 6).run_scenario(5);
        assert_eq!(outcome.family, Family::WorkloadShiftTrap);
        let surge = outcome.violations.iter().find(|v| v.tenant == 0);
        if let Some(v) = surge {
            assert!(v.truth.is_empty(), "a surge has no faulty component");
        }
    }
}
