//! Solo-vs-fleet divergence attribution: the root-causing harness behind
//! the multi-tenant accuracy fix.
//!
//! When the fleet drain's accuracy falls below the single-application
//! campaign's, the first question is *which mechanism* of the fleet path
//! is responsible. This harness answers it per tenant: it diffs the
//! fleet report against the tenant's solo reference — the
//! [`fchain_core::FChain::diagnose`] answer [`FleetCampaign`] staging
//! computes on the exact same case (same seed, engine and effective
//! evidence window, every sample retained as the shared pool retains it,
//! no deadline) — and classifies each divergence:
//!
//! * [`Divergence::Clean`] — fleet equals solo equals ground truth; the
//!   fleet path added nothing and lost nothing.
//! * [`Divergence::HarderCase`] — fleet equals solo but both miss the
//!   truth: the tenant drew a genuinely harder case; the fleet is not at
//!   fault and no fleet-side fix can help.
//! * [`Divergence::EvidenceTruncation`] — fleet differs from solo and
//!   the fleet diagnosis ran on incomplete coverage: the deadline budget
//!   abandoned slaves, truncating the evidence.
//! * [`Divergence::SchedulerDrift`] — fleet differs on complete
//!   coverage, but re-diagnosing the same tenant *on the same contended
//!   fleet* outside the concurrent drain reproduces the solo answer: the
//!   difference came from drain scheduling, not stored evidence.
//! * [`Divergence::PoolInterference`] — fleet differs on complete
//!   coverage and the re-diagnosis still disagrees with solo: the shared
//!   pool's stored evidence itself differs from the solo daemon's.
//!
//! Running this over the seeded mix is what localized the original
//! regression to a missing per-tenant evidence window (slow-manifesting
//! tenants analyzed at the default `W`) plus genuinely-harder draws —
//! not pool interference — and the classes exist as regression tripwires
//! for the mechanisms that were ruled out.

use crate::fleet::FleetCampaign;
use crate::score::Counts;
use fchain_core::FleetViolation;
use fchain_metrics::ComponentId;
use serde_json::json;

/// Why one tenant's fleet report differs (or not) from its solo report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// Fleet == solo == ground truth.
    Clean,
    /// Fleet == solo != truth: a genuinely harder case draw.
    HarderCase,
    /// Fleet != solo with incomplete fleet coverage: the deadline budget
    /// truncated the evidence.
    EvidenceTruncation,
    /// Fleet != solo on complete coverage, but a quiet re-diagnosis on
    /// the same fleet matches solo: drain-scheduling artifact.
    SchedulerDrift,
    /// Fleet != solo on complete coverage and reproducibly so: the
    /// shared pool's evidence differs from a dedicated pool's.
    PoolInterference,
}

impl Divergence {
    /// Every class, in severity order (benign first).
    pub const ALL: [Divergence; 5] = [
        Divergence::Clean,
        Divergence::HarderCase,
        Divergence::EvidenceTruncation,
        Divergence::SchedulerDrift,
        Divergence::PoolInterference,
    ];

    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            Divergence::Clean => "clean",
            Divergence::HarderCase => "harder_case",
            Divergence::EvidenceTruncation => "evidence_truncation",
            Divergence::SchedulerDrift => "scheduler_drift",
            Divergence::PoolInterference => "pool_interference",
        }
    }
}

/// One tenant's solo-vs-fleet diff.
#[derive(Debug, Clone)]
pub struct TenantAttribution {
    /// Tenant index within the drain.
    pub tenant: usize,
    /// Registered tenant name, e.g. `rubis-3`.
    pub name: String,
    /// Scenario family, e.g. `rubis/CpuHog`.
    pub family: String,
    /// Simulation seed.
    pub seed: u64,
    /// Effective evidence window.
    pub lookback: u64,
    /// Ground-truth faulty components.
    pub truth: Vec<ComponentId>,
    /// What the contended fleet drain pinpointed.
    pub fleet_pinpointed: Vec<ComponentId>,
    /// What the solo pipeline ([`fchain_core::FChain::diagnose`]) pinpointed.
    pub solo_pinpointed: Vec<ComponentId>,
    /// The fleet diagnosis' slave coverage (1.0 = every slave answered).
    pub coverage: f64,
    /// The classified divergence.
    pub class: Divergence,
}

/// The full attribution sweep over one campaign.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Per-tenant diffs, in tenant order.
    pub tenants: Vec<TenantAttribution>,
}

impl AttributionReport {
    /// How many tenants fell into `class`.
    pub fn count(&self, class: Divergence) -> usize {
        self.tenants.iter().filter(|t| t.class == class).count()
    }

    /// Accuracy of the fleet drain as seen by this sweep.
    pub fn fleet_counts(&self) -> Counts {
        let mut counts = Counts::default();
        for t in &self.tenants {
            counts.add_case(&t.fleet_pinpointed, &t.truth);
        }
        counts
    }

    /// Human-readable attribution table plus the class summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>3}  {:<24} {:>5} {:>4}  {:<20} {:<14} {:<14} {:>5}\n",
            "#", "family", "seed", "W", "class", "fleet", "solo", "cov"
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "{:>3}  {:<24} {:>5} {:>4}  {:<20} {:<14} {:<14} {:>5.2}\n",
                t.tenant,
                t.family,
                t.seed,
                t.lookback,
                t.class.name(),
                ids(&t.fleet_pinpointed),
                ids(&t.solo_pinpointed),
                t.coverage,
            ));
        }
        out.push('\n');
        for class in Divergence::ALL {
            out.push_str(&format!("{:<20} {}\n", class.name(), self.count(class)));
        }
        let counts = self.fleet_counts();
        out.push_str(&format!(
            "fleet precision {:.3} recall {:.3}\n",
            counts.precision(),
            counts.recall()
        ));
        out
    }

    /// JSON shape for machine consumption.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "bench": "fleet_attribution",
            "summary": Divergence::ALL.iter().map(|c| json!({
                "class": c.name(),
                "tenants": self.count(*c),
            })).collect::<Vec<_>>(),
            "tenants": self.tenants.iter().map(|t| json!({
                "tenant": t.tenant,
                "name": t.name,
                "family": t.family,
                "seed": t.seed,
                "lookback": t.lookback,
                "class": t.class.name(),
                "coverage": t.coverage,
                "truth": t.truth.iter().map(|c| c.0).collect::<Vec<_>>(),
                "fleet": t.fleet_pinpointed.iter().map(|c| c.0).collect::<Vec<_>>(),
                "solo": t.solo_pinpointed.iter().map(|c| c.0).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        })
    }
}

fn ids(components: &[ComponentId]) -> String {
    if components.is_empty() {
        return "-".into();
    }
    components
        .iter()
        .map(|c| c.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Set equality (both sides are small and sorted-or-near-sorted).
fn same_set(a: &[ComponentId], b: &[ComponentId]) -> bool {
    let mut a: Vec<ComponentId> = a.to_vec();
    let mut b: Vec<ComponentId> = b.to_vec();
    a.sort();
    b.sort();
    a == b
}

/// Runs the attribution sweep: stages the campaign's fleet (with every
/// tenant's solo reference), fires the contended drain, and classifies
/// each divergence. This is `fchain fleet --attribute`.
pub fn attribute(campaign: &FleetCampaign) -> AttributionReport {
    let staged = campaign.stage();
    let reports = staged.fleet.on_violations(&staged.violations);

    let mut tenants: Vec<TenantAttribution> = Vec::new();
    for tenant in &staged.tenants {
        let report = reports
            .iter()
            .find(|r| r.app == tenant.outcome.app)
            .expect("every staged tenant gets a report");
        let fleet_pinpointed = report.report.pinpointed.clone();
        let solo_pinpointed = tenant.outcome.solo_pinpointed.clone();
        let coverage = report.report.coverage.coverage;

        let class = if fleet_pinpointed == solo_pinpointed {
            if same_set(&solo_pinpointed, &tenant.outcome.truth) {
                Divergence::Clean
            } else {
                Divergence::HarderCase
            }
        } else if coverage < 1.0 {
            Divergence::EvidenceTruncation
        } else {
            // Complete coverage yet a different answer: ask the same
            // contended fleet again, alone this time. A match with solo
            // means the concurrent drain's scheduling (lane contention,
            // retry timing) shifted the answer; a repeat mismatch means
            // the shared pool's stored evidence itself differs.
            let redo = staged
                .fleet
                .on_violations(&[FleetViolation {
                    app: tenant.outcome.app,
                    violation_at: tenant.case.violation_at,
                }])
                .into_iter()
                .next()
                .expect("re-diagnosis answers");
            if redo.report.pinpointed == solo_pinpointed {
                Divergence::SchedulerDrift
            } else {
                Divergence::PoolInterference
            }
        };

        tenants.push(TenantAttribution {
            tenant: tenant.outcome.tenant,
            name: tenant.outcome.name.clone(),
            family: tenant.outcome.family.clone(),
            seed: tenant.outcome.seed,
            lookback: tenant.outcome.lookback,
            truth: tenant.outcome.truth.clone(),
            fleet_pinpointed,
            solo_pinpointed,
            coverage,
            class,
        });
    }
    AttributionReport { tenants }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_core::FChainConfig;

    fn small_campaign(tenants: usize) -> FleetCampaign {
        FleetCampaign {
            duration: 1500,
            rpc_delay_ms: 0,
            ..FleetCampaign::new(tenants, 4100)
        }
    }

    #[test]
    fn calm_mix_attributes_every_tenant() {
        // No slave deadline at all: on a loaded host the W = 500 tenant's
        // analysis may outlast any fixed budget, and abandoning it then is
        // correct (`starved_deadline_classifies_as_evidence_truncation`
        // covers that). Here the budget never runs out.
        let campaign = FleetCampaign {
            config: FChainConfig {
                slave_deadline_ms: 0,
                ..FChainConfig::default()
            },
            ..small_campaign(3)
        };
        let report = attribute(&campaign);
        assert_eq!(report.tenants.len(), 3);
        for t in &report.tenants {
            // An uncontended drain with generous budgets must never be
            // blamed on the fleet machinery.
            assert!(
                matches!(t.class, Divergence::Clean | Divergence::HarderCase),
                "tenant {} ({}) classified {:?}",
                t.tenant,
                t.family,
                t.class
            );
        }
        let rendered = report.render();
        assert!(rendered.contains("clean"));
        assert!(rendered.contains("fleet precision"));
    }

    #[test]
    fn starved_deadline_classifies_as_evidence_truncation() {
        // A 1 ms budget against 80 ms slave RPCs abandons every slave:
        // the fleet answers on empty evidence while solo pinpoints the
        // culprit — the deadline-truncation signature.
        let campaign = FleetCampaign {
            rpc_delay_ms: 80,
            config: FChainConfig {
                slave_deadline_ms: 1,
                ..FChainConfig::default()
            },
            ..small_campaign(1)
        };
        let report = attribute(&campaign);
        assert_eq!(report.tenants.len(), 1);
        let t = &report.tenants[0];
        assert!(t.coverage < 1.0, "slaves must have been abandoned");
        assert_eq!(t.class, Divergence::EvidenceTruncation);
        assert_ne!(t.fleet_pinpointed, t.solo_pinpointed);
    }

    #[test]
    fn json_shape_names_every_class() {
        let report = attribute(&small_campaign(1));
        let rendered = serde_json::to_string(&report.to_json()).expect("serializable");
        for class in Divergence::ALL {
            assert!(rendered.contains(class.name()), "missing {}", class.name());
        }
        assert!(rendered.contains("fleet_attribution"));
    }
}
