//! Fault-injection campaigns: N seeded runs of one (application, fault)
//! pair, scored across localization schemes.

use crate::casegen::case_from_run;
use crate::score::Counts;
use fchain_core::{CaseData, Localizer};
use fchain_metrics::{ComponentId, Tick};
use fchain_obs as obs;
use fchain_sim::{AppKind, FaultKind, RunConfig, RunRecord, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One (application, fault) experiment: how many runs, how long, which
/// look-back window the schemes get.
///
/// The paper uses 30–40 one-hour runs per fault (§III.A); the default here
/// is 30 runs of 3600 ticks, overridable via the `FCHAIN_RUNS` and
/// `FCHAIN_DURATION` environment variables so benches can be scaled down.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The application under test.
    pub app: AppKind,
    /// The injected fault.
    pub fault: FaultKind,
    /// Number of seeded runs.
    pub runs: usize,
    /// Base seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run length in ticks.
    pub duration: Tick,
    /// Look-back window handed to the schemes (the paper's `W`; 500 for
    /// the slow-manifesting DiskHog, 100 otherwise).
    pub lookback: u64,
}

/// The result of one scheme over one campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Scheme name.
    pub scheme: String,
    /// Accumulated precision/recall counts.
    pub counts: Counts,
    /// Per-case outcomes for inspection.
    pub outcomes: Vec<CaseOutcome>,
}

/// One diagnosed case: what the scheme said vs. the ground truth.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Run seed (reproduces the case).
    pub seed: u64,
    /// Components the scheme pinpointed.
    pub pinpointed: Vec<ComponentId>,
    /// Ground-truth faulty components.
    pub faulty: Vec<ComponentId>,
}

impl Campaign {
    /// A campaign with the paper's defaults for this fault (30 runs ×
    /// 3600 s, `W = 100` or 500 for DiskHog), honoring the `FCHAIN_RUNS` /
    /// `FCHAIN_DURATION` environment overrides.
    pub fn new(app: AppKind, fault: FaultKind, base_seed: u64) -> Self {
        let runs = std::env::var("FCHAIN_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        let duration = std::env::var("FCHAIN_DURATION")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3600);
        let lookback = if fault.is_slow_manifesting() {
            500
        } else {
            100
        };
        Campaign {
            app,
            fault,
            runs,
            base_seed,
            duration,
            lookback,
        }
    }

    /// Overrides the look-back window (Table I's sensitivity study).
    pub fn with_lookback(mut self, lookback: u64) -> Self {
        self.lookback = lookback;
        self
    }

    /// Simulates run `i` of the campaign.
    pub fn run_record(&self, i: usize) -> RunRecord {
        let cfg = RunConfig::new(self.app, self.fault, self.base_seed + i as u64)
            .with_duration(self.duration);
        Simulator::new(cfg).run()
    }

    /// Evaluates a set of schemes over the campaign, in parallel across
    /// runs. Every scheme sees exactly the same cases.
    pub fn evaluate(&self, schemes: &[&(dyn Localizer + Sync)]) -> Vec<CampaignResult> {
        self.evaluate_with(schemes, |scheme, case, _run| scheme.localize(case))
    }

    /// Like [`Campaign::evaluate`] but the closure controls how a scheme
    /// is applied to a case — used for validated variants that also need
    /// the run's scaling oracle.
    pub fn evaluate_with<F>(
        &self,
        schemes: &[&(dyn Localizer + Sync)],
        apply: F,
    ) -> Vec<CampaignResult>
    where
        F: Fn(&(dyn Localizer + Sync), &CaseData, &RunRecord) -> Vec<ComponentId> + Sync,
    {
        let next = AtomicUsize::new(0);
        let per_scheme: Vec<Mutex<(Counts, Vec<CaseOutcome>)>> = schemes
            .iter()
            .map(|_| Mutex::new((Counts::default(), Vec::new())))
            .collect();

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(self.runs.max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= self.runs {
                        break;
                    }
                    let _run_span = obs::time(obs::Stage::EvalRun);
                    obs::count(obs::Counter::EvalRuns, 1);
                    let run = self.run_record(i);
                    let Some(case) = case_from_run(&run, self.lookback) else {
                        continue; // the SLO never fired; no diagnosis
                    };
                    obs::count(obs::Counter::EvalDiagnoses, 1);
                    // Ground truth is the deduplicated union of every
                    // injected fault's targets (set semantics; overlapping
                    // fault windows never double-count a component).
                    let truth = run.ground_truth();
                    for (s, slot) in schemes.iter().zip(&per_scheme) {
                        let pinpointed = apply(*s, &case, &run);
                        let mut guard = slot.lock().expect("poisoned campaign slot");
                        guard.0.add_case(&pinpointed, &truth);
                        guard.1.push(CaseOutcome {
                            seed: run.seed,
                            pinpointed,
                            faulty: truth.clone(),
                        });
                    }
                });
            }
        });

        schemes
            .iter()
            .zip(per_scheme)
            .map(|(s, slot)| {
                let (counts, mut outcomes) = slot.into_inner().expect("poisoned");
                outcomes.sort_by_key(|o| o.seed);
                CampaignResult {
                    scheme: s.name().to_string(),
                    counts,
                    outcomes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheme that always blames component 3 (the RUBiS db).
    #[derive(Debug)]
    struct AlwaysDb;
    impl Localizer for AlwaysDb {
        fn name(&self) -> &str {
            "always-db"
        }
        fn localize(&self, _case: &CaseData) -> Vec<ComponentId> {
            vec![ComponentId(3)]
        }
    }

    /// A scheme that never blames anyone.
    #[derive(Debug)]
    struct Silent;
    impl Localizer for Silent {
        fn name(&self) -> &str {
            "silent"
        }
        fn localize(&self, _case: &CaseData) -> Vec<ComponentId> {
            Vec::new()
        }
    }

    #[test]
    fn campaign_scores_schemes_on_identical_cases() {
        let campaign = Campaign {
            app: AppKind::Rubis,
            fault: FaultKind::CpuHog, // always injected at the db
            runs: 4,
            base_seed: 100,
            duration: 1200,
            lookback: 100,
        };
        let results = campaign.evaluate(&[&AlwaysDb, &Silent]);
        assert_eq!(results.len(), 2);
        let db = &results[0];
        assert_eq!(db.scheme, "always-db");
        assert_eq!(db.counts.precision(), 1.0);
        assert_eq!(db.counts.recall(), 1.0);
        assert_eq!(db.outcomes.len(), 4);
        let silent = &results[1];
        assert_eq!(silent.counts.recall(), 0.0);
        assert_eq!(silent.counts.precision(), 1.0); // vacuous
                                                    // Same cases for both schemes.
        for (a, b) in db.outcomes.iter().zip(&silent.outcomes) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.faulty, b.faulty);
        }
    }

    #[test]
    fn lookback_default_tracks_slow_faults() {
        let fast = Campaign::new(AppKind::Rubis, FaultKind::CpuHog, 0);
        assert_eq!(fast.lookback, 100);
        let slow = Campaign::new(AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 0);
        assert_eq!(slow.lookback, 500);
    }
}
