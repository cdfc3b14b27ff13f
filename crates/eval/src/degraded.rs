//! Degraded-mode evaluation: slave-loss sweeps.
//!
//! The paper's testbed keeps every FChain slave healthy; at cloud scale a
//! fraction of them are crashed or partitioned at exactly the moment the
//! SLO violation fires. This module wires seeded simulator runs into
//! per-host [`SlaveDaemon`]s, crashes a seeded subset of the slaves
//! through [`FaultySlave`], and scores how diagnosis precision/recall
//! degrade as the slave-loss rate climbs — the graceful-degradation curve
//! the degraded-mode master is supposed to deliver.

use crate::casegen::case_from_run;
use crate::score::Counts;
use fchain_core::master::Master;
use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{FChainConfig, FaultySlave, SlaveEndpoint, SlaveFaultSchedule};
use fchain_metrics::Tick;
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use serde_json::json;
use std::sync::Arc;

/// One slave-loss sweep over seeded runs of an (application, fault) pair.
#[derive(Debug, Clone)]
pub struct DegradedCampaign {
    /// The application under test.
    pub app: AppKind,
    /// The injected application fault.
    pub fault: FaultKind,
    /// Seeded runs per loss rate.
    pub runs: usize,
    /// Base seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run length in ticks.
    pub duration: Tick,
    /// Look-back window `W`: the daemons and the master run at it,
    /// overriding `config.lookback`.
    pub lookback: u64,
    /// Number of per-host slave daemons the components are spread over
    /// (round-robin).
    pub hosts: usize,
    /// Slave-loss rates to sweep (each slave crashes independently with
    /// this probability at diagnosis time).
    pub loss_rates: Vec<f64>,
    /// Master-side degraded-mode knobs (deadline, retry, backoff); its
    /// `lookback` is replaced by [`DegradedCampaign::lookback`].
    pub config: FChainConfig,
}

/// Accuracy and coverage at one slave-loss rate.
#[derive(Debug, Clone)]
pub struct DegradedPoint {
    /// The swept slave-loss probability.
    pub loss_rate: f64,
    /// Precision/recall counts accumulated over the diagnosed runs.
    pub counts: Counts,
    /// Mean [`fchain_core::DiagnosisCoverage::coverage`] over diagnoses.
    pub mean_coverage: f64,
    /// Diagnoses performed (runs whose SLO fired).
    pub diagnoses: usize,
    /// Total slaves that never answered, across all diagnoses.
    pub unreachable_slaves: usize,
}

impl DegradedCampaign {
    /// A small default sweep for `(app, fault)`: loss rates 0 %–75 %,
    /// honoring the `FCHAIN_RUNS` / `FCHAIN_DURATION` environment
    /// overrides like [`crate::Campaign::new`].
    pub fn new(app: AppKind, fault: FaultKind, base_seed: u64) -> Self {
        let runs = std::env::var("FCHAIN_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        let duration = std::env::var("FCHAIN_DURATION")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1500);
        DegradedCampaign {
            app,
            fault,
            runs,
            base_seed,
            duration,
            lookback: 100,
            hosts: 4,
            loss_rates: vec![0.0, 0.25, 0.5, 0.75],
            config: FChainConfig::default(),
        }
    }

    /// Runs the sweep: every loss rate scores the *same* seeded cases, so
    /// the degradation curve isolates the effect of losing slaves.
    pub fn evaluate(&self) -> Vec<DegradedPoint> {
        assert!(self.hosts >= 1, "at least one host");
        let config = FChainConfig {
            lookback: self.lookback,
            ..self.config.clone()
        };
        let mut points: Vec<DegradedPoint> = self
            .loss_rates
            .iter()
            .map(|&loss_rate| DegradedPoint {
                loss_rate,
                counts: Counts::default(),
                mean_coverage: 0.0,
                diagnoses: 0,
                unreachable_slaves: 0,
            })
            .collect();

        for i in 0..self.runs {
            let seed = self.base_seed + i as u64;
            let run = Simulator::new(
                RunConfig::new(self.app, self.fault, seed).with_duration(self.duration),
            )
            .run();
            let Some(case) = case_from_run(&run, self.lookback) else {
                continue; // the SLO never fired; no diagnosis to degrade
            };

            // Wire the case's components into per-host daemons once; the
            // daemons are read-only during analysis, so every loss rate
            // reuses them. They retain the whole case, as
            // `FChain::diagnose` sizes its own.
            let capacity = SlaveDaemon::capacity_for_case(&case, self.lookback);
            let daemons: Vec<Arc<SlaveDaemon>> = (0..self.hosts)
                .map(|_| Arc::new(SlaveDaemon::new(config.clone()).with_capacity(capacity)))
                .collect();
            for (c, component) in case.components.iter().enumerate() {
                let host = &daemons[c % self.hosts];
                for sample in MetricSample::replay(component.id, &component.metrics) {
                    host.ingest(sample);
                }
            }

            for (rate_idx, point) in points.iter_mut().enumerate() {
                // One deterministic schedule per (run, rate): the same
                // campaign parameters always crash the same slaves.
                let schedule =
                    SlaveFaultSchedule::crashes(seed ^ ((rate_idx as u64) << 32), point.loss_rate);
                let mut master = Master::new(config.clone());
                for (s, daemon) in daemons.iter().enumerate() {
                    master.register_slave(Arc::new(FaultySlave::new(
                        Arc::clone(daemon) as Arc<dyn SlaveEndpoint>,
                        schedule.fault_for(s),
                    )));
                }
                if let Some(deps) = case.dependency_evidence(config.ensemble.enabled) {
                    master.set_dependencies(deps.clone());
                }
                let report = master.on_violation(case.violation_at);
                // Set-semantics ground truth: overlapping fault windows
                // naming one component twice still claim a single slot.
                point
                    .counts
                    .add_case(&report.pinpointed, &run.ground_truth());
                point.mean_coverage += report.coverage.coverage;
                point.unreachable_slaves += report.coverage.unreachable_slaves.len();
                point.diagnoses += 1;
            }
        }

        for point in &mut points {
            if point.diagnoses > 0 {
                point.mean_coverage /= point.diagnoses as f64;
            }
        }
        points
    }

    /// Renders a sweep as the JSON shape the `BENCH_*.json` files use.
    pub fn to_json(&self, points: &[DegradedPoint]) -> serde_json::Value {
        json!({
            "bench": "degraded_diagnosis",
            "case": {
                "app": format!("{:?}", self.app),
                "fault": format!("{:?}", self.fault),
                "runs": self.runs,
                "base_seed": self.base_seed,
                "duration": self.duration,
                "lookback": self.lookback,
                "hosts": self.hosts,
                "slave_deadline_ms": self.config.slave_deadline_ms,
                "slave_retries": self.config.slave_retries,
                "engine": self.config.engine.to_string(),
            },
            "sweep": points.iter().map(|p| json!({
                "loss_rate": p.loss_rate,
                "precision": p.counts.precision(),
                "recall": p.counts.recall(),
                "tp": p.counts.tp,
                "fp": p.counts.fp,
                "fn": p.counts.fn_,
                "diagnoses": p.diagnoses,
                "mean_coverage": p.mean_coverage,
                "unreachable_slaves": p.unreachable_slaves,
            })).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign() -> DegradedCampaign {
        DegradedCampaign {
            app: AppKind::Rubis,
            fault: FaultKind::CpuHog,
            runs: 3,
            base_seed: 900,
            duration: 1500,
            lookback: 100,
            hosts: 4,
            loss_rates: vec![0.0, 1.0],
            config: FChainConfig::default(),
        }
    }

    #[test]
    fn sweep_degrades_gracefully_instead_of_panicking() {
        let campaign = small_campaign();
        let points = campaign.evaluate();
        assert_eq!(points.len(), 2);
        let clean = &points[0];
        assert!(clean.diagnoses >= 1, "seeds must produce violations");
        assert_eq!(clean.mean_coverage, 1.0);
        assert_eq!(clean.unreachable_slaves, 0);
        assert!(clean.counts.recall() > 0.0, "clean sweep must find faults");
        let lost = &points[1];
        assert_eq!(lost.mean_coverage, 0.0, "every slave crashed");
        assert_eq!(lost.counts.recall(), 0.0, "no data, no recall");
        // Losing every slave silences the diagnosis; it must not invent
        // pinpointings out of nothing.
        assert_eq!(lost.counts.fp, 0);
    }

    /// With no slave lost, the sweep diagnoses exactly what the offline
    /// `FChain` campaign does on the same runs — at W=100 and at the
    /// W=500 a slow fault gets, where the daemons and the master must
    /// run at the campaign's window, not the config's default.
    #[test]
    fn clean_sweep_equals_the_fchain_campaign() {
        for (app, fault, base_seed, lookback) in [
            (AppKind::Rubis, FaultKind::CpuHog, 900, 100),
            (AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 1000, 500),
        ] {
            let sweep = DegradedCampaign {
                app,
                fault,
                base_seed,
                lookback,
                loss_rates: vec![0.0],
                ..small_campaign()
            };
            let offline = crate::Campaign {
                app,
                fault,
                runs: sweep.runs,
                base_seed,
                duration: sweep.duration,
                lookback,
            };
            let clean = &sweep.evaluate()[0];
            let fchain = fchain_core::FChain::default();
            let expected = &offline.evaluate(&[&fchain])[0].counts;
            assert_eq!(&clean.counts, expected, "{app:?}/{fault:?} at W={lookback}");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let campaign = DegradedCampaign {
            loss_rates: vec![0.5],
            ..small_campaign()
        };
        let a = campaign.evaluate();
        let b = campaign.evaluate();
        assert_eq!(a[0].counts, b[0].counts);
        assert_eq!(a[0].mean_coverage, b[0].mean_coverage);
        assert_eq!(a[0].unreachable_slaves, b[0].unreachable_slaves);
    }

    #[test]
    fn json_summary_has_the_bench_shape() {
        let campaign = DegradedCampaign {
            runs: 1,
            loss_rates: vec![0.0],
            ..small_campaign()
        };
        let points = campaign.evaluate();
        let value = campaign.to_json(&points);
        let rendered = serde_json::to_string_pretty(&value).expect("serializable sweep");
        for key in [
            "\"bench\"",
            "degraded_diagnosis",
            "\"loss_rate\"",
            "\"precision\"",
            "\"recall\"",
            "\"mean_coverage\"",
            "\"unreachable_slaves\"",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        // The vendored serializer renders non-finite floats as null; a
        // clean sweep must not produce any.
        assert!(!rendered.contains("null"), "non-finite value in {rendered}");
    }
}
