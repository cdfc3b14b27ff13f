//! The FChain master: the Fig. 1 deployment wired together.
//!
//! "FChain is decentralized consisting of a set of slave modules ... and
//! master modules ... The slave modules run inside the domain 0 of
//! different cloud nodes while the master modules run on dedicated
//! servers. ... When a performance anomaly is detected, the FChain master
//! is invoked ... The FChain master first contacts the slaves on all
//! related distributed hosts."
//!
//! [`Master`] is the paper's single-application deployment: one
//! [`crate::master::fleet::FleetMaster`] serving exactly one tenant (the
//! `"default"` application). Every call delegates to the fleet layer, so
//! a single-app report is bit-identical to the per-tenant report a
//! multi-tenant fleet produces for the same slaves — the invariant the
//! fleet refactor is tested against.
//!
//! Unlike the paper's testbed, the fan-out does not assume the slaves are
//! healthy: each slave gets a bounded number of retries for transient
//! errors, a per-slave response deadline abandons stragglers
//! ([`crate::FChainConfig::slave_deadline_ms`]), and the report carries
//! [`crate::DiagnosisCoverage`] so a clean verdict can be told from a
//! partial one.

use crate::config::FChainConfig;
use crate::master::endpoint::SlaveEndpoint;
use crate::master::fleet::FleetMaster;
use crate::master::validation::ValidationProbe;
use crate::report::DiagnosisReport;
use fchain_deps::DependencyGraph;
use fchain_metrics::{AppId, Tick};
use std::sync::Arc;

/// The master module coordinating per-host slave daemons for one
/// application.
///
/// # Examples
///
/// ```
/// use fchain_core::master::Master;
/// use fchain_core::slave::{MetricSample, SlaveDaemon};
/// use fchain_core::FChainConfig;
/// use fchain_metrics::{ComponentId, MetricKind};
/// use std::sync::Arc;
///
/// let slave = Arc::new(SlaveDaemon::new(FChainConfig::default()));
/// let mut master = Master::new(FChainConfig::default());
/// master.register_slave(slave.clone());
///
/// // The slave monitors one component whose CPU jumps at t = 940.
/// for t in 0..1000u64 {
///     for kind in MetricKind::ALL {
///         let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
///         let value = if kind == MetricKind::Cpu && t >= 940 { normal + 50.0 } else { normal };
///         slave.ingest(MetricSample { tick: t, component: ComponentId(0), kind, value });
///     }
/// }
/// let report = master.on_violation(990);
/// assert_eq!(report.pinpointed, vec![ComponentId(0)]);
/// assert!(report.coverage.is_complete());
/// ```
#[derive(Debug)]
pub struct Master {
    fleet: FleetMaster,
    app: AppId,
}

impl Master {
    /// Creates a master with no slaves registered yet.
    pub fn new(config: FChainConfig) -> Self {
        let mut fleet = FleetMaster::new(config);
        let app = fleet.add_tenant("default");
        Master { fleet, app }
    }

    /// Registers the slave endpoint of one cloud node. Returns `true` if
    /// the endpoint was added; re-registering the *same* endpoint (the
    /// same `Arc` — a slave re-announcing itself after a reconnect) is a
    /// no-op returning `false`, so the host is not fanned out to twice.
    /// A different endpoint monitoring the same components is redundant
    /// monitoring and stays allowed (the merge step unions findings).
    pub fn register_slave(&mut self, slave: Arc<dyn SlaveEndpoint>) -> bool {
        self.fleet.register_slave(self.app, slave)
    }

    /// Number of registered slaves.
    pub fn slave_count(&self) -> usize {
        self.fleet.slave_count(self.app)
    }

    /// Installs the dependency graph produced by offline black-box
    /// discovery ("we perform the dependency discovery offline and store
    /// the results in a file for later reference", §II.C footnote).
    pub fn set_dependencies(&mut self, deps: DependencyGraph) {
        self.fleet.set_dependencies(self.app, deps);
    }

    /// Full diagnosis on an SLO violation.
    pub fn on_violation(&self, violation_at: Tick) -> DiagnosisReport {
        self.fleet.diagnose(self.app, violation_at)
    }

    /// Diagnosis followed by online pinpointing validation.
    ///
    /// Validation only ever scales components that were pinpointed, and
    /// pinpointing only ever blames components with findings — so
    /// components on unreachable slaves (which contributed no findings)
    /// are never probed, and [`DiagnosisReport::removed_by_validation`]
    /// stays disjoint from
    /// [`crate::DiagnosisCoverage::unreachable_components`].
    pub fn on_violation_validated(
        &self,
        violation_at: Tick,
        probe: &mut dyn ValidationProbe,
    ) -> DiagnosisReport {
        self.fleet.diagnose_validated(self.app, violation_at, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::endpoint::{CollectRequest, FaultySlave, SlaveError, SlaveFault};
    use crate::report::{AbnormalChange, ComponentFinding, SlaveStatus};
    use crate::slave::{MetricSample, SlaveDaemon};
    use fchain_detect::Trend;
    use fchain_metrics::{ComponentId, MetricKind};
    use std::time::{Duration, Instant};

    /// The reference master: the same endpoints, each wrapped in a
    /// [`SlaveFault::Stall`] whose delay decreases with registration
    /// index, so answers reach the fan-out in reverse order. Thread
    /// timing must never change the report.
    fn reversed_arrival(slaves: &[Arc<dyn SlaveEndpoint>]) -> Master {
        let mut master = Master::new(FChainConfig::default());
        for (i, slave) in slaves.iter().enumerate() {
            let delay = Duration::from_millis(20 * (slaves.len() - i) as u64);
            master.register_slave(Arc::new(FaultySlave::new(
                Arc::clone(slave),
                SlaveFault::Stall { delay },
            )));
        }
        master
    }

    /// Feeds `n` ticks of component `c` into `slave`, stepping CPU at
    /// `fault_at` if given.
    fn feed(slave: &SlaveDaemon, c: u32, n: u64, fault_at: Option<u64>) {
        for t in 0..n {
            for kind in MetricKind::ALL {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                let value = match fault_at {
                    Some(at) if kind == MetricKind::Cpu && t >= at => normal + 50.0,
                    _ => normal,
                };
                slave.ingest(MetricSample {
                    tick: t,
                    component: ComponentId(c),
                    kind,
                    value,
                });
            }
        }
    }

    #[test]
    fn master_merges_findings_across_hosts() {
        // Two hosts, two components each; the fault is on host 2.
        let host1 = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let host2 = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&host1, 0, 1000, None);
        feed(&host1, 1, 1000, None);
        feed(&host2, 2, 1000, Some(940));
        feed(&host2, 3, 1000, None);

        let mut master = Master::new(FChainConfig::default());
        master.register_slave(host1);
        master.register_slave(host2);
        assert_eq!(master.slave_count(), 2);

        let report = master.on_violation(990);
        assert_eq!(report.pinpointed, vec![ComponentId(2)]);
        assert_eq!(report.findings.len(), 4);
        assert!(report.coverage.is_complete());
        assert_eq!(report.coverage.coverage, 1.0);
        assert_eq!(report.coverage.slaves, vec![SlaveStatus::Ok; 2]);
    }

    #[test]
    fn master_with_no_slaves_reports_no_anomaly() {
        let master = Master::new(FChainConfig::default());
        let report = master.on_violation(100);
        assert_eq!(report.verdict, crate::Verdict::NoAnomaly);
        assert!(report.coverage.is_complete());
        assert_eq!(report.coverage.coverage, 1.0);
    }

    #[test]
    fn duplicate_endpoint_registration_is_a_no_op() {
        // A slave re-announcing itself (the same Arc) must not be fanned
        // out to twice; a distinct daemon monitoring the same component
        // is redundant monitoring and stays allowed.
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&daemon, 0, 1000, Some(940));
        let endpoint: Arc<dyn SlaveEndpoint> = daemon;
        let mut master = Master::new(FChainConfig::default());
        assert!(master.register_slave(Arc::clone(&endpoint)));
        assert!(!master.register_slave(Arc::clone(&endpoint)));
        assert_eq!(master.slave_count(), 1);
        let report = master.on_violation(990);
        assert_eq!(report.coverage.slaves.len(), 1, "one fan-out, not two");
        assert_eq!(report.pinpointed, vec![ComponentId(0)]);

        let twin = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&twin, 0, 1000, Some(940));
        assert!(master.register_slave(twin));
        assert_eq!(master.slave_count(), 2);
    }

    #[test]
    fn dependency_graph_enables_sibling_rescue() {
        // Components 0 and 1 are independent (no dependency between
        // them); both step, 1 slightly later — without the graph only the
        // earliest is pinpointed, with it both are.
        let slave = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&slave, 0, 1000, Some(930));
        feed(&slave, 1, 1000, Some(938));
        feed(&slave, 2, 1000, None);

        let mut bare = Master::new(FChainConfig::default());
        bare.register_slave(Arc::clone(&slave) as Arc<dyn SlaveEndpoint>);
        let without = bare.on_violation(990);
        assert_eq!(without.pinpointed, vec![ComponentId(0)]);

        let mut deps = DependencyGraph::new();
        deps.add_edge(ComponentId(0), ComponentId(2));
        deps.add_edge(ComponentId(1), ComponentId(2));
        bare.set_dependencies(deps);
        let with = bare.on_violation(990);
        assert_eq!(with.pinpointed, vec![ComponentId(0), ComponentId(1)]);
    }

    #[test]
    fn validated_diagnosis_drops_unconfirmed_components() {
        #[derive(Debug)]
        struct ApproveOnly(ComponentId);
        impl ValidationProbe for ApproveOnly {
            fn scale_and_observe(&mut self, c: ComponentId, _m: MetricKind) -> bool {
                c == self.0
            }
        }
        let slave = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&slave, 0, 1000, Some(940));
        feed(&slave, 1, 1000, Some(941));
        feed(&slave, 2, 1000, None); // a normal component: not an external factor
        let mut master = Master::new(FChainConfig::default());
        master.register_slave(slave);
        let report = master.on_violation_validated(990, &mut ApproveOnly(ComponentId(1)));
        assert_eq!(report.pinpointed, vec![ComponentId(1)]);
        assert_eq!(report.removed_by_validation, vec![ComponentId(0)]);
    }

    #[test]
    fn duplicate_component_findings_are_merged_not_dropped() {
        // Two registered slaves both report ComponentId(7) — one saw a
        // CPU change, the other an earlier Memory change. The old
        // `dedup_by_key` silently dropped the second report; the merge
        // must union the changes and surface the earliest onset.
        #[derive(Debug)]
        struct Canned(Vec<ComponentFinding>);
        impl SlaveEndpoint for Canned {
            fn monitored_components(&self) -> Vec<ComponentId> {
                self.0.iter().map(|f| f.id).collect()
            }
            fn collect(&self, _: &CollectRequest) -> Result<Vec<ComponentFinding>, SlaveError> {
                Ok(self.0.clone())
            }
        }
        let change = |metric, onset| AbnormalChange {
            metric,
            change_at: onset + 3,
            onset,
            prediction_error: 10.0,
            expected_error: 1.0,
            direction: Trend::Up,
        };
        let cpu = change(MetricKind::Cpu, 200);
        let memory = change(MetricKind::Memory, 180);
        let slaves: [Arc<dyn SlaveEndpoint>; 2] = [
            Arc::new(Canned(vec![ComponentFinding {
                id: ComponentId(7),
                changes: vec![cpu],
            }])),
            Arc::new(Canned(vec![ComponentFinding {
                id: ComponentId(7),
                changes: vec![memory],
            }])),
        ];
        let mut master = Master::new(FChainConfig::default());
        for slave in &slaves {
            master.register_slave(Arc::clone(slave));
        }
        let findings = master.on_violation(990).findings;
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].changes, vec![cpu, memory]);
        assert_eq!(findings[0].onset(), Some(180), "earliest onset must win");
        // Registration order, not arrival order, fixes the union.
        let reversed = reversed_arrival(&slaves).on_violation(990);
        assert_eq!(reversed.findings, findings);
    }

    #[test]
    fn crashed_slave_degrades_coverage_instead_of_panicking() {
        let healthy = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&healthy, 0, 1000, Some(940));
        let dead = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&dead, 1, 1000, None);
        feed(&dead, 2, 1000, None);

        let slaves: [Arc<dyn SlaveEndpoint>; 2] =
            [healthy, Arc::new(FaultySlave::new(dead, SlaveFault::Crash))];
        let mut master = Master::new(FChainConfig::default());
        for slave in &slaves {
            master.register_slave(Arc::clone(slave));
        }

        let report = master.on_violation(990);
        assert_eq!(report.pinpointed, vec![ComponentId(0)]);
        assert!(!report.coverage.is_complete());
        assert_eq!(report.coverage.unreachable_slaves, vec![1]);
        assert_eq!(report.coverage.coverage, 0.5);
        assert_eq!(
            report.coverage.unreachable_components,
            vec![ComponentId(1), ComponentId(2)]
        );
        assert_eq!(
            report.coverage.slaves,
            vec![SlaveStatus::Ok, SlaveStatus::Unreachable]
        );
        // Answers arriving in reverse order give the same degraded picture.
        assert_eq!(report, reversed_arrival(&slaves).on_violation(990));
    }

    #[test]
    fn transient_slave_recovers_within_retry_budget() {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&daemon, 0, 1000, Some(940));
        let flaky = Arc::new(FaultySlave::new(
            Arc::clone(&daemon) as Arc<dyn SlaveEndpoint>,
            SlaveFault::Transient { failures: 2 },
        ));
        let mut master = Master::new(FChainConfig::default()); // slave_retries = 2
        master.register_slave(Arc::clone(&flaky) as Arc<dyn SlaveEndpoint>);
        let report = master.on_violation(990);
        assert_eq!(report.pinpointed, vec![ComponentId(0)]);
        assert_eq!(
            report.coverage.slaves,
            vec![SlaveStatus::Recovered { retries: 2 }]
        );
        assert!(report.coverage.is_complete());
        assert_eq!(flaky.calls(), 3);
    }

    #[test]
    fn transient_slave_beyond_retry_budget_is_unreachable() {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&daemon, 0, 1000, Some(940));
        let mut master = Master::new(FChainConfig {
            slave_retries: 1,
            ..FChainConfig::default()
        });
        master.register_slave(Arc::new(FaultySlave::new(
            daemon,
            SlaveFault::Transient { failures: 5 },
        )));
        let report = master.on_violation(990);
        assert_eq!(report.verdict, crate::Verdict::NoAnomaly);
        assert_eq!(report.coverage.slaves, vec![SlaveStatus::Unreachable]);
        assert_eq!(report.coverage.unreachable_components, vec![ComponentId(0)]);
    }

    #[test]
    fn straggler_is_abandoned_at_the_deadline() {
        // With a healthy peer, and alone: a lone straggler must not hold
        // the diagnosis past the deadline either.
        for with_fast_peer in [true, false] {
            let mut master = Master::new(FChainConfig {
                slave_deadline_ms: 150,
                ..FChainConfig::default()
            });
            if with_fast_peer {
                let fast = Arc::new(SlaveDaemon::new(FChainConfig::default()));
                feed(&fast, 0, 1000, Some(940));
                master.register_slave(fast);
            }
            let slow = Arc::new(SlaveDaemon::new(FChainConfig::default()));
            feed(&slow, 1, 1000, Some(935)); // would win pinpointing if heard
            master.register_slave(Arc::new(FaultySlave::new(
                slow,
                SlaveFault::Stall {
                    delay: Duration::from_millis(2000),
                },
            )));

            let started = Instant::now();
            let report = master.on_violation(990);
            assert!(
                started.elapsed() < Duration::from_millis(1500),
                "diagnosis must not wait out the straggler (peer: {with_fast_peer})"
            );
            let (pinpointed, slaves) = if with_fast_peer {
                (
                    vec![ComponentId(0)],
                    vec![SlaveStatus::Ok, SlaveStatus::TimedOut],
                )
            } else {
                (Vec::new(), vec![SlaveStatus::TimedOut])
            };
            assert_eq!(report.pinpointed, pinpointed);
            assert_eq!(report.coverage.slaves, slaves);
            assert_eq!(report.coverage.unreachable_components, vec![ComponentId(1)]);
        }
    }

    #[test]
    fn redundantly_monitored_component_is_not_a_blind_spot() {
        // Both slaves monitor component 0; one crashes. The survivor's
        // findings cover it, so it must not be listed as unreachable.
        let a = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&a, 0, 1000, Some(940));
        let b = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed(&b, 0, 1000, Some(940));
        let mut master = Master::new(FChainConfig::default());
        master.register_slave(a);
        master.register_slave(Arc::new(FaultySlave::new(b, SlaveFault::Crash)));
        let report = master.on_violation(990);
        assert_eq!(report.coverage.unreachable_slaves, vec![1]);
        assert!(report.coverage.unreachable_components.is_empty());
        assert_eq!(report.pinpointed, vec![ComponentId(0)]);
    }
}
