//! Degraded-mode diagnosis: the master must survive crashed, stalled,
//! flaky and stale slaves — finishing within its deadline, reporting what
//! it could not see, and staying bit-identical to itself — whatever
//! order the slaves' answers arrive in — for a fixed fault schedule.

use fchain::core::master::Master;
use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::{
    DiagnosisReport, FChainConfig, FaultySlave, SlaveEndpoint, SlaveFault, SlaveFaultSchedule,
    SlaveStatus, ValidationProbe,
};
use fchain::metrics::{ComponentId, MetricKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Feeds `n` ticks of component `c` into `slave`; CPU steps up at
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

/// `n_slaves` single-component daemons; the fault lives on `faulty_slave`.
fn build_daemons(n_slaves: u32, faulty_slave: u32) -> Vec<Arc<SlaveDaemon>> {
    (0..n_slaves)
        .map(|s| {
            let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
            let fault_at = (s == faulty_slave).then_some(940);
            feed(&daemon, s, 1000, fault_at);
            daemon
        })
        .collect()
}

fn master_with_faults(
    daemons: &[Arc<SlaveDaemon>],
    faults: &[SlaveFault],
    config: FChainConfig,
) -> Master {
    assert_eq!(daemons.len(), faults.len());
    let mut master = Master::new(config);
    for (daemon, fault) in daemons.iter().zip(faults) {
        master.register_slave(Arc::new(FaultySlave::new(
            Arc::clone(daemon) as Arc<dyn SlaveEndpoint>,
            *fault,
        )));
    }
    master
}

/// [`master_with_faults`] with every faulty endpoint wrapped once more in
/// a stall whose delay decreases with registration index, so answers
/// reach the fan-out in reverse order. Thread timing must never change
/// the report.
fn reversed_arrival(
    daemons: &[Arc<SlaveDaemon>],
    faults: &[SlaveFault],
    config: FChainConfig,
) -> Master {
    assert_eq!(daemons.len(), faults.len());
    let mut master = Master::new(config);
    for (i, (daemon, fault)) in daemons.iter().zip(faults).enumerate() {
        let faulty = FaultySlave::new(Arc::clone(daemon) as Arc<dyn SlaveEndpoint>, *fault);
        let delay = Duration::from_millis(20 * (daemons.len() - i) as u64);
        master.register_slave(Arc::new(FaultySlave::new(
            Arc::new(faulty),
            SlaveFault::Stall { delay },
        )));
    }
    master
}

fn degraded_config() -> FChainConfig {
    FChainConfig {
        slave_deadline_ms: 400,
        slave_retries: 2,
        slave_backoff_ms: 1,
        ..FChainConfig::default()
    }
}

fn mixed_faults() -> Vec<SlaveFault> {
    vec![
        SlaveFault::None,
        SlaveFault::Crash,
        SlaveFault::Stall {
            delay: Duration::from_secs(5),
        },
        SlaveFault::Transient { failures: 1 },
        SlaveFault::PartialWindow { missing_ticks: 200 },
        SlaveFault::None,
        SlaveFault::Crash,
        SlaveFault::Transient { failures: 10 },
    ]
}

/// The fault-injection stress test: eight slaves with every fault kind at
/// once. Diagnosis must return within a small multiple of the deadline
/// (the stalled slave alone would hold it for 5 s), blame the faulty
/// component, and report exactly which slaves and components it lost.
#[test]
fn stress_mixed_faults_complete_within_deadline() {
    let daemons = build_daemons(8, 0);
    let master = master_with_faults(&daemons, &mixed_faults(), degraded_config());

    let started = Instant::now();
    let report = master.on_violation(990);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "diagnosis took {elapsed:?}; the 5 s straggler was not abandoned"
    );

    // Slave 0 (healthy) holds the faulty component: diagnosis still lands.
    assert_eq!(report.pinpointed, vec![ComponentId(0)]);

    let cov = &report.coverage;
    assert_eq!(cov.slaves.len(), 8);
    assert_eq!(cov.slaves[0], SlaveStatus::Ok);
    assert_eq!(cov.slaves[1], SlaveStatus::Unreachable);
    assert_eq!(cov.slaves[2], SlaveStatus::TimedOut);
    assert_eq!(cov.slaves[3], SlaveStatus::Recovered { retries: 1 });
    assert_eq!(cov.slaves[5], SlaveStatus::Ok);
    assert_eq!(cov.slaves[6], SlaveStatus::Unreachable);
    assert_eq!(cov.slaves[7], SlaveStatus::Unreachable);
    assert_eq!(cov.unreachable_slaves, vec![1, 2, 6, 7]);
    // Each lost slave monitored exactly its own component.
    assert_eq!(
        cov.unreachable_components,
        vec![
            ComponentId(1),
            ComponentId(2),
            ComponentId(6),
            ComponentId(7)
        ]
    );
    assert_eq!(cov.coverage, 0.5);
    assert!(!cov.is_complete());
}

/// The same fault schedule twice must yield bit-identical reports.
#[test]
fn seeded_fault_schedule_is_deterministic() {
    let daemons = build_daemons(6, 2);
    let schedule = SlaveFaultSchedule::crashes(77, 0.5);
    let faults: Vec<SlaveFault> = (0..6).map(|s| schedule.fault_for(s)).collect();
    // The seeded schedule must actually exercise both outcomes.
    assert!(faults.iter().any(|f| matches!(f, SlaveFault::Crash)));
    assert!(faults.iter().any(|f| matches!(f, SlaveFault::None)));

    let run = || -> DiagnosisReport {
        master_with_faults(&daemons, &faults, degraded_config()).on_violation(990)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same schedule, different report");
    let reversed = reversed_arrival(&daemons, &faults, degraded_config()).on_violation(990);
    assert_eq!(
        first, reversed,
        "reversed answer arrival changed the degraded report"
    );
    assert!(!first.coverage.unreachable_slaves.is_empty());
}

/// With fault injection disabled (`SlaveFault::None` wrappers), the report
/// is bit-identical to the plain pre-change path: same findings, same
/// pinpointing, full coverage.
#[test]
fn no_fault_wrappers_match_the_plain_path() {
    let daemons = build_daemons(4, 1);

    let mut plain = Master::new(FChainConfig::default());
    for daemon in &daemons {
        plain.register_slave(Arc::clone(daemon) as Arc<dyn SlaveEndpoint>);
    }
    let faults = vec![SlaveFault::None; 4];
    let wrapped = master_with_faults(&daemons, &faults, FChainConfig::default());

    let plain_report = plain.on_violation(990);
    let wrapped_report = wrapped.on_violation(990);
    assert_eq!(plain_report, wrapped_report);
    let reversed = reversed_arrival(&daemons, &faults, FChainConfig::default());
    assert_eq!(plain_report, reversed.on_violation(990));
    assert_eq!(plain_report.pinpointed, vec![ComponentId(1)]);
    assert!(plain_report.coverage.is_complete());
    assert_eq!(plain_report.coverage.coverage, 1.0);
}

/// Records every component the validation probe is asked to scale, and
/// refutes all of them.
#[derive(Debug, Default)]
struct RecordingProbe {
    scaled: Vec<ComponentId>,
}

impl ValidationProbe for RecordingProbe {
    fn scale_and_observe(&mut self, component: ComponentId, _metric: MetricKind) -> bool {
        self.scaled.push(component);
        false
    }
}

/// Validation must never probe a component on an unreachable slave (there
/// is nothing to scale), and `removed_by_validation` must stay disjoint
/// from the coverage blind spot — losing a slave is not a refutation.
#[test]
fn validation_never_probes_unreachable_components() {
    let daemons = build_daemons(4, 0);
    let faults = vec![
        SlaveFault::None,
        SlaveFault::Crash,
        SlaveFault::None,
        SlaveFault::Crash,
    ];
    let master = master_with_faults(&daemons, &faults, degraded_config());

    let mut probe = RecordingProbe::default();
    let report = master.on_violation_validated(990, &mut probe);

    let blind = &report.coverage.unreachable_components;
    assert_eq!(blind, &[ComponentId(1), ComponentId(3)]);
    for c in &probe.scaled {
        assert!(
            !blind.contains(c),
            "validation probed {c:?}, which lives on an unreachable slave"
        );
    }
    for c in &report.removed_by_validation {
        assert!(
            !blind.contains(c),
            "{c:?} was both unreachable and 'refuted' by validation"
        );
    }
    // The all-refuting probe did run against the pinpointed component.
    assert_eq!(probe.scaled, vec![ComponentId(0)]);
    assert_eq!(report.removed_by_validation, vec![ComponentId(0)]);
    assert!(report.pinpointed.is_empty());
}

/// Regression for the answered-fraction definition:
/// `DiagnosisCoverage::coverage` is the fraction of *slaves* that
/// answered the fan-out, NOT the fraction of components — the two
/// diverge exactly when slaves monitor unequal component counts, and the
/// component-level view lives in `component_coverage` /
/// `unreachable_components` instead.
#[test]
fn coverage_is_a_slave_fraction_not_a_component_fraction() {
    // One healthy slave with a single (faulty) component; one crashed
    // slave holding three components.
    let small = Arc::new(SlaveDaemon::new(FChainConfig::default()));
    feed(&small, 0, 1000, Some(940));
    let big = Arc::new(SlaveDaemon::new(FChainConfig::default()));
    for c in 1..4 {
        feed(&big, c, 1000, None);
    }
    let master = master_with_faults(
        &[small, big],
        &[SlaveFault::None, SlaveFault::Crash],
        degraded_config(),
    );
    let report = master.on_violation(990);
    let cov = &report.coverage;
    assert_eq!(cov.slaves, vec![SlaveStatus::Ok, SlaveStatus::Unreachable]);
    // 1 of 2 slaves answered ...
    assert_eq!(cov.coverage, 0.5);
    // ... but only 1 of the 4 components was actually analyzed.
    assert_eq!(
        cov.unreachable_components,
        vec![ComponentId(1), ComponentId(2), ComponentId(3)]
    );
    assert_eq!(cov.component_coverage(4), 0.25);
    assert_eq!(report.pinpointed, vec![ComponentId(0)]);
}
