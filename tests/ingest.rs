//! Continuous-ingest parity and accounting.
//!
//! The ingest service (sharded backpressure rings + drainer threads) is a
//! transport in front of [`SlaveDaemon`]: for every sample stream whose
//! per-metric order is preserved, the daemon it feeds must end up in a
//! state that produces **bit-identical** findings to synchronous
//! `ingest_for` calls — under both analysis engines. And every
//! backpressure policy must account for each offered sample exactly, even
//! with many writers hammering the rings concurrently.

use fchain::core::master::Master;
use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::{
    AnalysisEngine, BackpressurePolicy, CollectRequest, DiagnosisReport, FChainConfig,
    IngestConfig, IngestService, PushOutcome,
};
use fchain::eval::case_from_run;
use fchain::metrics::{AppId, ComponentId, MetricKind};
use fchain::sim::{AppKind, FaultKind, RunConfig, Simulator};
use proptest::prelude::*;
use std::sync::Arc;

/// Seeded simulator cases covering the three paper applications and both
/// fast- and slow-manifesting faults.
const CASES: [(AppKind, FaultKind, u64); 3] = [
    (AppKind::Rubis, FaultKind::CpuHog, 11),
    (AppKind::Hadoop, FaultKind::ConcurrentMemLeak, 40),
    (AppKind::SystemS, FaultKind::Bottleneck, 3),
];

/// Replays one seeded case into a fresh daemon, either synchronously or
/// through a sharded ingest service, and returns the findings at the
/// violation tick.
fn findings_via(
    engine: AnalysisEngine,
    app: AppKind,
    fault: FaultKind,
    seed: u64,
    service: bool,
) -> Option<Vec<fchain::core::ComponentFinding>> {
    let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
    let case = case_from_run(&run, 100)?;
    let config = FChainConfig {
        engine,
        ..FChainConfig::default()
    };
    let daemon = Arc::new(SlaveDaemon::new(config));
    let tenant = AppId(7);
    let feed = |push: &dyn Fn(MetricSample)| {
        for component in &case.components {
            for kind in MetricKind::ALL {
                for (tick, value) in component.metric(kind).iter() {
                    push(MetricSample {
                        tick,
                        component: component.id,
                        kind,
                        value,
                    });
                }
            }
        }
    };
    if service {
        let svc = IngestService::spawn(
            Arc::clone(&daemon),
            IngestConfig {
                shards: 5,
                ring_capacity: 256,
                policy: BackpressurePolicy::Block,
                drain_threads: 2,
                ..IngestConfig::default()
            },
        );
        let handle = svc.handle();
        feed(&|s| {
            handle.push_for(tenant, s);
        });
        let stats = svc.shutdown();
        assert_eq!(stats.lost(), 0, "block policy must lose nothing");
        assert_eq!(stats.applied, stats.enqueued);
    } else {
        feed(&|s| daemon.ingest_for(tenant, s));
    }
    Some(daemon.analyze_all(Some(tenant), &CollectRequest::at(case.violation_at)))
}

/// Builds a fully wired two-host [`Master`] for one seeded case — hosts
/// fed either synchronously or through per-host ingest services — and
/// returns its report at the violation tick.
fn report_via(
    engine: AnalysisEngine,
    app: AppKind,
    fault: FaultKind,
    seed: u64,
    service: bool,
) -> Option<DiagnosisReport> {
    let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
    let case = case_from_run(&run, 100)?;
    let config = FChainConfig {
        engine,
        ..FChainConfig::default()
    };
    let hosts: Vec<Arc<SlaveDaemon>> = (0..2)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone())))
        .collect();
    let services: Vec<IngestService> = if service {
        hosts
            .iter()
            .map(|host| {
                IngestService::spawn(
                    Arc::clone(host),
                    IngestConfig {
                        shards: 3,
                        ring_capacity: 512,
                        policy: BackpressurePolicy::Block,
                        drain_threads: 2,
                        ..IngestConfig::default()
                    },
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    for (i, component) in case.components.iter().enumerate() {
        let host = i % hosts.len();
        for kind in MetricKind::ALL {
            for (tick, value) in component.metric(kind).iter() {
                let sample = MetricSample {
                    tick,
                    component: component.id,
                    kind,
                    value,
                };
                if service {
                    services[host].handle().push(sample);
                } else {
                    hosts[host].ingest(sample);
                }
            }
        }
    }
    for svc in services {
        let stats = svc.shutdown();
        assert_eq!(stats.lost(), 0, "block policy must lose nothing");
    }
    let mut master = Master::new(config);
    for host in hosts {
        master.register_slave(host);
    }
    if let Some(deps) = case.discovered_deps.clone() {
        master.set_dependencies(deps);
    }
    Some(master.on_violation(case.violation_at))
}

#[test]
fn service_ingested_reports_are_bit_identical_across_paths() {
    // The acceptance bar for the service shape: service-ingested, batch
    // and streaming paths all produce the same `DiagnosisReport` on the
    // golden seeded cases. Four paths per case — {direct, service} ×
    // {batch, streaming} — must collapse to one report.
    for (app, fault, seed) in CASES {
        let reports: Vec<Option<DiagnosisReport>> = [
            (AnalysisEngine::Batch, false),
            (AnalysisEngine::Batch, true),
            (AnalysisEngine::Streaming, false),
            (AnalysisEngine::Streaming, true),
        ]
        .into_iter()
        .map(|(engine, service)| report_via(engine, app, fault, seed, service))
        .collect();
        assert!(
            reports[0].is_some(),
            "{app:?}/{fault:?}/{seed} must violate"
        );
        for (i, report) in reports.iter().enumerate().skip(1) {
            assert_eq!(
                &reports[0], report,
                "{app:?}/{fault:?}/{seed}: path {i} diverged from the batch/direct reference"
            );
        }
    }
}

#[test]
fn service_ingested_findings_match_synchronous_ingest() {
    for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
        for (app, fault, seed) in CASES {
            let direct = findings_via(engine, app, fault, seed, false);
            let via_service = findings_via(engine, app, fault, seed, true);
            assert!(direct.is_some(), "{app:?}/{fault:?}/{seed} must violate");
            assert_eq!(
                direct, via_service,
                "{engine:?} {app:?}/{fault:?}/{seed}: service transport changed the findings"
            );
        }
    }
}

/// One writer's private slice of the keyspace: writer `w` owns component
/// `w`, so per-metric arrival order is preserved no matter how the
/// threads interleave.
fn writer_samples(writer: u32, n: u64) -> Vec<MetricSample> {
    (0..n)
        .map(|tick| MetricSample {
            tick,
            component: ComponentId(writer),
            kind: MetricKind::ALL[(writer as usize) % 6],
            value: 40.0 + ((tick * (writer as u64 + 2)) % 5) as f64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The multi-writer stress the ingest module's accounting promises:
    /// every offered sample is counted exactly once as enqueued,
    /// rejected, or (once enqueued) applied or evicted — per policy, with
    /// concurrent writers and tiny rings forcing every code path.
    #[test]
    fn backpressure_accounting_is_exact_under_multi_writer_stress(
        writers in 2usize..6,
        ring_capacity in 8usize..48,
        per_writer in 100u64..400,
        policy_index in 0usize..3,
    ) {
        let policy = [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::Reject,
        ][policy_index];
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(
            Arc::clone(&daemon),
            IngestConfig {
                shards: 4,
                ring_capacity,
                policy,
                max_batch: 16,
                drain_threads: 2,
                ..IngestConfig::default()
            },
        );
        let offered: u64 = writers as u64 * per_writer;
        let rejected_seen: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..writers as u32)
                .map(|w| {
                    let handle = service.handle();
                    scope.spawn(move || {
                        writer_samples(w, per_writer)
                            .into_iter()
                            .filter(|&s| handle.push(s) == PushOutcome::Rejected)
                            .count() as u64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let stats = service.shutdown();
        prop_assert_eq!(stats.enqueued + stats.rejected, offered);
        prop_assert_eq!(stats.applied + stats.dropped_oldest, stats.enqueued);
        prop_assert_eq!(stats.rejected, rejected_seen);
        match policy {
            BackpressurePolicy::Block => {
                prop_assert_eq!(stats.lost(), 0);
                prop_assert_eq!(stats.applied, offered);
            }
            BackpressurePolicy::DropOldest => prop_assert_eq!(stats.rejected, 0),
            BackpressurePolicy::Reject => prop_assert_eq!(stats.dropped_oldest, 0),
        }
    }
}
