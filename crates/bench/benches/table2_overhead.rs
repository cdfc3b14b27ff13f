//! Table II — CPU cost of each key FChain module, measured with Criterion:
//!
//! * VM monitoring (6 attributes) — feeding one sample of each of the six
//!   metrics into the slave's online learners;
//! * normal fluctuation modeling — training a learner over 1000 samples;
//! * abnormal change point selection — the slave's violation-time
//!   analysis of a 100-sample look-back window on a daemon fed
//!   beforehand, so its learners already hold the prediction errors (the
//!   only heavyweight module; it runs only when an SLO violation fires
//!   and parallelizes across hosts);
//! * integrated fault diagnosis — the master's pinpointing step;
//! * online validation — dominated by the ~30 s per-component observation
//!   period on the testbed, not CPU (reported as a constant).
use criterion::{criterion_group, criterion_main, Criterion};
use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{
    pinpoint, AbnormalChange, ComponentCase, ComponentFinding, FChainConfig, PinpointInput,
};
use fchain_detect::Trend;
use fchain_metrics::{ComponentId, MetricKind, TimeSeries};
use fchain_model::{LearnerConfig, OnlineLearner};
use std::hint::black_box;

fn sample_series(n: usize, k: usize) -> Vec<f64> {
    (0..n)
        .map(|t| 40.0 + 8.0 * ((t % 60) as f64 / 60.0) + ((t * (k + 3)) % 5) as f64)
        .collect()
}

fn component_case() -> ComponentCase {
    let mut metrics: Vec<TimeSeries> = (0..6)
        .map(|k| TimeSeries::from_samples(0, sample_series(1000, k)))
        .collect();
    // A step fault near the end so the selection pipeline exercises the
    // full path (predictability filter + rollback).
    let mut cpu = sample_series(1000, 0);
    for v in cpu.iter_mut().skip(950) {
        *v += 50.0;
    }
    metrics[MetricKind::Cpu.index()] = TimeSeries::from_samples(0, cpu);
    ComponentCase {
        id: ComponentId(0),
        name: "bench".into(),
        metrics,
    }
}

fn findings(n: usize) -> Vec<ComponentFinding> {
    (0..n as u32)
        .map(|i| ComponentFinding {
            id: ComponentId(i),
            changes: vec![AbnormalChange {
                metric: MetricKind::Cpu,
                change_at: 900 + i as u64 * 3,
                onset: 900 + i as u64 * 3,
                prediction_error: 20.0,
                expected_error: 2.0,
                direction: Trend::Up,
            }],
        })
        .collect()
}

fn bench_modules(c: &mut Criterion) {
    // VM monitoring: one 6-attribute tick through the slave daemon (ring
    // maintenance + incremental model update per metric).
    c.bench_function("table2/vm_monitoring_6_attributes", |b| {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        let comp = ComponentId(0);
        for t in 0..200u64 {
            for kind in MetricKind::ALL {
                daemon.ingest(MetricSample {
                    tick: t,
                    component: comp,
                    kind,
                    value: 40.0 + (t % 9) as f64,
                });
            }
        }
        let mut t = 200u64;
        b.iter(|| {
            t += 1;
            for kind in MetricKind::ALL {
                daemon.ingest(MetricSample {
                    tick: t,
                    component: comp,
                    kind,
                    value: black_box(40.0 + (t % 9) as f64),
                });
            }
        });
    });

    // Normal fluctuation modeling over 1000 samples.
    c.bench_function("table2/normal_fluctuation_modeling_1000", |b| {
        let series = sample_series(1000, 1);
        b.iter(|| {
            let mut l = OnlineLearner::new(LearnerConfig::default());
            black_box(l.train_errors(&series))
        });
    });

    // Abnormal change point selection over a 100-sample window (all six
    // metrics of one component) on a daemon fed beforehand: modeling
    // happened at ingest, so only the violation-time analysis is timed.
    c.bench_function("table2/abnormal_change_point_selection_100", |b| {
        let case = component_case();
        let daemon = SlaveDaemon::new(FChainConfig::default());
        for sample in MetricSample::replay(case.id, &case.metrics) {
            daemon.ingest(sample);
        }
        b.iter(|| black_box(daemon.analyze(case.id, 999)));
    });

    // Integrated fault diagnosis over 10 components.
    c.bench_function("table2/integrated_fault_diagnosis", |b| {
        let fs = findings(10);
        b.iter(|| {
            black_box(pinpoint(&PinpointInput {
                findings: &fs,
                dependencies: None,
                concurrency_threshold: 2,
                external_quorum: 1.0,
            }))
        });
    });

    eprintln!(
        "table2/online_validation_per_component: ~30 s simulated observation \
         period per component (testbed-bound, not CPU; see ScalingOracle)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_modules
}
criterion_main!(benches);
