//! Diagnosis hot-path latency: violation → per-component abnormal-change
//! findings, timed through real [`SlaveDaemon`]s.
//!
//! * `rubis_4c/{sequential,parallel}` — the seeded 4-component RUBiS
//!   CpuHog case answered by one daemon through the single-threaded
//!   per-component loop (`SlaveDaemon::analyze` over every monitored
//!   component) and through `analyze_all`, which fans components out
//!   across scoped threads.
//! * `engines/<scenario>/{batch,streaming}` — two identically-fed daemons,
//!   one per analysis engine, on the on-violation path.
//!
//! Before timing, the per-component loop and `analyze_all`, and the two
//! engines, are asserted to produce identical findings, and the streaming
//! engine's CUSUM permutation memo must serve at least one segment test in
//! each engine scenario. Results (plus the host's available parallelism,
//! so single-core CI numbers are interpretable, and the memo's hits,
//! admits and misses over each timed streaming run) are written to
//! `BENCH_diagnosis.json` at the repository root.

use criterion::{black_box, Criterion};
use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{AnalysisEngine, CollectRequest, ComponentFinding, FChainConfig};
use fchain_eval::case_from_run;
use fchain_metrics::Tick;
use fchain_obs::{self as obs, Counter};
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use serde_json::json;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Engine comparison: batch vs streaming daemons on the on-violation path.
// ---------------------------------------------------------------------------

/// One engine-comparison scenario: two identically-fed daemons (batch and
/// streaming engines) plus the violation tick to analyze at.
struct EngineScenario {
    label: &'static str,
    app: AppKind,
    fault: FaultKind,
    seed: u64,
    lookback: u64,
    violation_at: Tick,
    components: usize,
    batch: SlaveDaemon,
    streaming: SlaveDaemon,
}

/// Builds the scenario from the first seed (starting at `seed_from`)
/// whose simulated run produces an SLO violation at the given look-back —
/// deterministic, since the search order is fixed.
fn build_engine_scenario(
    label: &'static str,
    app: AppKind,
    fault: FaultKind,
    seed_from: u64,
    lookback: u64,
) -> EngineScenario {
    let (seed, case) = (seed_from..seed_from + 50)
        .find_map(|seed| {
            let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
            case_from_run(&run, lookback).map(|case| (seed, case))
        })
        .expect("no seed in range produced a violation");
    let mut batch_config = FChainConfig::with_lookback(lookback);
    batch_config.engine = AnalysisEngine::Batch;
    let mut streaming_config = FChainConfig::with_lookback(lookback);
    streaming_config.engine = AnalysisEngine::Streaming;
    let batch = SlaveDaemon::new(batch_config);
    let streaming = SlaveDaemon::new(streaming_config);
    for daemon in [&batch, &streaming] {
        for component in &case.components {
            for sample in MetricSample::replay(component.id, &component.metrics) {
                daemon.ingest(sample);
            }
        }
    }
    EngineScenario {
        label,
        app,
        fault,
        seed,
        lookback,
        violation_at: case.violation_at,
        components: case.components.len(),
        batch,
        streaming,
    }
}

/// The single-threaded reference: one `analyze` call per monitored
/// component, in component order.
fn analyze_each(daemon: &SlaveDaemon, violation_at: Tick) -> Vec<ComponentFinding> {
    daemon
        .monitored_components()
        .into_iter()
        .filter_map(|c| daemon.analyze(c, violation_at))
        .collect()
}

fn main() {
    // The sequential/parallel case: the deployed (streaming) daemon on
    // the paper's default window.
    let rubis = build_engine_scenario("rubis_4c", AppKind::Rubis, FaultKind::CpuHog, 900, 100);
    assert_eq!(rubis.seed, 900, "seed drifted");
    assert_eq!(rubis.components, 4, "the RUBiS topology has 4 components");
    let parallel = CollectRequest::at(rubis.violation_at);

    // The parallel fan-out must be a pure speedup: both paths agree on
    // every finding before either is timed.
    let sequential_findings = analyze_each(&rubis.streaming, rubis.violation_at);
    assert_eq!(
        sequential_findings,
        rubis.streaming.analyze_all(None, &parallel),
        "parallel analysis diverged from the per-component loop"
    );
    let abnormal_components = sequential_findings
        .iter()
        .filter(|f| !f.changes.is_empty())
        .count();
    assert!(
        abnormal_components >= 1,
        "the fault case must produce findings"
    );

    // Engine comparison scenarios: the paper's default window (W=100) on
    // the System S CPU hog (7 components / 42 metrics, so the healthy
    // majority the streaming screen skips is representative), and the
    // slow-manifesting disk-hog window (W=500) on Hadoop. Both daemons
    // are asserted to produce bit-identical findings before either is
    // timed, which checks the streaming engine's lane-batched CUSUM
    // bootstrap against the batch engine's scalar loop on real windows.
    let scenarios = [
        build_engine_scenario(
            "systems_cpuhog_w100",
            AppKind::SystemS,
            FaultKind::CpuHog,
            900,
            100,
        ),
        build_engine_scenario(
            "hadoop_diskhog_w500",
            AppKind::Hadoop,
            FaultKind::ConcurrentDiskHog,
            40,
            500,
        ),
    ];
    for s in std::iter::once(&rubis).chain(&scenarios) {
        let request = CollectRequest::at(s.violation_at);
        let batch_findings = s.batch.analyze_all(None, &request);
        let streaming_findings = s.streaming.analyze_all(None, &request);
        assert_eq!(
            batch_findings, streaming_findings,
            "{}: engines diverge before timing",
            s.label
        );
        assert!(
            batch_findings.iter().any(|f| f.onset().is_some()),
            "{}: the fault case must produce findings",
            s.label
        );
    }

    // The permutation memo is warm after the parity pass: another
    // on-violation pass must gather at least one segment test's
    // reshuffles (the root test recurs across every metric of a window
    // length).
    for s in &scenarios {
        let request = CollectRequest::at(s.violation_at);
        let before = obs::snapshot();
        black_box(s.streaming.analyze_all(None, &request));
        let hits = obs::snapshot()
            .delta_since(&before)
            .counter(Counter::CusumMemoHits);
        assert!(
            hits > 0,
            "{}: the permutation memo served no segment test",
            s.label
        );
    }

    let mut criterion = Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_secs(2))
        .measurement_time(Duration::from_secs(6))
        .configure_from_args();
    criterion.bench_function("diagnosis_latency/rubis_4c/sequential", |b| {
        b.iter(|| {
            black_box(analyze_each(
                &rubis.streaming,
                black_box(rubis.violation_at),
            ))
        })
    });
    criterion.bench_function("diagnosis_latency/rubis_4c/parallel", |b| {
        b.iter(|| black_box(rubis.streaming.analyze_all(None, black_box(&parallel))))
    });
    // The memo's counters over each timed streaming run (warm-up
    // included).
    let mut memo = Vec::new();
    for s in &scenarios {
        let request = CollectRequest::at(s.violation_at);
        criterion.bench_function(
            &format!("diagnosis_latency/engines/{}/batch", s.label),
            |b| b.iter(|| black_box(s.batch.analyze_all(None, black_box(&request)))),
        );
        let before = obs::snapshot();
        criterion.bench_function(
            &format!("diagnosis_latency/engines/{}/streaming", s.label),
            |b| b.iter(|| black_box(s.streaming.analyze_all(None, black_box(&request)))),
        );
        memo.push(obs::snapshot().delta_since(&before));
    }
    criterion.final_summary();

    let summaries = criterion.summaries();
    let median = |suffix: &str| {
        summaries
            .iter()
            .find(|s| s.id.ends_with(suffix))
            .map(|s| s.median_ns)
            .unwrap_or(f64::NAN)
    };
    let seq = median("rubis_4c/sequential");
    let par = median("rubis_4c/parallel");
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let engines: Vec<_> = scenarios
        .iter()
        .zip(&memo)
        .map(|(s, memo)| {
            let batch_ns = median(&format!("{}/batch", s.label));
            let streaming_ns = median(&format!("{}/streaming", s.label));
            json!({
                "scenario": s.label,
                "app": format!("{:?}", s.app),
                "fault": format!("{:?}", s.fault),
                "seed": s.seed,
                "lookback": s.lookback,
                "violation_at": s.violation_at,
                "components": s.components,
                "batch_median_ns": batch_ns,
                "streaming_median_ns": streaming_ns,
                "streaming_speedup": batch_ns / streaming_ns,
                "memo": {
                    "hits": memo.counter(Counter::CusumMemoHits),
                    "admits": memo.counter(Counter::CusumMemoAdmits),
                    "misses": memo.counter(Counter::CusumMemoMisses),
                },
            })
        })
        .collect();
    // Regression guard: the streaming engine moving work to ingest time
    // must never be slower at violation time than the batch reference on
    // the default-window scenario. A regression fails the bench (and the
    // CI job running it) outright.
    {
        let w100_batch = median("systems_cpuhog_w100/batch");
        let w100_streaming = median("systems_cpuhog_w100/streaming");
        assert!(
            w100_streaming <= w100_batch,
            "streaming on-violation median ({w100_streaming:.0} ns) regressed above \
             the batch median ({w100_batch:.0} ns) at W=100"
        );
    }

    let payload = json!({
        "bench": "diagnosis_latency",
        "case": {
            "app": format!("{:?}", rubis.app),
            "fault": format!("{:?}", rubis.fault),
            "seed": rubis.seed,
            "components": rubis.components,
            "lookback": rubis.lookback,
            "violation_at": rubis.violation_at,
            "abnormal_components": abnormal_components,
        },
        "host_parallelism": host_parallelism,
        "note": "parallel fan-out is across components; with host_parallelism = 1 \
                 the parallel path degrades to the sequential loop, so the \
                 parallel-vs-sequential ratio only shows >1 on multi-core hosts",
        "results": summaries.iter().map(|s| json!({
            "id": s.id,
            "min_ns": s.min_ns,
            "median_ns": s.median_ns,
            "mean_ns": s.mean_ns,
            "max_ns": s.max_ns,
            "samples": s.samples,
            "iters_per_sample": s.iters_per_sample,
        })).collect::<Vec<_>>(),
        "speedup": {
            "parallel_vs_sequential": seq / par,
        },
        "engines": engines,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_diagnosis.json");
    let rendered = serde_json::to_string_pretty(&payload).expect("serializable payload");
    std::fs::write(path, rendered + "\n").expect("write BENCH_diagnosis.json");
    println!("wrote {path}");
    println!(
        "medians: sequential {seq:.0} ns, parallel {par:.0} ns ({:.2}x)",
        seq / par
    );
}
