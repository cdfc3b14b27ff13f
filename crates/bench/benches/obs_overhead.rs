//! Instrumented-vs-uninstrumented diagnosis latency.
//!
//! The observability layer claims "zero allocation, a handful of relaxed
//! atomics" on the hot path; this bench proves the bound end to end. One
//! binary runs the same master fan-out diagnosis twice: once with the runtime recording
//! switch on, once with it off — so the comparison isolates exactly the
//! cost of the recording calls, on identical code, identical state and
//! identical inputs. Reports from both runs are asserted equal before any
//! timing happens.
//!
//! Results go to `BENCH_obs.json` at the repository root; the run panics
//! (failing CI) if the instrumented median exceeds the uninstrumented one
//! by more than 5%.

use criterion::{black_box, Criterion};
use fchain_core::master::Master;
use fchain_core::FChain;
use fchain_eval::case_from_run;
use fchain_obs as obs;
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use serde_json::json;
use std::time::Duration;

/// The allowed instrumented/uninstrumented median latency ratio.
const MAX_OVERHEAD_RATIO: f64 = 1.05;

/// The standard two-host deployment of the seeded RUBiS CpuHog run, as
/// `FChain::diagnose` stages it: every sample replayed and retained.
fn seeded_master() -> (Master, u64) {
    let run = Simulator::new(RunConfig::new(AppKind::Rubis, FaultKind::CpuHog, 900)).run();
    let case = case_from_run(&run, 100).expect("seeded RUBiS run must produce a violation");
    (FChain::default().master(&case, 2), case.violation_at)
}

fn main() {
    assert!(obs::enabled(), "the runtime recording switch must start on");
    let (master, violation_at) = seeded_master();

    // Instrumentation must be observation only: the same diagnosis with
    // recording on and off produces the same report.
    obs::set_enabled(true);
    let instrumented_report = master.on_violation(violation_at);
    obs::set_enabled(false);
    let uninstrumented_report = master.on_violation(violation_at);
    assert_eq!(
        instrumented_report, uninstrumented_report,
        "recording switch changed the diagnosis payload"
    );
    assert!(
        !instrumented_report.pinpointed.is_empty(),
        "the seeded fault case must pinpoint something"
    );

    let mut criterion = Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_secs(2))
        .measurement_time(Duration::from_secs(6))
        .configure_from_args();
    obs::set_enabled(false);
    criterion.bench_function("obs_overhead/rubis_4c/uninstrumented", |b| {
        b.iter(|| black_box(master.on_violation(black_box(violation_at))))
    });
    obs::set_enabled(true);
    criterion.bench_function("obs_overhead/rubis_4c/instrumented", |b| {
        b.iter(|| black_box(master.on_violation(black_box(violation_at))))
    });
    criterion.final_summary();

    let summaries = criterion.summaries();
    let median = |suffix: &str| {
        summaries
            .iter()
            .find(|s| s.id.ends_with(suffix))
            .map(|s| s.median_ns)
            .unwrap_or(f64::NAN)
    };
    let off = median("/uninstrumented");
    let on = median("/instrumented");
    let ratio = on / off;

    // What the instrumented runs actually recorded, for the span map.
    let snapshot = obs::snapshot();
    let stage_totals: Vec<_> = snapshot
        .stages
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| {
            json!({
                "stage": s.stage,
                "count": s.count,
                "total_ns": s.total_ns,
                "mean_ns": s.mean_ns(),
            })
        })
        .collect();

    let payload = json!({
        "bench": "obs_overhead",
        "case": {
            "app": "Rubis",
            "fault": "CpuHog",
            "seed": 900,
            "lookback": 100,
            "violation_at": violation_at,
        },
        "host_parallelism": std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        "note": "both variants run the SAME binary; the runtime switch \
                 isolates the recording cost.",
        "median_ns": { "uninstrumented": off, "instrumented": on },
        "overhead_ratio": ratio,
        "max_allowed_ratio": MAX_OVERHEAD_RATIO,
        "results": summaries.iter().map(|s| json!({
            "id": s.id,
            "min_ns": s.min_ns,
            "median_ns": s.median_ns,
            "mean_ns": s.mean_ns,
            "max_ns": s.max_ns,
            "samples": s.samples,
            "iters_per_sample": s.iters_per_sample,
        })).collect::<Vec<_>>(),
        "instrumented_stage_totals": stage_totals,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let rendered = serde_json::to_string_pretty(&payload).expect("serializable payload");
    std::fs::write(path, rendered + "\n").expect("write BENCH_obs.json");
    println!("wrote {path}");
    println!("medians: uninstrumented {off:.0} ns, instrumented {on:.0} ns (ratio {ratio:.4})");
    assert!(
        ratio <= MAX_OVERHEAD_RATIO,
        "instrumentation overhead {:.2}% exceeds the {:.0}% budget",
        (ratio - 1.0) * 100.0,
        (MAX_OVERHEAD_RATIO - 1.0) * 100.0
    );
}
