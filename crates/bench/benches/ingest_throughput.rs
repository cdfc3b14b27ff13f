//! Sustained ingest throughput and tiered-storage footprint of the one
//! ingest path, `SlaveDaemon::ingest_batch_for`, written to
//! `BENCH_ingest.json` at the repository root.
//!
//! The load is a synthetic monitoring fleet: every component carries six
//! step-quantized 1 Hz metrics, and component `c` belongs to tenant
//! `c % 4`. Four scoped writer threads each own one tenant's components
//! and send one batch per tick (all of that tenant's samples for the
//! tick, component by component) — the shape an `fchaind` wire server
//! applies for each `IngestBatch` frame. Two profiles:
//!
//! * **Throughput** — 2 000 components × 6 metrics × 600 ticks at the
//!   default `W = 100`: sustained metrics/sec over the wall clock.
//! * **Tiering** — the paper's slow-fault regime (`W = 500`, per-metric
//!   history 4 000 ticks): 500 components pumped past full warm-up so
//!   every value series carries a maximal cold tier (the error ring is
//!   all hot: prediction errors do not compress), then the hot/cold/flat
//!   byte split, projected to a 10 000-component fleet.
//!
//! Invariants asserted in-process (CI re-checks the written JSON):
//! * no sample is dropped (the `ingest_dropped_samples` delta is 0);
//! * the sustained rate clears the CI floor (250 k metrics/sec);
//! * the warmed cold tier compresses to at most 35 % of the flat-ring
//!   bytes it replaces.

use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::FChainConfig;
use fchain_metrics::{AppId, ComponentId, MetricKind, Tick};
use fchain_obs as obs;
use serde_json::{json, Value};
use std::time::Instant;

/// The CI-safe sustained-rate floor, in metrics/sec. Two-core runners
/// oversubscribe the 4 writers; workstation numbers are an order of
/// magnitude above this.
const RATE_FLOOR: f64 = 250_000.0;

/// Tenants, one writer thread each.
const TENANTS: usize = 4;

/// One load profile: `components` × 6 metrics × `ticks` samples into a
/// daemon configured at look-back `lookback`.
struct Profile {
    components: usize,
    ticks: Tick,
    lookback: u64,
}

const THROUGHPUT: Profile = Profile {
    components: 2_000,
    ticks: 600,
    lookback: 100,
};

const TIERING: Profile = Profile {
    components: 500,
    ticks: 4_200,
    lookback: 500,
};

/// What one profile run measured.
struct Measured {
    samples: u64,
    rate: f64,
    hot: usize,
    cold: usize,
    flat: usize,
    row: Value,
}

/// The synthetic reading: a step-quantized signal holding each level for
/// six ticks — what 1 Hz system metrics look like between faults.
fn value(component: usize, kind: MetricKind, tick: Tick) -> f64 {
    let step = (tick / 6) * (kind.index() as u64 + 2) + 7 * component as u64;
    40.0 + (step % 5) as f64
}

fn run(profile: &Profile) -> Measured {
    let daemon = SlaveDaemon::new(FChainConfig::with_lookback(profile.lookback));
    let before = obs::snapshot();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let daemon = &daemon;
            scope.spawn(move || {
                let app = AppId(tenant as u32);
                let owned: Vec<usize> = (tenant..profile.components).step_by(TENANTS).collect();
                let mut batch = Vec::with_capacity(owned.len() * MetricKind::ALL.len());
                for tick in 0..profile.ticks {
                    batch.clear();
                    for &c in &owned {
                        for kind in MetricKind::ALL {
                            batch.push(MetricSample {
                                tick,
                                component: ComponentId(c as u32),
                                kind,
                                value: value(c, kind, tick),
                            });
                        }
                    }
                    daemon.ingest_batch_for(app, &batch);
                }
            });
        }
    });
    let wall_clock = started.elapsed();
    let dropped = obs::snapshot()
        .delta_since(&before)
        .counter(obs::Counter::IngestDroppedSamples);
    assert_eq!(dropped, 0, "a clean feed must lose no sample");
    let samples = (profile.components * MetricKind::ALL.len()) as u64 * profile.ticks;
    let rate = samples as f64 / wall_clock.as_secs_f64();
    let (hot, cold, flat) = daemon.storage_tier_bytes();
    let row = json!({
        "components": profile.components,
        "ticks": profile.ticks,
        "lookback": profile.lookback,
        "tenants": TENANTS,
        "samples": samples,
        "wall_clock_ms": wall_clock.as_secs_f64() * 1e3,
        "sustained_metrics_per_sec": rate,
        "dropped_samples": dropped,
        "hot_bytes": hot,
        "cold_bytes": cold,
        "flat_ring_bytes": flat,
        "cold_over_flat": cold as f64 / flat as f64,
        "tiered_over_flat": (hot + cold) as f64 / flat as f64,
        "daemon_bytes": daemon.approx_memory_bytes(),
    });
    Measured {
        samples,
        rate,
        hot,
        cold,
        flat,
        row,
    }
}

fn main() {
    let throughput = run(&THROUGHPUT);
    assert!(
        throughput.rate >= RATE_FLOOR,
        "sustained ingest collapsed: {:.0} metrics/sec < {RATE_FLOOR:.0}",
        throughput.rate
    );
    println!(
        "throughput: {} samples -> {:.2} M metrics/sec",
        throughput.samples,
        throughput.rate / 1e6
    );

    let tiering = run(&TIERING);
    let cold_over_flat = tiering.cold as f64 / tiering.flat as f64;
    assert!(
        cold_over_flat <= 0.35,
        "cold tier stopped compressing: {cold_over_flat:.3} of flat-ring bytes"
    );
    // Tier bytes scale linearly in components: every component carries
    // the same 12 fully-warmed series.
    let scale = 10_000.0 / TIERING.components as f64;
    let projected = json!({
        "components": 10_000,
        "hot_bytes": (tiering.hot as f64 * scale) as u64,
        "cold_bytes": (tiering.cold as f64 * scale) as u64,
        "flat_ring_bytes": (tiering.flat as f64 * scale) as u64,
        "tiered_bytes": ((tiering.hot + tiering.cold) as f64 * scale) as u64,
    });
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    println!(
        "tiering (W=500, {} components warmed): hot {:.1} MiB + cold {:.1} MiB \
         vs {:.1} MiB flat (cold/flat {cold_over_flat:.3})",
        TIERING.components,
        mib(tiering.hot),
        mib(tiering.cold),
        mib(tiering.flat),
    );

    let report = json!({
        "report": "ingest_throughput",
        "host_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "throughput": throughput.row,
        "tiering": {
            "measured": tiering.row,
            "projected_10k": projected,
        },
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    let rendered = serde_json::to_string_pretty(&report).expect("render BENCH_ingest.json");
    std::fs::write(path, rendered + "\n").expect("write BENCH_ingest.json");
    println!("wrote {path}");
}
