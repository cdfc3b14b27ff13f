//! Fig. 4 — the expected prediction error tracks the burstiness of the
//! time series: sliding the FFT burst-magnitude estimator over a CPU
//! series yields high thresholds in bursty segments and low ones when the
//! series is stable.
use fchain_eval::render;
use fchain_metrics::fft::FftPlan;
use fchain_metrics::{ComponentId, MetricKind};
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use serde_json::json;

fn main() {
    // A fault-free prefix of a Hadoop map node's CPU: phase activity plus
    // bursts provides the stable/bursty alternation the figure shows.
    let run = Simulator::new(
        RunConfig::new(AppKind::Hadoop, FaultKind::ConcurrentCpuHog, 5)
            .with_fault_window(0.9, 0.95),
    )
    .run();
    let series = run.metric(ComponentId(0), MetricKind::Cpu);
    let values = series.window(200, 1400);
    let q = 20usize;
    let mut ticks = Vec::new();
    let mut expected = Vec::new();
    let mut plan = FftPlan::new();
    for center in (q..values.len() - q).step_by(10) {
        let window = &values[center - q..=center + q];
        ticks.push(200.0 + center as f64);
        expected.push(plan.burst_magnitude(window, 0.9, 90.0));
    }
    println!("expected prediction error along a map node CPU series:");
    println!("{}", render::series_line("t", &ticks));
    println!("{}", render::series_line("expected_err", &expected));
    let lo = expected.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = expected.iter().copied().fold(0.0f64, f64::max);
    println!(
        "range: min {lo:.2} max {hi:.2} (bursty segments get ~{:.0}x the stable threshold)",
        hi / lo.max(1e-9)
    );
    fchain_bench::dump_json(
        "fig04_burst_threshold",
        &[json!({"t": ticks, "expected_error": expected})],
    );
}
