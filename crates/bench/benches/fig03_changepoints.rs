//! Fig. 3 — change point selection on the DiskWrite metric of a faulty
//! map node versus the CPU metric of a normal reduce node in a Hadoop
//! run: raw CUSUM+bootstrap discovers many change points on both; FChain's
//! predictability filter keeps only the faulty map's abnormal one.
use fchain_core::FChain;
use fchain_detect::{CusumConfig, CusumDetector};
use fchain_eval::case_from_run;
use fchain_metrics::{smooth, ComponentId, MetricKind};
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use serde_json::json;

fn main() {
    let run = Simulator::new(RunConfig::new(
        AppKind::Hadoop,
        FaultKind::ConcurrentDiskHog,
        11,
    ))
    .run();
    let case = case_from_run(&run, 500).expect("violation");
    let detector = CusumDetector::new(CusumConfig::default());
    let report = FChain::default().diagnose(&case);
    let mut blocks = Vec::new();

    for (label, comp, metric) in [
        (
            "faulty map node / DiskWrite",
            ComponentId(0),
            MetricKind::DiskWrite,
        ),
        ("normal reduce node / CPU", ComponentId(4), MetricKind::Cpu),
    ] {
        let window = case.window(comp, metric);
        let smoothed = smooth::moving_average(window, 2);
        let cps = detector.detect(&smoothed);
        let raw: Vec<u64> = cps
            .iter()
            .map(|c| case.window_start() + c.index as u64)
            .collect();
        let selected: Vec<u64> = report
            .findings
            .iter()
            .filter(|f| f.id == comp)
            .flat_map(|f| &f.changes)
            .filter(|ch| ch.metric == metric)
            .map(|ch| ch.change_at)
            .collect();
        println!("{label} (fault at t={}):", run.fault.start);
        println!("  CUSUM+bootstrap change points: {raw:?}");
        println!("  FChain-selected abnormal:      {selected:?}");
        blocks.push(json!({
            "series": label, "fault_start": run.fault.start,
            "cusum_change_points": raw, "selected_abnormal": selected,
        }));
    }
    fchain_bench::dump_json("fig03_changepoints", &blocks);
}
