//! Ablation studies for FChain's design choices and extensions:
//!
//! * **look-back widen retry** (paper §III.F's adaptive window, ongoing
//!   work): the master re-asks once over a 4× window when the first
//!   answer pinpoints nothing — measured on the slow-manifesting DiskHog
//!   fault at W=100, where the fixed window misses the onset;
//! * **dependency refinement off**: FChain without discovered
//!   dependencies on the two-app-server bugs, where sibling rescue is the
//!   only way to recover the second culprit;
//! * **external workload change**: how often each scheme wrongly blames a
//!   component when the anomaly is a client-side surge (ground truth:
//!   blame nobody).
use fchain_baselines::{HistogramScheme, NetMedic, Pal, TopologyScheme};
use fchain_core::{CaseData, FChain, FChainConfig, Localizer, LookbackRetry};
#[allow(unused_imports)]
use fchain_eval::{render, Campaign, Counts};
use fchain_metrics::ComponentId;
use fchain_sim::{AppKind, FaultKind};
use serde_json::json;

/// FChain with the dependency information withheld.
#[derive(Debug)]
struct NoDeps(FChain);

impl Localizer for NoDeps {
    fn name(&self) -> &str {
        "FChain(no-deps)"
    }
    fn localize(&self, case: &CaseData) -> Vec<ComponentId> {
        let mut stripped = case.clone();
        stripped.discovered_deps = None;
        self.0.localize(&stripped)
    }
}

fn main() {
    let mut blocks = Vec::new();

    // --- look-back widen retry on DiskHog at W=100 ---------------------
    let fixed = FChain::default();
    let widen = FChain::new(FChainConfig {
        lookback_retry: LookbackRetry::Widen,
        ..FChainConfig::default()
    });
    let campaign =
        Campaign::new(AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 9000).with_lookback(100);
    let results = campaign.evaluate(&[&fixed, &widen]);
    let rows: Vec<(String, Counts)> = vec![
        ("FChain (fixed W=100)".into(), results[0].counts),
        ("FChain (widen retry)".into(), results[1].counts),
    ];
    print!(
        "{}",
        render::roc_block(
            "ablation: look-back widen retry, hadoop/conc_diskhog",
            &rows
        )
    );
    println!();
    blocks.push(json!({"ablation": "lookback_retry", "rows": rows
        .iter().map(|(n, c)| json!({"name": n, "p": c.precision(), "r": c.recall()})).collect::<Vec<_>>()}));

    // --- dependency refinement on the two-app-server bugs --------------
    let with_deps = FChain::default();
    let without = NoDeps(FChain::default());
    for fault in [FaultKind::OffloadBug, FaultKind::LbBug] {
        let campaign = Campaign::new(AppKind::Rubis, fault, 9200);
        let results = campaign.evaluate(&[&with_deps, &without]);
        let rows: Vec<(String, Counts)> = results
            .iter()
            .map(|r| (r.scheme.clone(), r.counts))
            .collect();
        print!(
            "{}",
            render::roc_block(
                &format!("ablation: dependency refinement, rubis/{fault}"),
                &rows
            )
        );
        println!();
        blocks.push(json!({"ablation": "dependency_refinement", "fault": fault.name(),
            "rows": rows.iter().map(|(n, c)| json!({"name": n, "p": c.precision(), "r": c.recall()})).collect::<Vec<_>>()}));
    }

    // --- external workload surge: who wrongly blames components? -------
    let fchain = FChain::default();
    let pal = Pal::default();
    let topo = TopologyScheme::default();
    let hist = HistogramScheme::new(0.2);
    let netmedic = NetMedic::new(0.1);
    let schemes: Vec<&(dyn Localizer + Sync)> = vec![&fchain, &pal, &topo, &hist, &netmedic];
    let campaign = Campaign::new(AppKind::Rubis, FaultKind::WorkloadSurge, 9300);
    let results = campaign.evaluate(&schemes);
    println!("== ablation: external workload surge, rubis (truth: blame nobody) ==");
    println!(
        "{:<28} {:>18} {:>12}",
        "scheme", "false positives", "clean runs"
    );
    for r in &results {
        let clean = r
            .outcomes
            .iter()
            .filter(|o| o.pinpointed.is_empty())
            .count();
        println!(
            "{:<28} {:>18} {:>9}/{}",
            r.scheme,
            r.counts.fp,
            clean,
            r.outcomes.len()
        );
        blocks.push(json!({"ablation": "workload_surge", "scheme": r.scheme,
            "fp": r.counts.fp, "clean": clean, "runs": r.outcomes.len()}));
    }
    // --- dependency discovery methods: Sherlock-style gaps vs Orion-style
    // delay spikes, per application ----------------------------------------
    println!(
        "== ablation: dependency discovery methods (edges recovered / true edges, spurious) =="
    );
    println!(
        "{:<10} {:>22} {:>22}",
        "app", "gap/co-occurrence", "delay spikes (Orion)"
    );
    for app in [AppKind::Rubis, AppKind::Hadoop, AppKind::SystemS] {
        let run = fchain_sim::Simulator::new(fchain_sim::RunConfig::new(
            app,
            match app {
                AppKind::Hadoop => FaultKind::ConcurrentMemLeak,
                _ => FaultKind::MemLeak,
            },
            9400,
        ))
        .run();
        let normal: Vec<_> = run
            .packets
            .iter()
            .filter(|p| p.tick < run.fault.start)
            .copied()
            .collect();
        let truth = &run.model.dataflow;
        let score = |g: &fchain_deps::DependencyGraph| {
            let recovered = truth
                .edges()
                .iter()
                .filter(|&&(a, b)| g.has_edge(a, b))
                .count();
            let spurious = g
                .edges()
                .iter()
                .filter(|&&(a, b)| !truth.has_edge(a, b))
                .count();
            (recovered, truth.edge_count(), spurious)
        };
        let (gr, gt, gs) = score(&fchain_deps::discover(
            &normal,
            &fchain_deps::DiscoveryConfig::default(),
        ));
        let (or, ot, os) = score(&fchain_deps::discover_orion(
            &normal,
            &fchain_deps::OrionConfig::default(),
        ));
        println!(
            "{:<10} {:>15}/{} +{:<3} {:>15}/{} +{:<3}",
            app.name(),
            gr,
            gt,
            gs,
            or,
            ot,
            os
        );
        blocks.push(json!({"ablation": "discovery", "app": app.name(),
            "gap": {"recovered": gr, "total": gt, "spurious": gs},
            "orion": {"recovered": or, "total": ot, "spurious": os}}));
    }

    fchain_bench::dump_json("ablations", &blocks);
}
