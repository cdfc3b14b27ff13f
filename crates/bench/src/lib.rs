//! Shared plumbing for the benchmark targets that regenerate every table
//! and figure of the paper.
//!
//! Each `fig*`/`table*` bench target (see `benches/`) builds the campaign
//! for one experiment, runs every scheme over the same simulated runs, and
//! prints the precision/recall rows the paper plots. Run counts follow the
//! paper (30 per fault) and can be scaled with the `FCHAIN_RUNS`
//! environment variable; results are also dumped as JSON next to the text
//! output for diffing across code versions.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use fchain_baselines::{
    DependencyScheme, FixedFiltering, HistogramScheme, NetMedic, Pal, TopologyScheme,
};
use fchain_core::{FChain, Localizer};
use fchain_eval::{render, Campaign, CampaignResult, Counts};
use fchain_sim::{AppKind, FaultKind};
use serde_json::json;
use std::io::Write as _;

/// Threshold sweep used for the Histogram scheme's ROC curve.
pub const HISTOGRAM_SWEEP: [f64; 5] = [0.02, 0.05, 0.1, 0.2, 0.4];
/// Delta sweep used for NetMedic's ROC curve.
pub const NETMEDIC_SWEEP: [f64; 4] = [0.02, 0.1, 0.3, 0.6];
/// Threshold sweep (window-sigma units) for Fixed-Filtering.
pub const FIXED_SWEEP: [f64; 5] = [0.2, 0.5, 1.0, 2.0, 4.0];

/// The full scheme roster of the paper's comparison figures: FChain, the
/// Histogram sweep, the NetMedic sweep, Topology, Dependency and PAL.
pub fn comparison_schemes() -> Vec<Box<dyn Localizer + Sync>> {
    let mut schemes: Vec<Box<dyn Localizer + Sync>> = vec![Box::new(FChain::default())];
    for t in HISTOGRAM_SWEEP {
        schemes.push(Box::new(Named::new(
            format!("Histogram(t={t})"),
            HistogramScheme::new(t),
        )));
    }
    for d in NETMEDIC_SWEEP {
        schemes.push(Box::new(Named::new(
            format!("NetMedic(d={d})"),
            NetMedic::new(d),
        )));
    }
    schemes.push(Box::new(TopologyScheme::default()));
    schemes.push(Box::new(DependencyScheme::default()));
    schemes.push(Box::new(Pal::default()));
    schemes
}

/// The Fixed-Filtering sweep plus FChain (Fig. 12's roster).
pub fn fixed_filtering_schemes() -> Vec<Box<dyn Localizer + Sync>> {
    let mut schemes: Vec<Box<dyn Localizer + Sync>> = vec![Box::new(FChain::default())];
    for s in FIXED_SWEEP {
        schemes.push(Box::new(Named::new(
            format!("Fixed(s={s})"),
            FixedFiltering::new(s),
        )));
    }
    schemes
}

/// Wraps a scheme under a display name carrying its swept parameter.
#[derive(Debug)]
pub struct Named<L> {
    name: String,
    inner: L,
}

impl<L> Named<L> {
    /// Names a scheme instance.
    pub fn new(name: String, inner: L) -> Self {
        Named { name, inner }
    }
}

impl<L: Localizer> Localizer for Named<L> {
    fn name(&self) -> &str {
        &self.name
    }
    fn localize(&self, case: &fchain_core::CaseData) -> Vec<fchain_metrics::ComponentId> {
        self.inner.localize(case)
    }
}

/// Runs one figure: for each fault, evaluate `schemes` over a fresh
/// campaign and print (and JSON-dump) the block.
pub fn run_figure(
    figure: &str,
    app: AppKind,
    faults: &[FaultKind],
    schemes: &[Box<dyn Localizer + Sync>],
) {
    let refs: Vec<&(dyn Localizer + Sync)> = schemes.iter().map(|b| b.as_ref()).collect();
    let mut doc = Vec::new();
    for (i, &fault) in faults.iter().enumerate() {
        let campaign = Campaign::new(app, fault, 1000 + 97 * i as u64);
        let results = campaign.evaluate(&refs);
        let title = format!(
            "{figure}: {app} / {fault} ({} runs, W={})",
            campaign.runs, campaign.lookback
        );
        print!("{}", render::campaign_block(&title, &results));
        println!();
        doc.push(json_block(&title, &results));
    }
    dump_json(figure, &doc);
}

/// Serializes one experiment block for the JSON dump.
pub fn json_block(title: &str, results: &[CampaignResult]) -> serde_json::Value {
    json!({
        "title": title,
        "schemes": results.iter().map(|r| json!({
            "name": r.scheme,
            "precision": r.counts.precision(),
            "recall": r.counts.recall(),
            "tp": r.counts.tp, "fp": r.counts.fp, "fn": r.counts.fn_,
        })).collect::<Vec<_>>(),
    })
}

/// Writes the JSON dump of one figure under the workspace's
/// `target/fchain-results/` (cargo runs benches from the package root, so
/// the directory is resolved from this crate's manifest, two levels down).
pub fn dump_json(figure: &str, blocks: &[serde_json::Value]) {
    let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    let dir = workspace.join("target/fchain-results");
    if std::fs::create_dir_all(&dir).is_err() {
        return; // cosmetics only; the text output is the deliverable
    }
    let path = dir.join(format!("{figure}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&json!({ "figure": figure, "blocks": blocks }))
                .expect("serializable")
        );
        eprintln!("[{figure}] JSON written to {}", path.display());
    }
}

/// Formats a single `(scheme, counts)` row for quick printing.
pub fn row(name: &str, c: &Counts) -> String {
    format!("{name:<28} P={:.2} R={:.2}", c.precision(), c.recall())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_have_expected_sizes() {
        assert_eq!(comparison_schemes().len(), 1 + 5 + 4 + 3);
        assert_eq!(fixed_filtering_schemes().len(), 1 + 5);
    }

    #[test]
    fn named_wrapper_delegates() {
        let named = Named::new("X(1)".into(), Pal::default());
        assert_eq!(named.name(), "X(1)");
    }
}
