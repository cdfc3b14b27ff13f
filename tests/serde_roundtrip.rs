//! Serialization integration: every data structure that crosses a process
//! boundary (slave → master, run archives, result dumps) round-trips
//! through serde_json unchanged.

use fchain::core::{CaseData, DiagnosisReport, FChain, FChainConfig, LookbackRetry};
use fchain::deps::DependencyGraph;
use fchain::eval::{case_from_run, Counts, RocCurve};
use fchain::metrics::{ComponentId, MetricKind, TimeSeries};
use fchain::sim::{AppKind, FaultKind, RunConfig, RunRecord, Simulator};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

fn sample_run() -> RunRecord {
    Simulator::new(RunConfig::new(AppKind::Rubis, FaultKind::CpuHog, 3).with_duration(900)).run()
}

#[test]
fn run_record_roundtrips() {
    let run = sample_run();
    let back: RunRecord = roundtrip(&run);
    assert_eq!(back.fault, run.fault);
    assert_eq!(back.violation_at, run.violation_at);
    assert_eq!(back.packets, run.packets);
    assert_eq!(
        back.metric(ComponentId(3), MetricKind::Cpu).values(),
        run.metric(ComponentId(3), MetricKind::Cpu).values()
    );
}

#[test]
fn case_and_report_roundtrip_and_rediagnose_identically() {
    let run = sample_run();
    let case = case_from_run(&run, 100).expect("violation");
    let back: CaseData = roundtrip(&case);
    let fchain = FChain::default();
    let original: DiagnosisReport = fchain.diagnose(&case);
    let replayed = fchain.diagnose(&back);
    assert_eq!(original.pinpointed, replayed.pinpointed);
    assert_eq!(original.verdict, replayed.verdict);

    let report_back: DiagnosisReport = roundtrip(&original);
    assert_eq!(report_back.pinpointed, original.pinpointed);
    assert_eq!(
        report_back.propagation_chain(),
        original.propagation_chain()
    );
}

#[test]
fn config_roundtrips_with_every_knob() {
    let config = FChainConfig {
        lookback: 500,
        burst_window: 25,
        concurrency_threshold: 5,
        lookback_retry: LookbackRetry::Widen,
        ..FChainConfig::default()
    };
    let back: FChainConfig = roundtrip(&config);
    assert_eq!(back, config);
}

/// Configs archived while the transport, the fleet knobs, the ensemble
/// tuning and the adaptive look-back and smoothing switches were settable
/// carry a `transport` name, a `fleet` map, a five-key `ensemble` map and
/// two booleans. They still load: the retired keys are ignored and the
/// ensemble switch is kept.
#[test]
fn archived_fleet_and_ensemble_keys_still_load() {
    let config = FChainConfig {
        lookback: 500,
        ..FChainConfig::default()
    };
    let mut tree: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&config).expect("serialize"))
            .expect("config JSON parses");
    let serde_json::Value::Map(entries) = &mut tree else {
        panic!("config must serialize to a map");
    };
    let before = entries.len();
    entries.retain(|(k, _)| k.as_str() != Some("ensemble"));
    assert_eq!(entries.len(), before - 1, "ensemble field not serialized");
    let archived_keys: serde_json::Value = serde_json::from_str(
        r#"{
            "transport": "uds",
            "adaptive_lookback": true,
            "adaptive_smoothing": true,
            "fleet": {"max_tenants": 16, "scheduler_seed": 99, "tenant_deadline_ms": 750},
            "ensemble": {"enabled": true, "confidence_floor": 1.5, "coverage_penalty": 2.0,
                         "centrality_widening": false, "silent_hole": false}
        }"#,
    )
    .expect("archived keys parse");
    let serde_json::Value::Map(archived_entries) = archived_keys else {
        panic!("archived keys must parse to a map");
    };
    entries.extend(archived_entries);

    let archived: FChainConfig =
        serde_json::from_str(&serde_json::to_string(&tree).expect("serialize"))
            .expect("archived config still loads");
    assert!(archived.ensemble.enabled, "the ensemble switch is kept");
    assert_eq!(archived.lookback, config.lookback);
    let mut expected = config;
    expected.ensemble.enabled = true;
    assert_eq!(archived, expected);
}

#[test]
fn dependency_graph_roundtrips() {
    let g = DependencyGraph::from_edges([
        (ComponentId(0), ComponentId(1)),
        (ComponentId(1), ComponentId(2)),
    ]);
    let back: DependencyGraph = roundtrip(&g);
    assert_eq!(back, g);
    assert!(back.has_directed_path(ComponentId(0), ComponentId(2)));
}

#[test]
fn scores_and_curves_roundtrip() {
    let counts = Counts {
        tp: 9,
        fp: 2,
        fn_: 1,
    };
    assert_eq!(roundtrip(&counts), counts);
    let curve = RocCurve::from_counts([
        (0.1, counts),
        (
            0.5,
            Counts {
                tp: 5,
                fp: 0,
                fn_: 5,
            },
        ),
    ]);
    let back: RocCurve = roundtrip(&curve);
    assert_eq!(back, curve);
    assert!((back.auc() - curve.auc()).abs() < 1e-12);
}

#[test]
fn time_series_roundtrips_with_anchor() {
    let ts = TimeSeries::from_samples(42, vec![1.5, 2.5, 3.5]);
    let back: TimeSeries = roundtrip(&ts);
    assert_eq!(back, ts);
    assert_eq!(back.at(43), Some(2.5));
}
