//! The violation-time screen's accounting, in its own test binary
//! because the `fchain-obs` registry is process-global: a batch and a
//! streaming daemon fed the same stream count every analyzed metric
//! exactly once, the streaming daemon counts the metrics its early screen
//! rejects, and that screen is timed under the selection stage.

use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::{AnalysisEngine, CollectRequest, FChainConfig};
use fchain::metrics::{ComponentId, MetricKind};
use fchain::obs;

const COMPONENTS: u32 = 3;
const TICKS: u64 = 1000;

/// Three components with light periodic noise; component 0's CPU steps
/// up 50 ticks before the end, so one metric survives the screen.
fn feed(daemon: &SlaveDaemon) {
    for c in 0..COMPONENTS {
        for kind in MetricKind::ALL {
            for t in 0..TICKS {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                let fault = c == 0 && kind == MetricKind::Cpu && t >= TICKS - 50;
                daemon.ingest(MetricSample {
                    tick: t,
                    component: ComponentId(c),
                    kind,
                    value: if fault { normal + 50.0 } else { normal },
                });
            }
        }
    }
}

#[test]
fn early_screen_counts_each_metric_once_and_times_it_as_selection() {
    let request = CollectRequest::at(TICKS - 1);
    let mut runs = Vec::new();
    for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
        let daemon = SlaveDaemon::new(FChainConfig {
            engine,
            ..FChainConfig::default()
        });
        feed(&daemon);
        let before = obs::snapshot();
        let findings = daemon.analyze_all(None, &request);
        runs.push((findings, obs::snapshot().delta_since(&before)));
    }
    let (batch_findings, batch) = &runs[0];
    let (streaming_findings, streaming) = &runs[1];
    assert_eq!(batch_findings, streaming_findings);
    assert!(
        streaming_findings.iter().any(|f| f.onset().is_some()),
        "the CPU step must be selected"
    );

    let series = u64::from(COMPONENTS) * MetricKind::ALL.len() as u64;
    assert_eq!(batch.counter(obs::Counter::MetricsAnalyzed), series);
    assert_eq!(streaming.counter(obs::Counter::MetricsAnalyzed), series);
    assert_eq!(batch.counter(obs::Counter::StreamingScreened), 0);
    let screened = streaming.counter(obs::Counter::StreamingScreened);
    assert!(
        screened > 0 && screened < series,
        "screened {screened} of {series}"
    );
    let selection = streaming
        .stage(obs::Stage::SlaveSelection)
        .map_or(0, |s| s.count);
    assert!(
        selection >= series,
        "{selection} selection spans for {series} metrics"
    );
}
