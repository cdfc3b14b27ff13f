//! Traced runs: spans the benchmark records around each public call, and
//! the per-layer metrics derived from them and from `fchain_obs` snapshot
//! deltas taken around every diagnosis.

use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::DiagnosisReport;
use fchain::metrics::AppId;
use fchain::obs::{Counter, PipelineSnapshot, Stage};
use fchain::wire::frame::{decode_frame, encode_frame};
use fchain::wire::{Frame, ResponseStatus};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A named interval around one public call, tied to the incident
/// (operation id) it belongs to and to the span that caused it.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span log of a traced run, written out when it ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id (usable as a parent). A span
    /// whose end is not known yet is recorded with `end == start` and
    /// finished with [`Tracer::close`].
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_ns = nanos(start.saturating_duration_since(self.origin));
        let end_ns = nanos(end.saturating_duration_since(self.origin));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = nanos(end.saturating_duration_since(self.origin));
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals over the traced passes of one run.
#[derive(Default)]
pub struct Layers {
    diagnoses: u64,
    diag_ns: u64,
    stage_ns: [u64; Stage::ALL.len()],
    stage_count: [u64; Stage::ALL.len()],
    counters: [u64; Counter::ALL.len()],
    /// In-process slave ingest, warm-up replay included.
    ingest_ns: u64,
    ingest_samples: u64,
    /// Ingest calls of the timed live section, in-process or over the wire.
    live_calls: u64,
    live_ns: u64,
    live_samples: u64,
    ingest_frame_bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    response_bytes: u64,
    discover_ns: u64,
    discovers: u64,
    storage_samples: u64,
    bytes_per_series: f64,
    hot_bytes: u64,
    cold_bytes: u64,
}

impl Layers {
    pub fn slave_ingest(&mut self, wall: Duration, samples: usize) {
        self.ingest_ns += nanos(wall);
        self.ingest_samples += samples as u64;
    }

    /// One live ingest call, plus the size its batch has as an
    /// `IngestBatch` frame.
    pub fn live_ingest(&mut self, wall: Duration, batch: &[MetricSample]) {
        self.live_calls += 1;
        self.live_ns += nanos(wall);
        self.live_samples += batch.len() as u64;
        let frame = Frame::IngestBatch {
            app: AppId::default(),
            samples: batch.to_vec(),
        };
        self.ingest_frame_bytes += encode_frame(&frame, 1).len() as u64;
    }

    pub fn discover(&mut self, wall: Duration) {
        self.discover_ns += nanos(wall);
        self.discovers += 1;
    }

    /// One diagnosis: its wall time, the pipeline's stage and counter
    /// deltas, and what the per-host `CollectResponse` frames carrying
    /// its findings cost to encode and decode.
    pub fn diagnosis(
        &mut self,
        delta: &PipelineSnapshot,
        wall: Duration,
        report: &DiagnosisReport,
        hosts: usize,
    ) {
        self.diagnoses += 1;
        self.diag_ns += nanos(wall);
        for stage in Stage::ALL {
            if let Some(s) = delta.stage(stage) {
                self.stage_ns[stage.index()] += s.total_ns;
                self.stage_count[stage.index()] += s.count;
            }
        }
        for counter in Counter::ALL {
            self.counters[counter.index()] += delta.counter(counter);
        }
        for h in 0..hosts {
            let frame = Frame::CollectResponse {
                status: ResponseStatus::Ok,
                findings: report
                    .findings
                    .iter()
                    .filter(|f| f.id.index() % hosts == h)
                    .cloned()
                    .collect(),
            };
            let start = Instant::now();
            let bytes = black_box(encode_frame(black_box(&frame), 1));
            let encoded = Instant::now();
            let decoded = black_box(decode_frame(black_box(&bytes)));
            let end = Instant::now();
            assert!(
                matches!(&decoded, Ok((1, back)) if *back == frame),
                "a CollectResponse must survive the codec round trip"
            );
            self.encode_ns += nanos(encoded - start);
            self.decode_ns += nanos(end - encoded);
            self.response_bytes += bytes.len() as u64;
        }
    }

    /// The in-process daemons' storage at the end of one incident.
    pub fn storage(&mut self, daemons: &[Arc<SlaveDaemon>]) {
        let (mut memory, mut series) = (0, 0);
        for daemon in daemons {
            let (hot, cold, _) = daemon.storage_tier_bytes();
            self.hot_bytes += hot as u64;
            self.cold_bytes += cold as u64;
            memory += daemon.approx_memory_bytes();
            series += daemon.monitored_series();
        }
        self.storage_samples += 1;
        self.bytes_per_series += memory as f64 / series.max(1) as f64;
    }

    /// Every per-layer metric as `(name, value, unit)`. Layers that do not
    /// run in this process (slave analysis inside `fchaind`) read 0.
    pub fn metrics(&self, overhead_pct: f64) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let diags = self.diagnoses as f64;
        let stage = |s: Stage| self.stage_ns[s.index()] as f64;
        let counter = |c: Counter| self.counters[c.index()] as f64;
        let analyze = stage(Stage::SlaveAnalyze);
        let fan_out = stage(Stage::MasterFanOut);
        let storage = self.storage_samples as f64;
        let timed = (self.diag_ns + self.live_ns) as f64;
        vec![
            (
                "slave.ingest_ns_per_sample",
                ratio(self.ingest_ns as f64, self.ingest_samples as f64),
                "ns",
            ),
            (
                "slave.bytes_per_series",
                ratio(self.bytes_per_series, storage),
                "B",
            ),
            (
                "slave.hot_mib",
                ratio(self.hot_bytes as f64, storage) / MIB,
                "MiB",
            ),
            (
                "slave.cold_mib",
                ratio(self.cold_bytes as f64, storage) / MIB,
                "MiB",
            ),
            ("slave.analyze_ms", ratio(analyze, diags) / 1e6, "ms"),
            (
                "slave.history_copy_ms",
                ratio((analyze - stage(Stage::SlaveSelection)).max(0.0), diags) / 1e6,
                "ms",
            ),
            (
                "slave.screen_ratio",
                ratio(
                    counter(Counter::StreamingScreened),
                    counter(Counter::MetricsAnalyzed),
                ),
                "ratio",
            ),
            (
                "slave.rollback_us",
                ratio(stage(Stage::SlaveRollback), diags) / 1e3,
                "us",
            ),
            (
                "detect.cusum_ms",
                ratio(stage(Stage::SlaveCusum), diags) / 1e6,
                "ms",
            ),
            (
                "detect.candidates_per_diag",
                ratio(counter(Counter::ChangePointCandidates), diags),
                "count",
            ),
            (
                "detect.accept_ratio",
                ratio(
                    counter(Counter::ChangePointsAccepted),
                    counter(Counter::ChangePointCandidates),
                ),
                "ratio",
            ),
            (
                "detect.cusum_share",
                ratio(stage(Stage::SlaveCusum), analyze),
                "ratio",
            ),
            (
                "metrics.fft_ms",
                ratio(stage(Stage::SlaveFft), diags) / 1e6,
                "ms",
            ),
            ("master.fanout_ms", ratio(fan_out, diags) / 1e6, "ms"),
            (
                "master.self_us",
                ratio((self.diag_ns as f64 - fan_out).max(0.0), diags) / 1e3,
                "us",
            ),
            (
                "master.slave_retries",
                counter(Counter::SlaveRetries),
                "count",
            ),
            (
                "master.slave_timeouts",
                counter(Counter::SlaveTimeouts),
                "count",
            ),
            (
                "master.slave_unreachable",
                counter(Counter::SlaveUnreachable),
                "count",
            ),
            (
                "wire.ingest_rtt_us",
                ratio(self.live_ns as f64, self.live_calls as f64) / 1e3,
                "us",
            ),
            (
                "wire.ingest_bytes_per_sample",
                ratio(self.ingest_frame_bytes as f64, self.live_samples as f64),
                "B",
            ),
            (
                "wire.collect_rtt_ms",
                ratio(
                    stage(Stage::SlaveRpc),
                    self.stage_count[Stage::SlaveRpc.index()] as f64,
                ) / 1e6,
                "ms",
            ),
            (
                "wire.encode_us_per_diag",
                ratio(self.encode_ns as f64, diags) / 1e3,
                "us",
            ),
            (
                "wire.decode_us_per_diag",
                ratio(self.decode_ns as f64, diags) / 1e3,
                "us",
            ),
            (
                "wire.response_bytes_per_diag",
                ratio(self.response_bytes as f64, diags),
                "B",
            ),
            (
                "deps.discover_ms",
                ratio(self.discover_ns as f64, self.discovers as f64) / 1e6,
                "ms",
            ),
            ("trace.overhead_pct", overhead_pct, "%"),
            (
                "timed.diag_share",
                ratio(self.diag_ns as f64, timed),
                "ratio",
            ),
            (
                "timed.ingest_share",
                ratio(self.live_ns as f64, timed),
                "ratio",
            ),
        ]
    }
}
