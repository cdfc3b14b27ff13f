//! `e2ebench` — the end-to-end benchmark of the FChain deployment.
//!
//! One generator thread replays seeded simulator incidents through the
//! system's top-level public entry points in a closed loop, each call made
//! after the previous one returns: `SlaveDaemon::ingest_batch_for` (or
//! `RemoteSlave::ingest_batch` to a spawned `fchaind`) per host and tick,
//! `Master::on_violation` for every diagnosis, and `fchain_obs::snapshot`
//! around diagnoses in traced runs. The last line of standard output is
//! one JSON result object.
//!
//! ```text
//! e2ebench --workload incident_w100 --seed 7 --seconds 20 --trace 0 --fchaind <path>
//! ```
//!
//! `python3 e2ebench/run.py` builds this binary and `fchaind` and passes
//! the daemon's path; `e2ebench/README.md` describes the workloads and
//! every metric.

mod hosts;
mod inputs;
mod trace;

use fchain::core::master::Master;
use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::{AnalysisEngine, DiagnosisReport, FChainConfig, SlaveEndpoint};
use fchain::deps::{discover, DependencyGraph, DiscoveryConfig};
use fchain::metrics::{AppId, ComponentId, Tick};
use fchain::obs;
use fchain::sim::{AppKind, FaultKind};
use hosts::{vm_hwm_kib, Hosts};
use inputs::{mix64, Incident, Shape};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{nanos, Layers, Tracer};

/// Slave hosts per incident: with two cores there are never more than two
/// daemons or two connections.
const HOSTS: usize = 2;
/// Sockets and trace files, relative to the working directory: a relative
/// socket path stays under the 108-byte limit however deep the checkout.
const RUN_DIR: &str = ".bench_run";

struct Workload {
    name: &'static str,
    /// Fault kinds, cycled in order so every run has the same proportions.
    mix: &'static [(AppKind, FaultKind)],
    /// Incidents per pass. Precision and recall vary from incident to
    /// incident, so this many keeps their run-to-run spread small.
    incidents: usize,
    shape: Shape,
    lookback: u64,
    ensemble: bool,
    /// Slaves are `fchaind` processes over UDS instead of in-process.
    remote: bool,
    /// About one in this many incidents is checked against the reference.
    check_every: u64,
}

const FAST_FAULTS: &[(AppKind, FaultKind)] = &[
    (AppKind::Rubis, FaultKind::CpuHog),
    (AppKind::Rubis, FaultKind::MemLeak),
    (AppKind::SystemS, FaultKind::Bottleneck),
    (AppKind::SystemS, FaultKind::CpuHog),
];

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "incident_w100",
        mix: FAST_FAULTS,
        incidents: 480,
        shape: Shape {
            duration: 1500,
            diagnoses: 4,
            warm_ticks: None,
        },
        lookback: 100,
        ensemble: false,
        remote: false,
        check_every: 4,
    },
    Workload {
        name: "slowfault_w500",
        mix: &[(AppKind::Hadoop, FaultKind::ConcurrentDiskHog)],
        incidents: 208,
        shape: Shape {
            duration: 3600,
            diagnoses: 1,
            warm_ticks: None,
        },
        lookback: 500,
        ensemble: true,
        remote: false,
        check_every: 6,
    },
    Workload {
        name: "monitor_uds",
        mix: FAST_FAULTS,
        incidents: 264,
        shape: Shape {
            duration: 1000,
            diagnoses: 3,
            warm_ticks: Some(200),
        },
        lookback: 100,
        ensemble: false,
        remote: true,
        check_every: 4,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    fchaind: Option<PathBuf>,
    /// One incident per fault kind and no time budget: the size the
    /// benchmark's own tests run.
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut fchaind = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--fchaind" => fchaind = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fchaind,
        smoke,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    let _ = std::fs::remove_dir(RUN_DIR); // only succeeds when empty
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one replay of an incident records and checks.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Pass {
    /// Timings count toward the metrics (false only for the warm-up).
    timed: bool,
    /// The first timed pass: every diagnosis is scored against the ground
    /// truth, and a seeded subset of incidents is compared diagnosis by
    /// diagnosis with the batch-engine reference. Later passes must
    /// reproduce its reports exactly.
    checked: bool,
    traced: bool,
}

const WARM_UP: Pass = Pass {
    timed: false,
    checked: false,
    traced: false,
};

fn run(args: &Args) -> Result<Vec<String>, String> {
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let fchaind = match (&args.fchaind, wl.remote) {
        (Some(path), true) => Some(path.clone()),
        (None, true) => return Err(format!("--fchaind <path> is required for {}", wl.name)),
        (_, false) => None,
    };
    let count = if args.smoke {
        wl.mix.len()
    } else {
        wl.incidents
    };
    let planning = Instant::now();
    let plans = inputs::plan(wl.mix, count, wl.shape, args.seed);
    let plan_s = planning.elapsed().as_secs_f64();
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("create {RUN_DIR}: {e}"))?;

    let mut config = FChainConfig::with_lookback(wl.lookback);
    config.ensemble.enabled = wl.ensemble;
    let mut bench = Bench::new(wl, args.seed, config, fchaind);
    for (idx, plan) in plans.iter().enumerate().take(wl.mix.len()) {
        bench.incident(idx, &plan.materialize(), WARM_UP, &mut 0)?;
    }

    // The checked pass always completes; after it the run ends at the
    // first incident boundary past the time budget. Traced runs alternate
    // untraced and traced passes, so the tracing overhead is measured
    // within one run, and trace at least four cycles of the fault mix.
    let deadline = Instant::now() + Duration::from_secs(if args.smoke { 0 } else { args.seconds });
    let min_traced = if args.trace {
        plans.len().min(4 * wl.mix.len())
    } else {
        0
    };
    let (mut passes, mut traced) = (0, 0);
    let (started, mut checked_s) = (Instant::now(), 0.0);
    'run: loop {
        let pass = Pass {
            timed: true,
            checked: passes == 0,
            traced: args.trace && passes % 2 == 1,
        };
        let mut diagnosis = 0;
        for (idx, plan) in plans.iter().enumerate() {
            if passes > 0 && traced >= min_traced && Instant::now() >= deadline {
                break 'run;
            }
            bench.incident(idx, &plan.materialize(), pass, &mut diagnosis)?;
            traced += usize::from(pass.traced);
        }
        if pass.checked {
            checked_s = started.elapsed().as_secs_f64();
        }
        passes += 1;
    }

    let ops_digest = plans
        .iter()
        .fold(FNV_OFFSET, |h, plan| fnv(h, format!("{plan:?}").as_bytes()));
    let info = format!(
        "# e2ebench workload={} seed={} incidents={} plan_s={plan_s:.2} checked_s={checked_s:.2} \
         passes={passes} diagnoses={} ingest_samples={} ops_digest={ops_digest:016x} \
         report_digest={:016x}",
        wl.name,
        args.seed,
        plans.len(),
        bench.diag_ms.len() + bench.traced_diag_ms.len(),
        bench.ingest_samples,
        bench.report_digest
    );
    let metrics = if args.trace {
        let traced = percentile(&sorted(&bench.traced_diag_ms), 50.0);
        let untraced = percentile(&sorted(&bench.diag_ms), 50.0);
        let path = Path::new(RUN_DIR).join(format!("trace-{}-{}.jsonl", wl.name, args.seed));
        bench
            .tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        bench.layers.metrics((traced / untraced - 1.0) * 100.0)
    } else {
        bench.end_to_end()
    };
    Ok(vec![info, result_line(&bench, &metrics)])
}

/// The batch-engine reference fed the identical samples: the repository's
/// bit-identity oracle for the streaming daemons and for the socket path.
struct Reference {
    hosts: Vec<Arc<SlaveDaemon>>,
    master: Master,
}

impl Reference {
    fn new(config: &FChainConfig, inc: &Incident, deps: DependencyGraph) -> Reference {
        let config = FChainConfig {
            engine: AnalysisEngine::Batch,
            ..config.clone()
        };
        let hosts: Vec<Arc<SlaveDaemon>> = (0..HOSTS)
            .map(|_| Arc::new(SlaveDaemon::new(config.clone())))
            .collect();
        let mut master = Master::new(config);
        for host in &hosts {
            master.register_slave(Arc::clone(host) as Arc<dyn SlaveEndpoint>);
        }
        master.set_dependencies(deps);
        let mut batch = Vec::new();
        for tick in 0..inc.live_from {
            for (h, host) in hosts.iter().enumerate() {
                inc.fill_batch(tick, h, HOSTS, &mut batch);
                host.ingest_batch_for(AppId::default(), &batch);
            }
        }
        Reference { hosts, master }
    }
}

struct Bench<'a> {
    wl: &'a Workload,
    seed: u64,
    config: FChainConfig,
    fchaind: Option<PathBuf>,
    sockets: u64,
    attempted: u64,
    failed: u64,
    /// Report digests of the checked pass, in diagnosis order.
    expected: Vec<u64>,
    report_digest: u64,
    tp: u64,
    fp: u64,
    fn_: u64,
    setup_s: Vec<f64>,
    diag_ms: Vec<f64>,
    traced_diag_ms: Vec<f64>,
    ingest_samples: u64,
    ingest_ns: u64,
    /// The largest summed peak RSS of one incident's `fchaind` children.
    children_hwm_kib: u64,
    tracer: Tracer,
    layers: Layers,
}

impl<'a> Bench<'a> {
    fn new(wl: &'a Workload, seed: u64, config: FChainConfig, fchaind: Option<PathBuf>) -> Self {
        Bench {
            wl,
            seed,
            config,
            fchaind,
            sockets: 0,
            attempted: 0,
            failed: 0,
            expected: Vec::new(),
            report_digest: FNV_OFFSET,
            tp: 0,
            fp: 0,
            fn_: 0,
            setup_s: Vec::new(),
            diag_ms: Vec::new(),
            traced_diag_ms: Vec::new(),
            ingest_samples: 0,
            ingest_ns: 0,
            children_hwm_kib: 0,
            tracer: Tracer::new(Instant::now()),
            layers: Layers::default(),
        }
    }

    fn bring_up(&mut self) -> Result<Hosts, String> {
        let Some(exe) = &self.fchaind else {
            return Ok(Hosts::local(&self.config, HOSTS));
        };
        let sockets = (0..HOSTS)
            .map(|_| {
                self.sockets += 1;
                PathBuf::from(format!(
                    "{RUN_DIR}/{}-{}.sock",
                    std::process::id(),
                    self.sockets
                ))
            })
            .collect();
        Hosts::remote(exe, sockets, self.config.lookback)
    }

    /// One incident: set-up (bring-up, dependency discovery, warm-up
    /// replay), then the live section — every tick's samples, and from the
    /// violation on a diagnosis after each tick — then teardown.
    /// `diagnosis` numbers the pass's diagnoses.
    fn incident(
        &mut self,
        idx: usize,
        inc: &Incident,
        pass: Pass,
        diagnosis: &mut usize,
    ) -> Result<(), String> {
        let op = idx as u64;
        let t0 = Instant::now();
        let hosts = self.bring_up()?;
        let mut master = Master::new(self.config.clone());
        for endpoint in hosts.endpoints() {
            master.register_slave(endpoint);
        }
        let t_up = Instant::now();
        let deps = discover(&inc.normal_packets, &DiscoveryConfig::default());
        let t_deps = Instant::now();
        master.set_dependencies(deps.clone());
        let mut batch = Vec::new();
        for tick in 0..inc.live_from {
            for h in 0..HOSTS {
                inc.fill_batch(tick, h, HOSTS, &mut batch);
                self.ingest(&hosts, h, &batch, pass);
            }
        }
        let t_setup = Instant::now();
        if pass.timed {
            self.setup_s.push((t_setup - t0).as_secs_f64());
        }
        let root = pass.traced.then(|| {
            let root = self.tracer.record("incident", op, None, t0, t0);
            let setup = self.tracer.record("setup", op, Some(root), t0, t_setup);
            self.tracer.record("bringup", op, Some(setup), t0, t_up);
            self.tracer
                .record("deps.discover", op, Some(setup), t_up, t_deps);
            self.tracer
                .record("replay", op, Some(setup), t_deps, t_setup);
            self.layers.discover(t_deps - t_up);
            root
        });

        let check = pass.checked && mix64(self.seed ^ op).is_multiple_of(self.wl.check_every);
        let reference = check.then(|| Reference::new(&self.config, inc, deps));
        for tick in inc.live_from..=inc.last {
            for h in 0..HOSTS {
                inc.fill_batch(tick, h, HOSTS, &mut batch);
                let (start, end) = self.ingest(&hosts, h, &batch, pass);
                if let Some(root) = root {
                    self.tracer.record("ingest", op, Some(root), start, end);
                    self.layers.live_ingest(end - start, &batch);
                }
                if let Some(reference) = &reference {
                    reference.hosts[h].ingest_batch_for(AppId::default(), &batch);
                }
            }
            if tick < inc.violation_at {
                continue;
            }
            let before = pass.traced.then(obs::snapshot);
            let start = Instant::now();
            let report = master.on_violation(tick);
            let end = Instant::now();
            if let Some(before) = before {
                let delta = obs::snapshot().delta_since(&before);
                self.layers.diagnosis(&delta, end - start, &report, HOSTS);
                self.tracer.record("diagnose", op, root, start, end);
            }
            if pass.timed {
                let ms = (end - start).as_secs_f64() * 1e3;
                if pass.traced {
                    self.traced_diag_ms.push(ms);
                } else {
                    self.diag_ms.push(ms);
                }
                self.judge(inc, tick, &report, pass, reference.as_ref(), *diagnosis);
                *diagnosis += 1;
            }
        }

        if let (true, Some(daemons)) = (pass.traced, hosts.local_daemons()) {
            self.layers.storage(daemons);
        }
        drop(master);
        let children_hwm = hosts.shutdown()?;
        self.children_hwm_kib = self.children_hwm_kib.max(children_hwm);
        if let Some(root) = root {
            self.tracer.close(root, Instant::now());
        }
        Ok(())
    }

    /// One ingest call; a failed delivery counts as a failed operation.
    fn ingest(
        &mut self,
        hosts: &Hosts,
        h: usize,
        batch: &[MetricSample],
        pass: Pass,
    ) -> (Instant, Instant) {
        let start = Instant::now();
        let result = hosts.ingest(h, batch);
        let end = Instant::now();
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("e2ebench: {e}");
        }
        if pass.timed {
            self.ingest_samples += batch.len() as u64;
            self.ingest_ns += nanos(end - start);
        }
        if pass.traced && hosts.local_daemons().is_some() {
            self.layers.slave_ingest(end - start, batch.len());
        }
        (start, end)
    }

    /// Checks one timed diagnosis, outside every clock. A report that
    /// differs from the reference (checked pass) or from the checked
    /// pass's report (later passes), or that lacks full coverage, is a
    /// failed operation.
    fn judge(
        &mut self,
        inc: &Incident,
        tick: Tick,
        report: &DiagnosisReport,
        pass: Pass,
        reference: Option<&Reference>,
        diagnosis: usize,
    ) {
        self.attempted += 1;
        let digest = report_digest(report);
        let mut ok = report.coverage.is_complete();
        if pass.checked {
            self.expected.push(digest);
            self.report_digest = fnv(self.report_digest, &digest.to_le_bytes());
            self.score(&report.pinpointed, &inc.truth);
            if let Some(reference) = reference {
                if reference.master.on_violation(tick) != *report {
                    eprintln!(
                        "e2ebench: {} at tick {tick}: differs from the batch reference",
                        inc.describe()
                    );
                    ok = false;
                }
            }
        } else if self.expected.get(diagnosis) != Some(&digest) {
            eprintln!(
                "e2ebench: {} at tick {tick}: report changed between passes",
                inc.describe()
            );
            ok = false;
        }
        if !ok {
            self.failed += 1;
        }
    }

    fn score(&mut self, pinpointed: &[ComponentId], truth: &[ComponentId]) {
        let tp = pinpointed.iter().filter(|c| truth.contains(c)).count() as u64;
        self.tp += tp;
        self.fp += pinpointed.len() as u64 - tp;
        self.fn_ += truth.len() as u64 - tp;
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let diag = sorted(&self.diag_ms);
        let fraction = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            ("setup_s", percentile(&sorted(&self.setup_s), 50.0), "s"),
            ("diag_p50_ms", percentile(&diag, 50.0), "ms"),
            ("diag_p95_ms", percentile(&diag, 95.0), "ms"),
            (
                "ingest_msps",
                self.ingest_samples as f64 * 1e3 / self.ingest_ns.max(1) as f64,
                "Msamples/s",
            ),
            (
                "peak_rss_mib",
                (vm_hwm_kib("self") + self.children_hwm_kib) as f64 / 1024.0,
                "MiB",
            ),
            ("precision", fraction(self.tp, self.tp + self.fp), "ratio"),
            ("recall", fraction(self.tp, self.tp + self.fn_), "ratio"),
        ]
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a report's payload: everything `DiagnosisReport` equality
/// compares.
fn report_digest(r: &DiagnosisReport) -> u64 {
    let payload = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        r.verdict, r.pinpointed, r.findings, r.removed_by_validation, r.coverage
    );
    fnv(FNV_OFFSET, payload.as_bytes())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation percentile of sorted values (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn result_line(bench: &Bench, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed,
        body.join(", ")
    )
}
