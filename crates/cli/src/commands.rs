//! The `fchain` subcommand implementations.

use crate::args::Args;
use fchain_baselines::{DependencyScheme, HistogramScheme, NetMedic, Pal, TopologyScheme};
use fchain_core::master::Master;
use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{
    AnalysisEngine, FChain, FChainConfig, Localizer, Transport, Verdict, MAX_LOOKBACK, MIN_LOOKBACK,
};
use fchain_eval::{case_from_run, render, Campaign, DegradedCampaign, FleetCampaign, OracleProbe};
use fchain_metrics::MetricKind;
use fchain_obs::{self as obs, PipelineSnapshot};
use fchain_sim::{AppKind, FaultKind, RunConfig, RunRecord, Simulator, Workload as _};
use serde_json::json;
use std::sync::Arc;

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Parses an application name.
fn parse_app(name: &str) -> Result<AppKind, String> {
    match name {
        "rubis" => Ok(AppKind::Rubis),
        "hadoop" => Ok(AppKind::Hadoop),
        "systems" => Ok(AppKind::SystemS),
        other => Err(format!(
            "unknown app {other:?} (expected rubis, hadoop or systems)"
        )),
    }
}

/// Every fault kind with its wire name.
const FAULTS: [(&str, FaultKind); 11] = [
    ("memleak", FaultKind::MemLeak),
    ("cpuhog", FaultKind::CpuHog),
    ("nethog", FaultKind::NetHog),
    ("diskhog", FaultKind::DiskHog),
    ("bottleneck", FaultKind::Bottleneck),
    ("offloadbug", FaultKind::OffloadBug),
    ("lbbug", FaultKind::LbBug),
    ("conc_memleak", FaultKind::ConcurrentMemLeak),
    ("conc_cpuhog", FaultKind::ConcurrentCpuHog),
    ("conc_diskhog", FaultKind::ConcurrentDiskHog),
    ("workload_surge", FaultKind::WorkloadSurge),
];

/// Parses a fault name.
fn parse_fault(name: &str) -> Result<FaultKind, String> {
    FAULTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
        .ok_or_else(|| format!("unknown fault {name:?} (see `fchain list`)"))
}

/// Parses an application and a fault name and checks that the
/// application defines that fault (`fchain list` names the valid pairs).
fn parse_case(app: &str, fault: &str) -> Result<(AppKind, FaultKind), String> {
    let (app, kind) = (parse_app(app)?, parse_fault(fault)?);
    if !fault_defined(app, kind) {
        return Err(format!(
            "fault {fault:?} is not defined for {app} (see `fchain list`)"
        ));
    }
    Ok((app, kind))
}

/// Builds the run described by the common flags.
fn build_run(args: &Args) -> Result<RunRecord, Box<dyn std::error::Error>> {
    let (app, fault) = parse_case(args.require("app")?, args.require("fault")?)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let duration = args.get_parsed("duration", 3600u64)?;
    let mut cfg = RunConfig::new(app, fault, seed).with_duration(duration);
    // --replay-csv <path>: drive the workload from a recorded
    // `tick,intensity` trace instead of the synthetic generators.
    if let Some(path) = args.get("replay-csv") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read replay trace {path:?}: {e}"))?;
        let trace = fchain_sim::ReplayTrace::from_csv(&text)?;
        let series: Vec<f64> = (0..duration).map(|t| trace.intensity(t)).collect();
        cfg = cfg.with_workload_replay(series);
    }
    Ok(Simulator::new(cfg).run())
}

/// Default look-back for a fault (500 s for slow-manifesting ones).
fn default_lookback(fault: FaultKind) -> u64 {
    if fault.is_slow_manifesting() {
        500
    } else {
        100
    }
}

/// `--engine batch|streaming` (default streaming).
fn parse_engine(args: &Args) -> Result<AnalysisEngine, Box<dyn std::error::Error>> {
    match args.get("engine") {
        None => Ok(AnalysisEngine::default()),
        Some(v) => Ok(v.parse::<AnalysisEngine>()?),
    }
}

/// `--transport in-process|uds|tcp` (default in-process).
fn parse_transport(args: &Args) -> Result<Transport, Box<dyn std::error::Error>> {
    match args.get("transport") {
        None => Ok(Transport::default()),
        Some(v) => Ok(v.parse::<Transport>()?),
    }
}

/// `--hosts <N>`: how many slave daemons to spread components over.
/// Zero hosts would leave every component unmonitored, so it is an
/// error rather than a silent clamp.
fn parse_hosts(args: &Args, default: usize) -> Result<usize, Box<dyn std::error::Error>> {
    match args.get_parsed("hosts", default)? {
        0 => Err("--hosts must be at least 1".into()),
        hosts => Ok(hosts),
    }
}

/// `--lookback <W>`, `default` when absent. A window outside
/// [`MIN_LOOKBACK`]`..=`[`MAX_LOOKBACK`] is an error on every subcommand,
/// before anything is simulated: the same bound `fchaind` enforces at
/// startup through [`FChainConfig::validate`].
fn parse_lookback(args: &Args, default: u64) -> Result<u64, Box<dyn std::error::Error>> {
    match args.get_parsed("lookback", default)? {
        w if (MIN_LOOKBACK..=MAX_LOOKBACK).contains(&w) => Ok(w),
        w => {
            Err(format!("--lookback {w} is outside [{MIN_LOOKBACK}, {MAX_LOOKBACK}] ticks").into())
        }
    }
}

/// A spawned `fchaind` child process plus the address it bound.
struct SpawnedDaemon {
    child: std::process::Child,
    addr: fchain_wire::WireAddr,
}

impl Drop for SpawnedDaemon {
    fn drop(&mut self) {
        // Normal teardown sends a shutdown frame and waits; this is the
        // error-path backstop so a failed diagnosis never leaks daemons.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Where the `fchaind` binary lives: next to the running `fchain`
/// binary (the cargo layout), falling back to `$PATH`.
fn fchaind_path() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("fchaind")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| std::path::PathBuf::from("fchaind"))
}

/// Spawns one `fchaind` for `transport` with `config`, and parses its
/// `listening <addr>` startup line for the actual bound address (TCP
/// binds port 0). `tag` keeps concurrent daemons' temp files apart.
fn spawn_fchaind(
    transport: Transport,
    config: &FChainConfig,
    deadline_ms: u64,
    tag: &str,
) -> Result<SpawnedDaemon, Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let config_path = dir.join(format!("fchaind-{pid}-{tag}.json"));
    std::fs::write(&config_path, serde_json::to_string(config)?)?;

    let mut cmd = std::process::Command::new(fchaind_path());
    cmd.arg("--config").arg(&config_path);
    cmd.arg("--deadline-ms").arg(deadline_ms.to_string());
    match transport {
        Transport::Uds => {
            cmd.arg("--uds")
                .arg(dir.join(format!("fchaind-{pid}-{tag}.sock")));
        }
        Transport::Tcp => {
            cmd.arg("--tcp").arg("127.0.0.1:0");
        }
        Transport::InProcess => return Err("in-process transport spawns no daemon".into()),
    }
    cmd.stdout(std::process::Stdio::piped());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn fchaind (is it built?): {e}"))?;

    let mut line = String::new();
    {
        use std::io::BufRead as _;
        let stdout = child.stdout.take().expect("piped stdout");
        std::io::BufReader::new(stdout).read_line(&mut line)?;
    }
    let _ = std::fs::remove_file(&config_path); // consumed at startup
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .ok_or_else(|| format!("unexpected fchaind startup line {line:?}"))?
        .parse::<fchain_wire::WireAddr>()?;
    Ok(SpawnedDaemon { child, addr })
}

/// `fchain diagnose --transport uds|tcp`: the full deployment shape —
/// spawn one `fchaind` OS process per `--hosts`, stream the case's
/// metrics to them over the wire, fan the master out over the sockets,
/// then tear the daemons down. The report must match an in-process
/// `Master` + `SlaveDaemon` deployment bit for bit (the pin in
/// tests/determinism.rs); the sockets add latency, never meaning. The
/// default `fchain diagnose` runs `FChain::diagnose`, the same master
/// and daemon in-process, but its daemon retains the whole case while
/// `fchaind` keeps its default ring, so on long runs the error floor can
/// read a shorter normal span here.
fn diagnose_remote(
    args: &Args,
    case: &fchain_core::CaseData,
    engine: AnalysisEngine,
    transport: Transport,
    hosts: usize,
) -> Result<fchain_core::DiagnosisReport, Box<dyn std::error::Error>> {
    let deadline_ms = args.get_parsed("slave-deadline-ms", 2_000u64)?;
    let config = FChainConfig {
        engine,
        lookback: case.lookback,
        slave_deadline_ms: deadline_ms,
        ..FChainConfig::default()
    };
    let deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));

    let daemons: Vec<SpawnedDaemon> = (0..hosts)
        .map(|h| spawn_fchaind(transport, &config, deadline_ms, &format!("diag{h}")))
        .collect::<Result<_, _>>()?;
    let remotes: Vec<Arc<fchain_wire::RemoteSlave>> = daemons
        .iter()
        .map(|d| fchain_wire::RemoteSlave::connect(d.addr.clone(), None, deadline).map(Arc::new))
        .collect::<Result<_, _>>()?;

    // Components land round-robin over the daemons, mirroring the
    // in-process deployment in `fchain obs`.
    let app = fchain_metrics::AppId::default();
    for (i, component) in case.components.iter().enumerate() {
        let remote = &remotes[i % remotes.len()];
        let samples: Vec<MetricSample> =
            MetricSample::replay(component.id, &component.metrics).collect();
        for chunk in samples.chunks(16_384) {
            remote
                .ingest_batch(app, chunk.to_vec())
                .map_err(|e| format!("ingest to {}: {e:?}", daemons[i % daemons.len()].addr))?;
        }
    }

    let ensemble = config.ensemble.enabled;
    let mut master = Master::new(config);
    for remote in &remotes {
        master.register_slave(Arc::clone(remote) as Arc<dyn fchain_core::SlaveEndpoint>);
    }
    if let Some(deps) = case.dependency_evidence(ensemble) {
        master.set_dependencies(deps.clone());
    }
    let report = master.on_violation(case.violation_at);

    // Clean teardown: shutdown frame, then reap each child.
    for remote in &remotes {
        let _ = remote.shutdown();
    }
    for mut daemon in daemons {
        let _ = daemon.child.wait();
    }
    Ok(report)
}

/// Handles `--obs-json <PATH>`: dumps `snapshot` to the file. A no-op
/// without the flag.
fn write_obs_json(args: &Args, snapshot: &PipelineSnapshot) -> CliResult {
    let Some(path) = args.get("obs-json") else {
        return Ok(());
    };
    let rendered = serde_json::to_string_pretty(snapshot)?;
    std::fs::write(path, rendered + "\n").map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!("wrote observability snapshot to {path}");
    Ok(())
}

/// `fchain run` — simulate and summarize.
pub fn run(args: &Args) -> CliResult {
    let run = build_run(args)?;
    let json_out = args.has("json");
    if json_out {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "app": run.model.kind.name(),
                "fault": run.fault.kind.name(),
                "targets": run.fault.targets,
                "fault_start": run.fault.start,
                "violation_at": run.violation_at,
                "components": run.model.components.iter().map(|c| &c.name).collect::<Vec<_>>(),
                "packets": run.packets.len(),
            }))?
        );
        return Ok(());
    }
    println!(
        "app {} | fault {} at {:?} | injected t={}",
        run.model.kind,
        run.fault.kind,
        run.fault
            .targets
            .iter()
            .map(|c| run.model.components[c.index()].name.clone())
            .collect::<Vec<_>>(),
        run.fault.start
    );
    match run.violation_at {
        Some(t_v) => println!(
            "SLO violated at t={t_v} ({} s after injection)",
            t_v - run.fault.start
        ),
        None => println!("SLO never violated"),
    }
    println!("\nper-component means before/after injection:");
    let t_f = run.fault.start;
    for (i, spec) in run.model.components.iter().enumerate() {
        let id = fchain_metrics::ComponentId(i as u32);
        let cells: Vec<String> = [MetricKind::Cpu, MetricKind::Memory, MetricKind::NetIn]
            .iter()
            .map(|&kind| {
                let ts = run.metric(id, kind);
                let before = mean(ts.window(t_f.saturating_sub(120), t_f.saturating_sub(1)));
                let after = mean(ts.window(t_f, t_f + 120));
                format!("{kind}: {before:>7.1} -> {after:>7.1}")
            })
            .collect();
        println!("  {:<8} {}", spec.name, cells.join("  "));
    }
    Ok(())
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `fchain diagnose` — run FChain on one simulated violation.
pub fn diagnose(args: &Args) -> CliResult {
    let engine = parse_engine(args)?;
    let transport = parse_transport(args)?;
    let hosts = parse_hosts(args, 1)?;
    let (_, fault) = parse_case(args.require("app")?, args.require("fault")?)?;
    let lookback = parse_lookback(args, default_lookback(fault))?;
    let run = build_run(args)?;
    let Some(case) = case_from_run(&run, lookback) else {
        return Err("the SLO never fired; nothing to diagnose (try another seed)".into());
    };
    let report = if transport != Transport::InProcess {
        if args.has("validate") {
            return Err(
                "--validate needs the simulator's scaling oracle, which lives in this \
                 process; drop --transport to validate"
                    .into(),
            );
        }
        diagnose_remote(args, &case, engine, transport, hosts)?
    } else {
        let fchain = FChain::new(FChainConfig {
            engine,
            ..FChainConfig::default()
        });
        if args.has("validate") {
            let mut probe = OracleProbe::new(&run.oracle);
            fchain.diagnose_validated(&case, &mut probe)
        } else {
            fchain.diagnose(&case)
        }
    };
    write_obs_json(args, &obs::snapshot())?;

    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "verdict": format!("{:?}", report.verdict),
                "engine": report.engine.to_string(),
                "pinpointed": report.pinpointed,
                "removed_by_validation": report.removed_by_validation,
                "truth": run.fault.targets,
                "chain": report.propagation_chain().iter().map(|(c, t)| json!({
                    "component": run.model.components[c.index()].name,
                    "onset": t,
                })).collect::<Vec<_>>(),
            }))?
        );
        return Ok(());
    }

    println!(
        "fault {} injected t={} at {:?}; SLO violated t={}",
        fault,
        run.fault.start,
        run.fault
            .targets
            .iter()
            .map(|c| run.model.components[c.index()].name.clone())
            .collect::<Vec<_>>(),
        case.violation_at
    );
    println!(
        "\nabnormal change propagation chain (W={lookback}, {} engine):",
        report.engine
    );
    for (c, onset) in report.propagation_chain() {
        let name = &run.model.components[c.index()].name;
        let mark = if run.fault.targets.contains(&c) {
            "  <- truly faulty"
        } else {
            ""
        };
        println!("  t={onset:>6}  {name}{mark}");
    }
    match report.verdict {
        Verdict::Faulty => {
            println!("\npinpointed:");
            for c in &report.pinpointed {
                println!("  {} ({})", c, run.model.components[c.index()].name);
            }
            if !report.removed_by_validation.is_empty() {
                println!(
                    "removed by online validation: {:?}",
                    report.removed_by_validation
                );
            }
        }
        Verdict::ExternalFactor(trend) => {
            println!("\nexternal factor inferred ({trend:?} trend everywhere); no component blamed")
        }
        Verdict::NoAnomaly => println!("\nno abnormal change found in any component"),
    }
    let correct = report.pinpointed == run.fault.targets;
    println!(
        "\nground truth: {:?} -> {}",
        run.fault.targets,
        if correct { "CORRECT" } else { "incorrect" }
    );
    Ok(())
}

/// `fchain compare` — campaign across all schemes.
pub fn compare(args: &Args) -> CliResult {
    let (app, fault) = parse_case(args.require("app")?, args.require("fault")?)?;
    let runs = args.get_parsed("runs", 30usize)?;
    let base_seed = args.get_parsed("seed", 1000u64)?;
    let lookback = parse_lookback(args, default_lookback(fault))?;
    let campaign = Campaign {
        app,
        fault,
        runs,
        base_seed,
        duration: args.get_parsed("duration", 3600u64)?,
        lookback,
    };
    let fchain = FChain::default();
    let histogram = HistogramScheme::new(args.get_parsed("histogram-threshold", 0.2)?);
    let netmedic = NetMedic::new(args.get_parsed("netmedic-delta", 0.1)?);
    let topology = TopologyScheme::default();
    let dependency = DependencyScheme::default();
    let pal = Pal::default();
    let schemes: Vec<&(dyn Localizer + Sync)> =
        vec![&fchain, &histogram, &netmedic, &topology, &dependency, &pal];
    let results = campaign.evaluate(&schemes);
    write_obs_json(args, &obs::snapshot())?;
    print!(
        "{}",
        render::campaign_block(
            &format!("{app} / {fault} ({runs} runs, W={lookback})"),
            &results
        )
    );
    Ok(())
}

/// `fchain degraded` — slave-loss sweep: how does diagnosis accuracy
/// degrade when a fraction of the slaves are unreachable at `t_v`?
pub fn degraded(args: &Args) -> CliResult {
    let (app, fault) = parse_case(args.require("app")?, args.require("fault")?)?;
    let loss_rates: Vec<f64> = match args.get("rates") {
        None => vec![0.0, 0.25, 0.5, 0.75],
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| format!("invalid loss rate {s:?} (expected 0..=1)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let config = FChainConfig {
        slave_deadline_ms: args.get_parsed("slave-deadline-ms", 0u64)?,
        slave_retries: args.get_parsed("slave-retries", 2u32)?,
        slave_backoff_ms: args.get_parsed("slave-backoff-ms", 1u64)?,
        engine: parse_engine(args)?,
        ..FChainConfig::default()
    };
    let campaign = DegradedCampaign {
        app,
        fault,
        runs: args.get_parsed("runs", 10usize)?,
        base_seed: args.get_parsed("seed", 1000u64)?,
        duration: args.get_parsed("duration", 1500u64)?,
        lookback: parse_lookback(args, default_lookback(fault))?,
        hosts: parse_hosts(args, 4)?,
        loss_rates,
        config,
    };
    let points = campaign.evaluate();
    write_obs_json(args, &obs::snapshot())?;

    if args.has("json") || args.get("out").is_some() {
        let rendered = serde_json::to_string_pretty(&campaign.to_json(&points))?;
        match args.get("out") {
            Some(path) => {
                std::fs::write(path, &rendered)
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                println!("wrote {path}");
            }
            None => println!("{rendered}"),
        }
        return Ok(());
    }

    println!(
        "{app} / {fault} — slave-loss sweep ({} runs × {} hosts, W={}, \
         deadline {} ms, {} retries)",
        campaign.runs,
        campaign.hosts,
        campaign.lookback,
        campaign.config.slave_deadline_ms,
        campaign.config.slave_retries
    );
    // "slave cov" is the fraction of registered *slaves* that answered
    // the fan-out (DiagnosisCoverage::coverage) — NOT the fraction of
    // components: a slave fails as a whole, taking all of its components
    // with it. See DiagnosisCoverage::component_coverage for the
    // component-level view.
    println!(
        "  {:>9}  {:>9}  {:>6}  {:>9}  {:>10}  {:>11}",
        "loss rate", "precision", "recall", "slave cov", "diagnoses", "unreachable"
    );
    for p in &points {
        println!(
            "  {:>9.2}  {:>9.2}  {:>6.2}  {:>9.2}  {:>10}  {:>11}",
            p.loss_rate,
            p.counts.precision(),
            p.counts.recall(),
            p.mean_coverage,
            p.diagnoses,
            p.unreachable_slaves
        );
    }
    Ok(())
}

/// `fchain fleet` — multi-tenant drain: throughput and latency vs.
/// tenant count.
pub fn fleet(args: &Args) -> CliResult {
    let tenant_counts: Vec<usize> = match args.get("tenants") {
        None => vec![1, 4, 8],
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid tenant count {s:?} (expected >= 1)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut config = FChainConfig {
        slave_deadline_ms: args.get_parsed("slave-deadline-ms", 2_000u64)?,
        engine: parse_engine(args)?,
        ..FChainConfig::default()
    };
    config.ensemble.enabled = args.has("ensemble");
    let base = FleetCampaign {
        base_seed: args.get_parsed("seed", 4100u64)?,
        duration: args.get_parsed("duration", 1500u64)?,
        lookback: parse_lookback(args, 100)?,
        hosts: parse_hosts(args, 2)?,
        rpc_delay_ms: args.get_parsed("rpc-delay-ms", 100u64)?,
        stalled_tenants: args.get_parsed("stalled", 0usize)?,
        stall_ms: args.get_parsed("stall-ms", 0u64)?,
        config,
        transport: parse_transport(args)?,
        ..FleetCampaign::new(1, 4100)
    };
    // `--attribute`: instead of the throughput sweep, re-diagnose every
    // tenant of each sweep point solo (same seeds, same engine) and
    // classify each fleet-vs-solo divergence.
    if args.has("attribute") {
        let mut campaign = base.clone();
        let mut reports = Vec::new();
        for &tenants in &tenant_counts {
            campaign.tenants = tenants;
            let report = fchain_eval::attribute(&campaign);
            if !(args.has("json") || args.get("out").is_some()) {
                println!("fleet attribution — {tenants} tenant(s)");
                println!("{}", report.render());
            }
            reports.push(report.to_json());
        }
        write_obs_json(args, &obs::snapshot())?;
        if args.has("json") || args.get("out").is_some() {
            let rendered = serde_json::to_string_pretty(&serde_json::Value::Seq(reports))?;
            match args.get("out") {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                    println!("wrote {path}");
                }
                None => println!("{rendered}"),
            }
        }
        return Ok(());
    }

    let mut results = Vec::new();
    let mut campaign = base.clone();
    for &tenants in &tenant_counts {
        campaign.tenants = tenants;
        results.push(campaign.evaluate());
    }
    write_obs_json(args, &obs::snapshot())?;

    if args.has("json") || args.get("out").is_some() {
        let rendered = serde_json::to_string_pretty(&campaign.to_json(&results))?;
        match args.get("out") {
            Some(path) => {
                std::fs::write(path, &rendered)
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                println!("wrote {path}");
            }
            None => println!("{rendered}"),
        }
        return Ok(());
    }

    println!(
        "fleet drain — tenant-mix sweep ({} hosts, {} ms RPC latency, \
         deadline {} ms{})",
        base.hosts,
        base.rpc_delay_ms,
        base.config.slave_deadline_ms,
        if base.stalled_tenants > 0 {
            format!(
                ", {} tenant(s) stalled {} ms",
                base.stalled_tenants, base.stall_ms
            )
        } else {
            String::new()
        }
    );
    println!(
        "  {:>7}  {:>9}  {:>10}  {:>8}  {:>8}  {:>9}  {:>6}",
        "tenants", "diagnoses", "diag/sec", "p50 ms", "p99 ms", "precision", "recall"
    );
    for r in &results {
        println!(
            "  {:>7}  {:>9}  {:>10.2}  {:>8.1}  {:>8.1}  {:>9.2}  {:>6.2}",
            r.tenants,
            r.diagnoses,
            r.throughput,
            r.p50_latency_ms,
            r.p99_latency_ms,
            r.counts.precision(),
            r.counts.recall()
        );
    }
    Ok(())
}

/// `fchain surge` — external-factor detection demo.
pub fn surge(args: &Args) -> CliResult {
    let app = parse_app(args.get("app").unwrap_or("rubis"))?;
    let base_seed = args.get_parsed("seed", 1u64)?;
    let runs = args.get_parsed("runs", 10usize)?;
    let fchain = FChain::default();
    let mut external = 0;
    let mut blamed = 0;
    let mut silent = 0;
    for i in 0..runs {
        let cfg = RunConfig::new(app, FaultKind::WorkloadSurge, base_seed + i as u64);
        let run = Simulator::new(cfg).run();
        let Some(case) = case_from_run(&run, 100) else {
            silent += 1;
            continue;
        };
        match fchain.diagnose(&case).verdict {
            Verdict::ExternalFactor(_) => external += 1,
            Verdict::NoAnomaly => silent += 1,
            Verdict::Faulty => blamed += 1,
        }
    }
    println!(
        "workload surge on {app}, {runs} runs: external-factor verdicts {external}, \
         silent {silent}, components wrongly blamed {blamed}"
    );
    println!(
        "-> {}/{runs} runs correctly blame no component",
        external + silent
    );
    Ok(())
}

/// Renders a nanosecond quantity with a readable unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// `fchain obs` — run one fully instrumented distributed diagnosis
/// (slave daemons + master fan-out + online validation) and print the
/// per-stage timings and pipeline counters it recorded.
pub fn obs(args: &Args) -> CliResult {
    let (app, fault) = parse_case(
        args.get("app").unwrap_or("rubis"),
        args.get("fault").unwrap_or("cpuhog"),
    )?;
    let seed = args.get_parsed("seed", 900u64)?;
    let duration = args.get_parsed("duration", 3600u64)?;
    let lookback = parse_lookback(args, default_lookback(fault))?;
    let n_hosts = parse_hosts(args, 2)?;
    let engine = parse_engine(args)?;
    let config = FChainConfig {
        engine,
        lookback,
        ..FChainConfig::default()
    };

    let run = Simulator::new(RunConfig::new(app, fault, seed).with_duration(duration)).run();
    let Some(case) = case_from_run(&run, lookback) else {
        return Err("the SLO never fired; nothing to observe (try another seed)".into());
    };

    // The deployed topology: components spread round-robin over slave
    // daemons, the master fanning out to them — so the slave-side spans
    // (selection, CUSUM, FFT, rollback) and master-side spans (fan-out,
    // merge, pinpoint, validation) all fire. The daemons retain the whole
    // case, as `FChain::diagnose` sizes its own, so this diagnosis
    // pinpoints what `fchain diagnose --validate` does.
    let capacity = SlaveDaemon::capacity_for_case(&case, lookback);
    let hosts: Vec<Arc<SlaveDaemon>> = (0..n_hosts)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone()).with_capacity(capacity)))
        .collect();
    for (i, component) in case.components.iter().enumerate() {
        let host = &hosts[i % hosts.len()];
        for sample in MetricSample::replay(component.id, &component.metrics) {
            host.ingest(sample);
        }
    }
    let ensemble = config.ensemble.enabled;
    let mut master = Master::new(config);
    for host in hosts {
        master.register_slave(host);
    }
    if let Some(deps) = case.dependency_evidence(ensemble) {
        master.set_dependencies(deps.clone());
    }
    // This diagnosis's own profile: the registry delta around it (the
    // only work in flight), labeled with the single tenant's name.
    let mut probe = OracleProbe::new(&run.oracle);
    let before = obs::snapshot();
    let report = master.on_violation_validated(case.violation_at, &mut probe);
    let snapshot = obs::snapshot().delta_since(&before).labeled("default");
    write_obs_json(args, &snapshot)?;

    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "app": app.name(),
                "fault": fault.name(),
                "seed": seed,
                "violation_at": case.violation_at,
                "engine": report.engine.to_string(),
                "verdict": format!("{:?}", report.verdict),
                "pinpointed": report.pinpointed,
                "removed_by_validation": report.removed_by_validation,
                "instrumented": obs::enabled(),
                "snapshot": snapshot,
            }))?
        );
        return Ok(());
    }

    println!(
        "pipeline snapshot — {app} / {fault}, seed {seed}, t_v={}, {} hosts, W={lookback}, \
         {engine} engine",
        case.violation_at, n_hosts
    );
    println!(
        "verdict {:?}, pinpointed {:?}",
        report.verdict, report.pinpointed
    );
    if !report.removed_by_validation.is_empty() {
        println!(
            "removed by online validation: {:?}",
            report.removed_by_validation
        );
    }
    println!("\nstages (this diagnosis only):");
    println!(
        "  {:<17} {:>7}  {:>10}  {:>10}  {:>10}",
        "stage", "count", "total", "mean", "max"
    );
    for s in &snapshot.stages {
        if s.count == 0 {
            continue;
        }
        println!(
            "  {:<17} {:>7}  {:>10}  {:>10}  {:>10}",
            s.stage,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.mean_ns().round() as u64),
            fmt_ns(s.max_ns)
        );
    }
    println!("\ncounters:");
    for c in &snapshot.counters {
        if c.value == 0 || c.counter.starts_with("ingest_") {
            continue;
        }
        println!("  {:<25} {:>9}", c.counter, c.value);
    }
    // Ingest hygiene gets its own section with zeros shown: a clean run
    // must *visibly* report zero drops/gaps/resets. (`--obs-json`
    // carries the same values.)
    println!("\ningest hygiene (zeros shown):");
    for counter in [
        obs::Counter::IngestDroppedSamples,
        obs::Counter::IngestGapTicksBridged,
        obs::Counter::IngestSeriesResets,
    ] {
        println!("  {:<25} {:>9}", counter.name(), snapshot.counter(counter));
    }
    Ok(())
}

/// `fchain chaos` — seeded generative scenario fuzzing with readiness
/// reports, single-scenario replay and failure shrinking.
pub fn chaos(args: &Args) -> CliResult {
    let seed = args.get_parsed("seed", 42u64)?;
    let scenarios = args.get_parsed("scenarios", 70usize)?;
    let engine = parse_engine(args)?;
    let mut config = FChainConfig {
        engine,
        ..FChainConfig::default()
    };
    // The chaos lab measures the production fleet configuration: the
    // ensemble stage is what holds the paper-grade accuracy floor at
    // fleet scale (see the fleet-accuracy CI guard). `--no-ensemble`
    // fuzzes the bare pipeline instead.
    config.ensemble.enabled = !args.has("no-ensemble");
    let campaign = fchain_chaos::ChaosCampaign {
        seed,
        scenarios,
        config: config.clone(),
    };

    // --scenario K: replay (and optionally shrink) exactly one scenario.
    if let Some(index) = args.get("scenario") {
        let index: usize = index
            .parse()
            .map_err(|e| format!("invalid --scenario: {e}"))?;
        let plan = fchain_chaos::plan_scenario(seed, index);
        let outcome = fchain_chaos::execute_plan(&plan, &config);
        if args.has("minimize") {
            let shrink = fchain_chaos::minimize(&plan, &config);
            if !shrink.fails {
                println!(
                    "scenario {index} ({}) passes; nothing to minimize",
                    plan.family.name()
                );
                return Ok(());
            }
            println!(
                "scenario {index} ({}) fails; shrunk {} -> {} faults, {} -> {} tenants",
                plan.family.name(),
                shrink.original_faults(),
                shrink.minimized_faults(),
                shrink.original.tenants.len(),
                shrink.minimized.tenants.len(),
            );
            for step in &shrink.steps {
                println!("  - {step}");
            }
            let confirm = fchain_chaos::execute_plan(&shrink.minimized, &config);
            println!(
                "minimal core still fails: tp={} fp={} fn={}",
                confirm.counts.tp, confirm.counts.fp, confirm.counts.fn_
            );
            return Ok(());
        }
        if args.has("json") {
            println!(
                "{}",
                serde_json::to_string_pretty(&json!({
                    "seed": seed,
                    "scenario": index,
                    "scenario_seed": plan.seed,
                    "family": plan.family.name(),
                    "tenants": plan.tenants.len(),
                    "faults": plan.fault_count(),
                    "plan": plan.tenants.iter().map(|t| json!({
                        "app": t.app.name(),
                        "fault": t.primary.kind.name(),
                        "targets": t.primary.targets,
                        "start": t.primary.start,
                        "lookback": t.lookback,
                        "extras": t.extras.iter().map(|e| json!({
                            "fault": e.kind.name(),
                            "targets": e.targets,
                            "start": e.start,
                        })).collect::<Vec<_>>(),
                    })).collect::<Vec<_>>(),
                    "engaged": outcome.engaged_tenants,
                    "failed": outcome.failed(),
                    "tp": outcome.counts.tp,
                    "fp": outcome.counts.fp,
                    "fn": outcome.counts.fn_,
                    "violations": outcome.violations.iter().map(|v| json!({
                        "tenant": v.tenant,
                        "name": v.name,
                        "violation_at": v.violation_at,
                        "pinpointed": v.pinpointed,
                        "truth": v.truth,
                        "solo_pinpointed": v.solo_pinpointed,
                    })).collect::<Vec<_>>(),
                }))?
            );
            return Ok(());
        }
        println!(
            "scenario {index} of campaign seed {seed}: family {}, seed {}, {} tenant(s), {} fault(s)",
            plan.family.name(),
            plan.seed,
            plan.tenants.len(),
            plan.fault_count()
        );
        for v in &outcome.violations {
            println!(
                "  {} t_v={} pinpointed {:?} truth {:?}",
                v.name, v.violation_at, v.pinpointed, v.truth
            );
        }
        println!(
            "score: tp={} fp={} fn={} -> {}",
            outcome.counts.tp,
            outcome.counts.fp,
            outcome.counts.fn_,
            if outcome.failed() { "FAIL" } else { "pass" }
        );
        return Ok(());
    }

    // Full sweep.
    let readiness = campaign.run();
    let rendered = serde_json::to_string_pretty(&readiness.to_json())?;
    if let Some(path) = args.get("out") {
        std::fs::write(path, rendered.clone() + "\n")
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote readiness report to {path}");
    }
    if args.has("json") {
        println!("{rendered}");
        return Ok(());
    }
    println!(
        "chaos readiness — seed {seed}, {} scenarios, {} engine",
        readiness.scenarios, readiness.engine
    );
    println!(
        "  {:<26} {:>5} {:>9} {:>10} {:>8} {:>6}",
        "family", "runs", "coverage", "precision", "recall", "fails"
    );
    for f in &readiness.families {
        println!(
            "  {:<26} {:>5} {:>9.2} {:>10.2} {:>8.2} {:>6}",
            f.family.name(),
            f.scenarios,
            f.coverage(),
            f.counts.precision(),
            f.counts.recall(),
            f.failing.len()
        );
    }
    println!(
        "overall: P={:.3} R={:.3} (tp={} fp={} fn={})",
        readiness.overall.precision(),
        readiness.overall.recall(),
        readiness.overall.tp,
        readiness.overall.fp,
        readiness.overall.fn_
    );
    let weak = readiness.weak_families();
    if weak.is_empty() {
        println!("no weak families");
    } else {
        println!(
            "weak families (P or R < 0.9): {}",
            weak.iter().map(|f| f.name()).collect::<Vec<_>>().join(", ")
        );
    }
    Ok(())
}

/// `fchain list` — inventory.
pub fn list() -> CliResult {
    println!("applications:");
    println!("  rubis    RUBiS three-tier online auction (web, app1, app2, db)");
    println!("  hadoop   Hadoop sort (3 map + 6 reduce nodes)");
    println!("  systems  IBM System S stream pipeline (PE1..PE7)");
    println!("\nfaults:");
    for (name, fault) in FAULTS {
        let apps: Vec<&str> = [AppKind::Rubis, AppKind::Hadoop, AppKind::SystemS]
            .iter()
            .filter(|&&a| fault_defined(a, fault))
            .map(|a| a.name())
            .collect();
        println!("  {name:<15} [{}]", apps.join(", "));
    }
    println!("\nschemes: FChain, Histogram, NetMedic, Topology, Dependency, PAL, Fixed-Filtering");
    Ok(())
}

/// Whether a (app, fault) combination is defined by the paper.
fn fault_defined(app: AppKind, fault: FaultKind) -> bool {
    use FaultKind::*;
    matches!(
        (app, fault),
        (_, WorkloadSurge)
            | (
                AppKind::Rubis,
                MemLeak | CpuHog | NetHog | OffloadBug | LbBug
            )
            | (
                AppKind::SystemS,
                MemLeak | CpuHog | Bottleneck | ConcurrentMemLeak | ConcurrentCpuHog
            )
            | (
                AppKind::Hadoop,
                ConcurrentMemLeak | ConcurrentCpuHog | ConcurrentDiskHog
            )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_and_fault_parsing() {
        assert_eq!(parse_app("rubis").unwrap(), AppKind::Rubis);
        assert!(parse_app("nope").is_err());
        assert_eq!(
            parse_fault("conc_cpuhog").unwrap(),
            FaultKind::ConcurrentCpuHog
        );
        assert!(parse_fault("nope").is_err());
    }

    #[test]
    fn every_fault_name_is_unique_and_roundtrips() {
        for (name, fault) in FAULTS {
            assert_eq!(fault.name(), name);
            assert_eq!(parse_fault(name).unwrap(), fault);
        }
    }

    #[test]
    fn undefined_app_fault_pair_is_a_clean_error() {
        assert_eq!(
            parse_case("hadoop", "conc_diskhog").unwrap(),
            (AppKind::Hadoop, FaultKind::ConcurrentDiskHog)
        );
        // Every subcommand that takes the pair refuses it before simulating.
        for cmd in ["run", "diagnose", "compare", "degraded", "obs"] {
            let args = Args::parse([cmd, "--app", "hadoop", "--fault", "diskhog"]).unwrap();
            let result = match cmd {
                "run" => run(&args),
                "diagnose" => diagnose(&args),
                "compare" => compare(&args),
                "degraded" => degraded(&args),
                _ => obs(&args),
            };
            let err = result.expect_err(cmd).to_string();
            assert!(err.contains("is not defined for hadoop"), "{cmd}: {err}");
        }
    }

    #[test]
    fn defined_combinations_match_the_paper() {
        assert!(fault_defined(AppKind::Rubis, FaultKind::NetHog));
        assert!(!fault_defined(AppKind::Hadoop, FaultKind::NetHog));
        assert!(fault_defined(AppKind::Hadoop, FaultKind::ConcurrentDiskHog));
        assert!(!fault_defined(AppKind::Rubis, FaultKind::Bottleneck));
    }

    #[test]
    fn diagnose_command_end_to_end() {
        let args = Args::parse([
            "diagnose",
            "--app",
            "rubis",
            "--fault",
            "cpuhog",
            "--seed",
            "42",
            "--duration",
            "1500",
            "--json",
        ])
        .unwrap();
        diagnose(&args).expect("diagnose runs");
    }

    #[test]
    fn fleet_attribute_command_end_to_end() {
        let out = std::env::temp_dir().join("fchain-fleet-attribution-test.json");
        let out = out.to_str().expect("utf-8 temp path");
        let args = Args::parse([
            "fleet",
            "--tenants",
            "2",
            "--rpc-delay-ms",
            "0",
            "--slave-deadline-ms",
            "60000",
            "--ensemble",
            "--attribute",
            "--out",
            out,
        ])
        .unwrap();
        fleet(&args).expect("fleet --attribute runs");
        let rendered = std::fs::read_to_string(out).expect("attribution JSON written");
        let _ = std::fs::remove_file(out);
        assert!(rendered.contains("fleet_attribution"));
        for class in ["clean", "harder_case", "evidence_truncation"] {
            assert!(rendered.contains(class), "missing class {class}");
        }
    }

    #[test]
    fn engine_flag_parses_and_rejects_unknown_names() {
        let batch = Args::parse(["diagnose", "--engine", "batch"]).unwrap();
        assert_eq!(parse_engine(&batch).unwrap(), AnalysisEngine::Batch);
        let absent = Args::parse(["diagnose"]).unwrap();
        assert_eq!(parse_engine(&absent).unwrap(), AnalysisEngine::Streaming);
        let bogus = Args::parse(["diagnose", "--engine", "turbo"]).unwrap();
        let err = parse_engine(&bogus).unwrap_err().to_string();
        assert!(err.contains("turbo"), "unhelpful error: {err}");
    }

    #[test]
    fn diagnose_with_batch_engine_end_to_end() {
        let args = Args::parse([
            "diagnose",
            "--app",
            "rubis",
            "--fault",
            "cpuhog",
            "--seed",
            "42",
            "--duration",
            "1500",
            "--engine",
            "batch",
            "--json",
        ])
        .unwrap();
        diagnose(&args).expect("diagnose runs with the batch engine");
    }

    #[test]
    fn replay_csv_drives_the_workload() {
        let dir = std::env::temp_dir().join("fchain-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let csv: String = (0..400u64)
            .map(|t| format!("{t},{}\n", 0.3 + 0.4 * ((t % 60) as f64 / 60.0)))
            .collect();
        std::fs::write(&path, csv).unwrap();
        let args = Args::parse([
            "run",
            "--app",
            "rubis",
            "--fault",
            "cpuhog",
            "--seed",
            "5",
            "--duration",
            "800",
            "--replay-csv",
            path.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        run(&args).expect("replayed run");
    }

    #[test]
    fn degraded_command_end_to_end() {
        let args = Args::parse([
            "degraded",
            "--app",
            "rubis",
            "--fault",
            "cpuhog",
            "--seed",
            "900",
            "--runs",
            "2",
            "--duration",
            "1500",
            "--rates",
            "0,0.5",
            "--json",
        ])
        .unwrap();
        degraded(&args).expect("degraded sweep runs");
    }

    #[test]
    fn degraded_command_rejects_bad_rates() {
        let args = Args::parse([
            "degraded", "--app", "rubis", "--fault", "cpuhog", "--rates", "0,1.5",
        ])
        .unwrap();
        assert!(degraded(&args).is_err());
    }

    #[test]
    fn zero_hosts_is_a_clean_error() {
        type Command = fn(&Args) -> CliResult;
        let commands: [(&str, Command); 4] = [
            ("diagnose", diagnose),
            ("degraded", degraded),
            ("fleet", fleet),
            ("obs", obs),
        ];
        for (name, command) in commands {
            let args = Args::parse([
                name,
                "--app",
                "rubis",
                "--fault",
                "cpuhog",
                "--tenants",
                "1",
                "--hosts",
                "0",
            ])
            .unwrap();
            assert!(command(&args).is_err(), "{name} --hosts 0 must be an error");
        }
    }

    #[test]
    fn run_command_end_to_end() {
        let args = Args::parse([
            "run",
            "--app",
            "systems",
            "--fault",
            "bottleneck",
            "--seed",
            "3",
            "--duration",
            "1200",
        ])
        .unwrap();
        run(&args).expect("run runs");
    }
}
