//! Arrival-order and batch/streaming parity: the sharded, multi-threaded
//! diagnosis path (parallel `SlaveDaemon::analyze_all` + parallel master
//! fan-out) must produce bit-identical reports whatever order the slaves'
//! answers arrive in — checked against the same master with its answers
//! forced into reverse order — for the same seeded campaign cases, and
//! the streaming analysis engine must produce bit-identical findings to
//! the batch reference — over seeded simulator campaigns and over
//! adversarial synthetic streams (gaps, duplicates, out-of-order ticks,
//! outages that reset the series, injected step faults).

use fchain::core::master::Master;
use fchain::core::slave::{MetricSample, Recording, SlaveDaemon};
use fchain::core::{
    AnalysisEngine, CollectRequest, FChain, FChainConfig, FaultySlave, FleetMaster, FleetViolation,
    LookbackRetry, SlaveEndpoint, SlaveFault, TenantSlave,
};
use fchain::eval::case_from_run;
use fchain::metrics::{AppId, ComponentId, MetricKind};
use fchain::obs;
use fchain::sim::{AppKind, FaultKind, RunConfig, Simulator};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The default config with the given engine selected.
fn engine_config(engine: AnalysisEngine) -> FChainConfig {
    FChainConfig {
        engine,
        ..FChainConfig::default()
    }
}

/// How [`master_from_seeded_run_with`] registers each host's daemon.
#[derive(Debug, Clone, Copy)]
enum Wrap {
    /// The daemon itself.
    Plain,
    /// A no-op [`FaultySlave`]: the endpoint indirection with fault
    /// injection disabled must be invisible in the reports.
    NoOp,
    /// The reference for thread timing: a [`reversed_stall`] per host,
    /// so answers reach the fan-out in reverse registration order.
    ReversedArrival,
}

/// The stall for registration index `i` of `count` endpoints: the delay
/// decreases with the index, so the last-registered slave answers first.
fn reversed_stall(i: usize, count: usize) -> SlaveFault {
    SlaveFault::Stall {
        delay: Duration::from_millis(20 * (count - i) as u64),
    }
}

/// Simulates one seeded run, streams every component's metrics into
/// per-host slave daemons (two hosts, components split round-robin, so the
/// master-level fan-out is exercised too), and returns the wired master
/// plus the violation tick.
fn master_from_seeded_run(app: AppKind, fault: FaultKind, seed: u64) -> Option<(Master, u64)> {
    master_from_seeded_run_with(app, fault, seed, Wrap::Plain, &FChainConfig::default())
}

/// Like [`master_from_seeded_run`], registering every host as `wrap`
/// says and with an explicit config so the analysis engine can be
/// selected.
fn master_from_seeded_run_with(
    app: AppKind,
    fault: FaultKind,
    seed: u64,
    wrap: Wrap,
    config: &FChainConfig,
) -> Option<(Master, u64)> {
    let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
    let case = case_from_run(&run, 100)?;
    let hosts: Vec<Arc<SlaveDaemon>> = (0..2)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone())))
        .collect();
    for (i, component) in case.components.iter().enumerate() {
        let host = &hosts[i % hosts.len()];
        for sample in MetricSample::replay(component.id, &component.metrics) {
            host.ingest(sample);
        }
    }
    let mut master = Master::new(config.clone());
    let count = hosts.len();
    for (i, host) in hosts.into_iter().enumerate() {
        let fault = match wrap {
            Wrap::Plain => {
                master.register_slave(host);
                continue;
            }
            Wrap::NoOp => SlaveFault::None,
            Wrap::ReversedArrival => reversed_stall(i, count),
        };
        master.register_slave(Arc::new(FaultySlave::new(
            host as Arc<dyn SlaveEndpoint>,
            fault,
        )));
    }
    if let Some(deps) = case.discovered_deps.clone() {
        master.set_dependencies(deps);
    }
    Some((master, case.violation_at))
}

/// Builds a [`FleetMaster`] with a single tenant wired exactly like
/// [`master_from_seeded_run_with`] wires its `Master`: two shared-pool
/// hosts, components split round-robin, every slave registered as a
/// tenant-scoped view.
fn fleet_from_seeded_run(
    app: AppKind,
    fault: FaultKind,
    seed: u64,
    config: &FChainConfig,
) -> Option<(FleetMaster, AppId, u64)> {
    let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
    let case = case_from_run(&run, 100)?;
    let mut fleet = FleetMaster::new(config.clone());
    let tenant = fleet.add_tenant("only");
    let hosts: Vec<Arc<SlaveDaemon>> = (0..2)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone())))
        .collect();
    for (i, component) in case.components.iter().enumerate() {
        let host = &hosts[i % hosts.len()];
        for sample in MetricSample::replay(component.id, &component.metrics) {
            host.ingest_for(tenant, sample);
        }
    }
    for host in hosts {
        fleet.register_slave(tenant, Arc::new(TenantSlave::new(host, tenant)));
    }
    if let Some(deps) = case.discovered_deps.clone() {
        fleet.set_dependencies(tenant, deps);
    }
    Some((fleet, tenant, case.violation_at))
}

fn assert_parity(app: AppKind, fault: FaultKind, seeds: &[u64]) {
    let mut compared = 0;
    for &seed in seeds {
        let Some((master, violation_at)) = master_from_seeded_run(app, fault, seed) else {
            continue;
        };
        let (reversed, _) = master_from_seeded_run_with(
            app,
            fault,
            seed,
            Wrap::ReversedArrival,
            &FChainConfig::default(),
        )
        .expect("same seed must produce the same case");
        let report = master.on_violation(violation_at);
        assert_eq!(
            report,
            reversed.on_violation(violation_at),
            "{app:?}/{fault:?} seed {seed}: reversed answer arrival changed the report"
        );
        // Re-running the same master must also be stable with itself.
        assert_eq!(report, master.on_violation(violation_at));
        compared += 1;
    }
    assert!(
        compared >= 3,
        "{app:?}/{fault:?}: only {compared} seeded cases produced a violation"
    );
}

/// The offline ≡ online oracle: `FChain::diagnose` on a recorded case
/// must equal the production deployment of the same case — a two-host
/// `Master` over the daemons `SlaveDaemon::replay_pool` stages
/// (components split round-robin, the whole case retained) — in findings,
/// verdict and pinpointed, on both engines, with the look-back widen
/// retry off and on. The cases are 3600-tick runs: RUBiS CpuHog at
/// W = 100, Hadoop ConcurrentDiskHog at W = 500, and the same disk hog
/// at W = 100, where the first answer is empty and only the widened
/// re-ask pinpoints.
#[test]
fn offline_diagnosis_equals_the_two_host_master() {
    let cases = [
        (AppKind::Rubis, FaultKind::CpuHog, 900, 100),
        (AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 3, 500),
        (AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 8, 100),
    ];
    let mut widened = 0;
    for (app, fault, seed, lookback) in cases {
        let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
        let case = case_from_run(&run, lookback).expect("seeded run must violate its SLO");
        for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
            let config = FChainConfig {
                engine,
                lookback,
                ..FChainConfig::default()
            };
            let recording = Recording::case(AppId::default(), 0, &case);
            let hosts = SlaveDaemon::replay_pool(&config, 2, &[recording]);
            let mut answers = Vec::new();
            for lookback_retry in [LookbackRetry::Off, LookbackRetry::Widen] {
                let config = FChainConfig {
                    lookback_retry,
                    ..config.clone()
                };
                let mut master = Master::new(config.clone());
                for host in &hosts {
                    master.register_slave(Arc::clone(host) as Arc<dyn SlaveEndpoint>);
                }
                if let Some(deps) = case.dependency_evidence(config.ensemble.enabled) {
                    master.set_dependencies(deps.clone());
                }
                let online = master.on_violation(case.violation_at);
                let offline = FChain::new(config).diagnose(&case);
                let label =
                    format!("{app:?}/{fault:?} seed {seed} W={lookback} {engine} {lookback_retry}");
                assert_eq!(offline.findings, online.findings, "{label}: findings");
                assert_eq!(offline.verdict, online.verdict, "{label}: verdict");
                assert_eq!(offline.pinpointed, online.pinpointed, "{label}: pinpointed");
                answers.push(offline.pinpointed);
            }
            if answers[0].is_empty() && !answers[1].is_empty() {
                widened += 1;
            }
        }
    }
    assert_eq!(
        widened, 2,
        "the W=100 disk hog must exercise the widen retry on both engines"
    );
}

#[test]
fn rubis_reports_are_identical_across_paths() {
    assert_parity(AppKind::Rubis, FaultKind::CpuHog, &[900, 901, 902, 903]);
}

#[test]
fn hadoop_reports_are_identical_across_paths() {
    assert_parity(
        AppKind::Hadoop,
        FaultKind::ConcurrentMemLeak,
        &[40, 41, 42, 43],
    );
}

#[test]
fn systems_reports_are_identical_across_paths() {
    assert_parity(AppKind::SystemS, FaultKind::MemLeak, &[500, 501, 502, 503]);
}

/// With fault injection disabled, the `FaultySlave`-wrapped master must
/// produce bit-identical reports to the plain one, and so must wrappers
/// that only reorder the answers.
#[test]
fn disabled_fault_injection_is_invisible() {
    let mut compared = 0;
    for &seed in &[900u64, 901, 902, 903] {
        let Some((plain, violation_at)) =
            master_from_seeded_run(AppKind::Rubis, FaultKind::CpuHog, seed)
        else {
            continue;
        };
        let wrapped_with = |wrap| {
            master_from_seeded_run_with(
                AppKind::Rubis,
                FaultKind::CpuHog,
                seed,
                wrap,
                &FChainConfig::default(),
            )
            .expect("same seed must produce the same case")
            .0
        };
        let reference = plain.on_violation(violation_at);
        assert_eq!(
            reference,
            wrapped_with(Wrap::NoOp).on_violation(violation_at),
            "seed {seed}: a no-op FaultySlave changed the report"
        );
        assert_eq!(
            reference,
            wrapped_with(Wrap::ReversedArrival).on_violation(violation_at),
            "seed {seed}: reordering FaultySlaves changed the report"
        );
        compared += 1;
    }
    assert!(compared >= 3, "only {compared} seeded cases fired");
}

/// The streaming engine must produce bit-identical reports to the batch
/// reference on full seeded campaigns (daemon ingest → master fan-out →
/// pinpointing), with the engine choice correctly stamped on each report.
#[test]
fn batch_and_streaming_engines_agree_on_seeded_runs() {
    let cases = [
        (AppKind::Rubis, FaultKind::CpuHog, 900u64),
        (AppKind::Rubis, FaultKind::CpuHog, 901),
        (AppKind::Hadoop, FaultKind::ConcurrentMemLeak, 40),
        (AppKind::SystemS, FaultKind::MemLeak, 500),
        (AppKind::Rubis, FaultKind::CpuHog, 11),
        (AppKind::SystemS, FaultKind::Bottleneck, 3),
    ];
    let mut compared = 0;
    for (app, fault, seed) in cases {
        let batch_cfg = engine_config(AnalysisEngine::Batch);
        let streaming_cfg = engine_config(AnalysisEngine::Streaming);
        let Some((batch, violation_at)) =
            master_from_seeded_run_with(app, fault, seed, Wrap::Plain, &batch_cfg)
        else {
            continue;
        };
        let (streaming, _) =
            master_from_seeded_run_with(app, fault, seed, Wrap::Plain, &streaming_cfg)
                .expect("same seed must produce the same case");
        let batch_report = batch.on_violation(violation_at);
        let streaming_report = streaming.on_violation(violation_at);
        // `DiagnosisReport::eq` ignores the provenance fields, so this is
        // exactly "same verdict, same pinpointing, same findings, bit for
        // bit".
        assert_eq!(
            batch_report, streaming_report,
            "{app:?}/{fault:?} seed {seed}: engines diverge"
        );
        assert_eq!(batch_report.engine, AnalysisEngine::Batch);
        assert_eq!(streaming_report.engine, AnalysisEngine::Streaming);
        compared += 1;
    }
    assert!(compared >= 3, "only {compared} seeded cases fired");
}

/// A fleet of one tenant must produce bit-identical diagnosis payloads
/// to the single-app `Master` wrapper — same golden campaign cases, both
/// engines, drained and diagnosed standalone. This is the contract that
/// lets the single-app API stay a thin wrapper over the fleet layer.
#[test]
fn fleet_of_one_matches_the_single_app_master() {
    let cases = [
        (AppKind::Rubis, FaultKind::CpuHog, 900u64),
        (AppKind::Rubis, FaultKind::CpuHog, 901),
        (AppKind::Hadoop, FaultKind::ConcurrentMemLeak, 40),
        (AppKind::SystemS, FaultKind::MemLeak, 500),
        (AppKind::Rubis, FaultKind::CpuHog, 11),
        (AppKind::SystemS, FaultKind::Bottleneck, 3),
    ];
    let mut compared = 0;
    for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
        let config = engine_config(engine);
        for (app, fault, seed) in cases {
            let Some((master, violation_at)) =
                master_from_seeded_run_with(app, fault, seed, Wrap::Plain, &config)
            else {
                continue;
            };
            let (fleet, tenant, fleet_violation_at) =
                fleet_from_seeded_run(app, fault, seed, &config)
                    .expect("same seed must produce the same case");
            assert_eq!(violation_at, fleet_violation_at);
            let violation = FleetViolation {
                app: tenant,
                violation_at,
            };
            let drained = fleet.on_violations(&[violation]);
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].app, tenant);
            // `DiagnosisReport::eq` ignores provenance, so this is "same
            // verdict, same pinpointing, same findings, bit for bit".
            assert_eq!(
                master.on_violation(violation_at),
                drained[0].report,
                "{app:?}/{fault:?} seed {seed} ({engine:?}): fleet drain diverges"
            );
            assert_eq!(
                fleet.diagnose(tenant, violation_at),
                drained[0].report,
                "{app:?}/{fault:?} seed {seed} ({engine:?}): drain diverges from a standalone diagnosis"
            );
            compared += 1;
        }
    }
    assert!(compared >= 6, "only {compared} seeded cases fired");
}

/// The ensemble pinpointing stage is opt-in: `ensemble.enabled` defaults
/// to `false`, so pre-ensemble reports are pinned. With the stage
/// enabled, reports must still be independent of the order the slaves'
/// answers arrive in.
#[test]
fn disabled_ensemble_is_invisible_and_enabled_is_deterministic() {
    let cases = [
        (AppKind::Rubis, FaultKind::CpuHog, 900u64),
        (AppKind::Hadoop, FaultKind::ConcurrentMemLeak, 40),
        (AppKind::SystemS, FaultKind::MemLeak, 500),
    ];
    assert!(
        !FChainConfig::default().ensemble.enabled,
        "the ensemble stage must stay opt-in"
    );
    let mut compared = 0;
    for (app, fault, seed) in cases {
        let Some((_, violation_at)) = master_from_seeded_run(app, fault, seed) else {
            continue;
        };
        // Enabled stage: reversed answer arrival leaves the report alone.
        let mut enabled = FChainConfig::default();
        enabled.ensemble.enabled = true;
        let ensembled_with = |wrap| {
            master_from_seeded_run_with(app, fault, seed, wrap, &enabled)
                .expect("same seed must produce the same case")
                .0
        };
        assert_eq!(
            ensembled_with(Wrap::Plain).on_violation(violation_at),
            ensembled_with(Wrap::ReversedArrival).on_violation(violation_at),
            "{app:?}/{fault:?} seed {seed}: ensemble report depends on arrival order"
        );
        compared += 1;
    }
    assert!(compared >= 2, "only {compared} seeded cases fired");
}

/// Instrumentation observes, never steers: the same master answers the
/// same violation identically with recording switched off and back on,
/// and the switch really does stop recording in between.
#[test]
fn instrumentation_switch_leaves_reports_unchanged() {
    let mut compared = 0;
    for (app, fault, seed) in [
        (AppKind::Rubis, FaultKind::CpuHog, 900u64),
        (AppKind::SystemS, FaultKind::MemLeak, 500),
    ] {
        let Some((master, violation_at)) = master_from_seeded_run(app, fault, seed) else {
            continue;
        };
        // The diagnosis's own profile: the registry delta around it.
        let observed = || {
            let before = obs::snapshot();
            let report = master.on_violation(violation_at);
            (report, obs::snapshot().delta_since(&before))
        };
        let (recorded, recorded_delta) = observed();
        obs::set_enabled(false);
        let (silent, silent_delta) = observed();
        obs::set_enabled(true);
        let (again, again_delta) = observed();

        assert_eq!(
            recorded, silent,
            "{app:?}/{fault:?} seed {seed}: switching recording off changed the report"
        );
        assert_eq!(
            recorded, again,
            "{app:?}/{fault:?} seed {seed}: report drifted"
        );
        let counted =
            |delta: &obs::PipelineSnapshot| delta.counter(obs::Counter::ComponentsAnalyzed);
        assert!(counted(&recorded_delta) > 0 && counted(&again_delta) > 0);
        assert!(
            silent_delta.is_empty(),
            "recording continued with the switch off"
        );
        compared += 1;
    }
    assert!(compared >= 1, "no seeded case fired");
}

/// Reports over real sockets must be bit-identical to in-process: the
/// same golden campaign case staged into two *separate-process*
/// `fchaind` daemons (spawned from the built binary), streamed over the
/// wire, collected through [`fchain::wire::RemoteSlave`] endpoints —
/// over UDS and TCP, on both analysis engines, with answers arriving in
/// registration order and reversed. This is the transport-seam contract:
/// the wire protocol adds failure modes, never different answers.
#[test]
fn socket_transports_match_in_process_reports() {
    use fchain::wire::{RemoteSlave, WireAddr};
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let spawn_daemon = |config: &FChainConfig, tag: &str| {
        let config_path = std::env::temp_dir().join(format!(
            "fchain-determinism-{}-{tag}.json",
            std::process::id()
        ));
        std::fs::write(
            &config_path,
            serde_json::to_string(config).expect("serialize config"),
        )
        .expect("write config");
        let socket = std::env::temp_dir().join(format!(
            "fchain-determinism-{}-{tag}.sock",
            std::process::id()
        ));
        let listen: [String; 2] = if tag.starts_with("uds") {
            ["--uds".into(), socket.to_str().expect("utf-8").into()]
        } else {
            ["--tcp".into(), "127.0.0.1:0".into()]
        };
        let mut child = Command::new(env!("CARGO_BIN_EXE_fchaind"))
            .args(listen)
            .args(["--deadline-ms", "10000"])
            .arg("--config")
            .arg(&config_path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fchaind");
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read startup line");
        let _ = std::fs::remove_file(&config_path);
        let addr: WireAddr = line
            .trim()
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .parse()
            .expect("parse bound address");
        (child, addr)
    };

    let (app, fault, seed) = (AppKind::Rubis, FaultKind::CpuHog, 900u64);
    let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
    let case = case_from_run(&run, 100).expect("seed 900 fires the SLO");

    for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
        let config = engine_config(engine);
        let (reference, violation_at) =
            master_from_seeded_run_with(app, fault, seed, Wrap::Plain, &config)
                .expect("seed 900 fires the SLO");
        let reference = reference.on_violation(violation_at);

        for transport in ["uds", "tcp"] {
            let daemons: Vec<_> = (0..2)
                .map(|h| spawn_daemon(&config, &format!("{transport}-{engine:?}-{h}")))
                .collect();
            let remotes: Vec<Arc<RemoteSlave>> = daemons
                .iter()
                .map(|(_, addr)| {
                    Arc::new(
                        RemoteSlave::connect(addr.clone(), None, Some(Duration::from_secs(10)))
                            .expect("connect"),
                    )
                })
                .collect();
            // The same round-robin component split the in-process
            // reference uses, streamed over the socket.
            for (i, component) in case.components.iter().enumerate() {
                let remote = &remotes[i % remotes.len()];
                let batch: Vec<MetricSample> =
                    MetricSample::replay(component.id, &component.metrics).collect();
                for chunk in batch.chunks(16384) {
                    remote
                        .ingest_batch(AppId::default(), chunk)
                        .expect("ingest over the socket");
                }
            }
            let mut master = Master::new(config.clone());
            let mut reversed = Master::new(config.clone());
            for (i, remote) in remotes.iter().enumerate() {
                let endpoint = Arc::clone(remote) as Arc<dyn SlaveEndpoint>;
                master.register_slave(Arc::clone(&endpoint));
                reversed.register_slave(Arc::new(FaultySlave::new(
                    endpoint,
                    reversed_stall(i, remotes.len()),
                )));
            }
            if let Some(deps) = case.discovered_deps.clone() {
                master.set_dependencies(deps.clone());
                reversed.set_dependencies(deps);
            }
            assert_eq!(
                reference,
                master.on_violation(violation_at),
                "{engine:?}/{transport}: socket report diverges from in-process"
            );
            assert_eq!(
                reference,
                reversed.on_violation(violation_at),
                "{engine:?}/{transport}: reversed socket answers diverge"
            );
            for remote in &remotes {
                remote.shutdown().expect("clean shutdown");
            }
            for (mut child, _) in daemons {
                child.wait().expect("reap fchaind");
            }
        }
    }
}

/// One synthetic metric stream with adversarial ingest conditions: a
/// modular baseline, an optional injected step fault, a dropped tick
/// range (bridged gap, or a series-resetting outage when long enough) and
/// periodic duplicate + out-of-order replays.
#[derive(Debug, Clone)]
struct StreamPlan {
    base: f64,
    modulus: u64,
    fault_at: Option<u64>,
    fault_delta: f64,
    gap_start: u64,
    gap_len: u64,
    dup_every: u64,
}

impl StreamPlan {
    fn value_at(&self, t: u64, kind: MetricKind) -> f64 {
        let normal = self.base + ((t * (kind.index() as u64 + 2)) % self.modulus) as f64;
        match self.fault_at {
            Some(at) if t >= at && kind == MetricKind::Cpu => normal + self.fault_delta,
            _ => normal,
        }
    }

    fn feed(&self, daemon: &SlaveDaemon, component: ComponentId, n: u64) {
        for kind in MetricKind::ALL {
            for t in 0..n {
                if t >= self.gap_start && t < self.gap_start + self.gap_len {
                    continue;
                }
                let mk = |tick: u64| MetricSample {
                    tick,
                    component,
                    kind,
                    value: self.value_at(tick, kind),
                };
                daemon.ingest(mk(t));
                if self.dup_every > 0 && t % self.dup_every == 0 {
                    daemon.ingest(mk(t)); // duplicate tick: dropped
                    if t > 0 {
                        daemon.ingest(mk(t - 1)); // out-of-order: dropped
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over arbitrary adversarial streams the two engines' daemon
    /// analyses are bit-identical — at the live edge (where the streaming
    /// engine reads its sketch-backed floor and fast screen), with a
    /// trimmed tail, and mid-history.
    #[test]
    fn engines_bit_identical_over_adversarial_streams(
        n in 260u64..420,
        base in 10.0f64..80.0,
        modulus in 2u64..7,
        fault in proptest::option::of((180u64..240, 20.0f64..60.0)),
        gap_start in 100u64..200,
        // Up to 40 dropped ticks: beyond the 30-tick bridge limit this
        // exercises the series-reset path too.
        gap_len in 0u64..40,
        dup_every in 0u64..9,
    ) {
        let plans = [
            StreamPlan {
                base,
                modulus,
                fault_at: fault.map(|(at, _)| at),
                fault_delta: fault.map(|(_, d)| d).unwrap_or(0.0),
                gap_start,
                gap_len,
                dup_every,
            },
            // A second, clean component without ingest anomalies.
            StreamPlan {
                base: 40.0,
                modulus: 5,
                fault_at: None,
                fault_delta: 0.0,
                gap_start: 0,
                gap_len: 0,
                dup_every: 0,
            },
        ];
        let batch = SlaveDaemon::new(engine_config(AnalysisEngine::Batch));
        let streaming = SlaveDaemon::new(engine_config(AnalysisEngine::Streaming));
        for daemon in [&batch, &streaming] {
            for (i, plan) in plans.iter().enumerate() {
                plan.feed(daemon, ComponentId(i as u32), n);
            }
        }
        prop_assert_eq!(batch.monitored_components(), streaming.monitored_components());
        for violation_at in [n - 1, n.saturating_sub(7), n / 2] {
            let request = CollectRequest::at(violation_at);
            prop_assert_eq!(
                batch.analyze_all(None, &request),
                streaming.analyze_all(None, &request),
                "engines diverge at violation tick {}", violation_at
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same parity past the ring's capacity at W = 126, where
    /// W + 3 is one sample past a block boundary: the value ring evicts,
    /// the error store's shadow learner advances, and the streaming
    /// engine screens and copies at the edge of the hot error tier.
    #[test]
    fn engines_bit_identical_past_capacity_at_the_hot_tier_edge(
        extra in 1u64..200,
        base in 10.0f64..80.0,
        modulus in 2u64..7,
        fault in proptest::option::of((40u64..120, 20.0f64..60.0)),
        gap_start in 100u64..200,
        gap_len in 0u64..40,
        dup_every in 0u64..9,
    ) {
        let lookback = 126;
        let config = |engine| FChainConfig {
            lookback,
            ..engine_config(engine)
        };
        let batch = SlaveDaemon::new(config(AnalysisEngine::Batch));
        let streaming = SlaveDaemon::new(config(AnalysisEngine::Streaming));
        // Past capacity even after a series-resetting outage.
        let n = (batch.capacity() as u64) + gap_start + gap_len + extra;
        let plans = [
            StreamPlan {
                base,
                modulus,
                fault_at: fault.map(|(back, _)| n - back),
                fault_delta: fault.map(|(_, d)| d).unwrap_or(0.0),
                gap_start,
                gap_len,
                dup_every,
            },
            StreamPlan {
                base: 40.0,
                modulus: 5,
                fault_at: None,
                fault_delta: 0.0,
                gap_start: 0,
                gap_len: 0,
                dup_every: 0,
            },
        ];
        for daemon in [&batch, &streaming] {
            for (i, plan) in plans.iter().enumerate() {
                plan.feed(daemon, ComponentId(i as u32), n);
            }
        }
        for violation_at in [n - 1, n - 7] {
            let request = CollectRequest::at(violation_at);
            prop_assert_eq!(
                batch.analyze_all(None, &request),
                streaming.analyze_all(None, &request),
                "engines diverge at violation tick {}", violation_at
            );
        }
    }
}
