//! Socket-transport integration: real `fchaind` child processes behind
//! [`fchain::wire::RemoteSlave`] endpoints. The degraded half of the
//! wire contract lives here — a killed or stalled daemon must become a
//! named blind spot in the coverage accounting, and the master must
//! return within its deadline budget instead of hanging on the socket.
//! (The bit-identical parity half is pinned in `tests/determinism.rs`.)

use fchain::core::master::Master;
use fchain::core::slave::MetricSample;
use fchain::core::{CollectRequest, FChainConfig, SlaveEndpoint, SlaveError, SlaveStatus};
use fchain::metrics::{AppId, ComponentId, MetricKind};
use fchain::wire::{RemoteSlave, WireAddr, INGEST_WINDOW};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static NONCE: AtomicU64 = AtomicU64::new(0);

/// One spawned `fchaind` child process. Killed on drop so a failing
/// test never leaks daemons (a stopped child is resumed first — SIGKILL
/// alone does not reap a `SIGSTOP`ped process group member cleanly).
struct Daemon {
    child: Child,
    addr: WireAddr,
}

impl Daemon {
    fn spawn_uds() -> Daemon {
        let path = std::env::temp_dir().join(format!(
            "fchain-wire-test-{}-{}.sock",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        Self::spawn(&["--uds", path.to_str().expect("utf-8 temp path")])
    }

    fn spawn_tcp() -> Daemon {
        Self::spawn(&["--tcp", "127.0.0.1:0"])
    }

    fn spawn(listen: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fchaind"))
            .args(listen)
            .args(["--deadline-ms", "2000"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fchaind");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the startup line");
        let addr: WireAddr = line
            .trim()
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .parse()
            .expect("parse the bound address");
        Daemon { child, addr }
    }

    /// Stops the daemon process mid-connection (SIGSTOP): the socket
    /// stays open, established connections stop answering — the
    /// stalled-host failure mode, as a real OS process.
    fn stall(&self) {
        signal(self.child.id(), "-STOP");
        wait_stopped(self.child.id());
    }
}

/// Waits until every thread of `pid` is stopped. `kill` returns once the
/// signal is sent, and a busy daemon thread can still answer a request or
/// two before it stops; a test that writes right after the stall must not
/// be served. Without procfs there is nothing to wait on.
fn wait_stopped(pid: u32) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return;
        };
        // `stat` reads `pid (comm) state …`; the state follows the last ')'.
        let stopped = tasks.flatten().all(|task| {
            std::fs::read_to_string(task.path().join("stat")).is_ok_and(|stat| {
                stat.rsplit(')')
                    .next()
                    .is_some_and(|rest| matches!(rest.trim_start().chars().next(), Some('T' | 't')))
            })
        });
        if stopped {
            return;
        }
        assert!(Instant::now() < deadline, "daemon {pid} did not stop");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn signal(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {sig} {pid} failed");
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A child the test already reaped has no process left to signal.
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        let _ = Command::new("kill")
            .args(["-CONT", &self.child.id().to_string()])
            .status();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The degraded-mode master configuration: a real socket deadline and a
/// small retry budget, mirroring `tests/degraded.rs`.
fn wire_config() -> FChainConfig {
    FChainConfig {
        slave_deadline_ms: 500,
        slave_retries: 2,
        slave_backoff_ms: 1,
        ..FChainConfig::default()
    }
}

/// Streams `n` ticks of component `c` to the daemon over the socket;
/// CPU steps up at `fault_at` if given (same shape as `tests/degraded.rs`).
fn feed_remote(remote: &RemoteSlave, c: u32, n: u64, fault_at: Option<u64>) {
    let mut batch = Vec::with_capacity((n as usize) * MetricKind::ALL.len());
    for t in 0..n {
        for kind in MetricKind::ALL {
            let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
            let value = match fault_at {
                Some(at) if kind == MetricKind::Cpu && t >= at => normal + 50.0,
                _ => normal,
            };
            batch.push(MetricSample {
                tick: t,
                component: ComponentId(c),
                kind,
                value,
            });
        }
    }
    for chunk in batch.chunks(16384) {
        remote
            .ingest_batch(AppId::default(), chunk)
            .expect("ingest over the socket");
    }
}

/// A master wired to the given daemons over real sockets, one
/// [`RemoteSlave`] per daemon, with component `i` (faulty on daemon 0)
/// fed to daemon `i`.
fn remote_master(daemons: &[&Daemon]) -> (Master, Vec<Arc<RemoteSlave>>) {
    let config = wire_config();
    let deadline = Some(Duration::from_millis(config.slave_deadline_ms));
    let mut master = Master::new(config);
    let mut remotes = Vec::new();
    for (i, daemon) in daemons.iter().enumerate() {
        let remote = Arc::new(
            RemoteSlave::connect(daemon.addr.clone(), None, deadline)
                .expect("connect to the daemon"),
        );
        feed_remote(&remote, i as u32, 1000, (i == 0).then_some(940));
        master.register_slave(Arc::clone(&remote) as Arc<dyn SlaveEndpoint>);
        remotes.push(remote);
    }
    (master, remotes)
}

/// Two healthy daemons over UDS: the fan-out crosses real sockets and
/// still pinpoints exactly, with complete coverage.
#[test]
fn healthy_daemons_answer_over_sockets() {
    let d0 = Daemon::spawn_uds();
    let d1 = Daemon::spawn_uds();
    let (master, remotes) = remote_master(&[&d0, &d1]);
    let report = master.on_violation(990);
    assert_eq!(report.pinpointed, vec![ComponentId(0)]);
    assert!(report.coverage.is_complete());
    assert_eq!(
        report.coverage.slaves,
        vec![SlaveStatus::Ok, SlaveStatus::Ok]
    );
    for remote in &remotes {
        remote.shutdown().expect("clean shutdown");
    }
}

/// A daemon killed after registration (SIGKILL, socket file left
/// behind): its collect fails on every re-dial, the master burns only
/// its retry budget, and the daemon's last-known components are named
/// as the blind spot — while the surviving daemon still answers.
#[test]
fn killed_daemon_becomes_a_blind_spot_without_hanging() {
    let d0 = Daemon::spawn_uds();
    let mut d1 = Daemon::spawn_uds();
    let (master, _remotes) = remote_master(&[&d0, &d1]);

    // Sanity: both daemons answer before the kill.
    assert!(master.on_violation(990).coverage.is_complete());

    d1.child.kill().expect("kill the daemon");
    d1.child.wait().expect("reap the daemon");

    let started = Instant::now();
    let report = master.on_violation(990);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "diagnosis took {elapsed:?}; the dead daemon was not abandoned"
    );
    assert_eq!(report.pinpointed, vec![ComponentId(0)]);
    assert_eq!(report.coverage.slaves[0], SlaveStatus::Ok);
    assert_eq!(report.coverage.slaves[1], SlaveStatus::Unreachable);
    assert_eq!(
        report.coverage.unreachable_components,
        vec![ComponentId(1)],
        "the dead daemon's inventory must be named as the blind spot"
    );
    assert!(!report.coverage.is_complete());
}

/// A daemon killed right after a batch that added a component: the
/// ingest itself re-synced the endpoint's inventory, so with no
/// inventory read in between the new component is still named as the
/// blind spot.
#[test]
fn component_added_by_ingest_is_a_blind_spot_after_a_kill() {
    let d0 = Daemon::spawn_uds();
    let mut d1 = Daemon::spawn_uds();
    let (master, remotes) = remote_master(&[&d0, &d1]);
    assert!(master.on_violation(990).coverage.is_complete());

    // Component 7 is new to daemon 1; component 1 is not.
    let batch = |c: u32| {
        MetricKind::ALL
            .map(|kind| MetricSample {
                tick: 1000,
                component: ComponentId(c),
                kind,
                value: 40.0,
            })
            .to_vec()
    };
    remotes[1]
        .ingest_batch(AppId::default(), [batch(1), batch(7)].concat())
        .expect("ingest over the socket");

    d1.child.kill().expect("kill the daemon");
    d1.child.wait().expect("reap the daemon");

    let report = master.on_violation(990);
    assert_eq!(report.coverage.slaves[1], SlaveStatus::Unreachable);
    assert_eq!(
        report.coverage.unreachable_components,
        vec![ComponentId(1), ComponentId(7)],
        "the component the last batch added must be named as the blind spot"
    );
}

/// A daemon stalled mid-collect (SIGSTOP with the connection already
/// established): the cached connection stops answering, the socket
/// deadline expires, and the master fails fast to a named blind spot
/// instead of hanging on the read.
#[test]
fn stalled_daemon_is_abandoned_at_the_deadline() {
    let d0 = Daemon::spawn_tcp();
    let d1 = Daemon::spawn_tcp();
    let (master, _remotes) = remote_master(&[&d0, &d1]);

    assert!(master.on_violation(990).coverage.is_complete());

    d1.stall();

    let started = Instant::now();
    let report = master.on_violation(990);
    let elapsed = started.elapsed();
    // One deadline for the collect read, one for the blind-spot
    // inventory refresh (which falls back to the cache), plus slack.
    assert!(
        elapsed < Duration::from_secs(5),
        "diagnosis took {elapsed:?}; the stalled daemon held the master past its deadline"
    );
    assert_eq!(report.pinpointed, vec![ComponentId(0)]);
    // The fan-out's deadline watchdog abandons the straggler before the
    // socket read even returns: a stall is a timeout, not a dead host.
    assert_eq!(report.coverage.slaves[1], SlaveStatus::TimedOut);
    assert_eq!(report.coverage.unreachable_components, vec![ComponentId(1)]);
    assert!(!report.coverage.is_complete());
}

/// One tick of every metric of component `c`.
fn tick_batch(c: u32, tick: u64) -> Vec<MetricSample> {
    MetricKind::ALL
        .map(|kind| MetricSample {
            tick,
            component: ComponentId(c),
            kind,
            value: 40.0,
        })
        .to_vec()
}

/// Pipelined ingest into a stalled daemon (SIGSTOP with the connection
/// established): the window's batches are written without waiting for
/// acks, and the first batch past it fails `Unreachable` once the
/// socket deadline expires on its ack, instead of hanging.
#[test]
fn pipelined_ingest_to_a_stalled_daemon_fails_at_the_deadline() {
    let daemon = Daemon::spawn_uds();
    let deadline = Duration::from_millis(300);
    let remote = RemoteSlave::connect(daemon.addr.clone(), None, Some(deadline)).expect("connect");
    // The first batch names a new component, so its refresh settles it.
    remote
        .ingest_batch(AppId::default(), tick_batch(0, 0))
        .expect("ingest before the stall");
    daemon.stall();

    let started = Instant::now();
    for tick in 1..=INGEST_WINDOW as u64 {
        remote
            .ingest_batch(AppId::default(), tick_batch(0, tick))
            .expect("a batch inside the window waits for no ack");
    }
    let filled = started.elapsed();
    assert!(filled < deadline, "filling the window took {filled:?}");
    let started = Instant::now();
    let past = remote.ingest_batch(AppId::default(), tick_batch(0, INGEST_WINDOW as u64 + 1));
    let waited = started.elapsed();
    assert_eq!(past, Err(SlaveError::Unreachable));
    assert!(
        waited < deadline + Duration::from_secs(1),
        "the batch past the window waited {waited:?} on a {deadline:?} deadline"
    );
}

/// A daemon killed with batches written but not yet acknowledged: the
/// next call on each endpoint fails — an ingest, a collect, and, after
/// an inventory read that can only fall back to its cache, an ingest.
#[test]
fn a_daemon_killed_with_batches_outstanding_fails_the_next_call() {
    let mut daemon = Daemon::spawn_uds();
    let deadline = Some(Duration::from_millis(500));
    let remotes: Vec<RemoteSlave> = (0..3)
        .map(|c| {
            let remote =
                RemoteSlave::connect(daemon.addr.clone(), None, deadline).expect("connect");
            remote
                .ingest_batch(AppId::default(), tick_batch(c, 0))
                .expect("ingest before the stall");
            remote
        })
        .collect();
    // Stalled first, so the batches below stay unread until the kill.
    daemon.stall();
    for (c, remote) in (0..).zip(&remotes) {
        for tick in 1..=3 {
            remote
                .ingest_batch(AppId::default(), tick_batch(c, tick))
                .expect("written inside the window");
        }
    }
    daemon.child.kill().expect("kill the daemon");
    daemon.child.wait().expect("reap the daemon");

    assert!(remotes[0]
        .ingest_batch(AppId::default(), tick_batch(0, 4))
        .is_err());
    assert!(remotes[1].collect(&CollectRequest::at(3)).is_err());
    assert_eq!(
        remotes[2].monitored_components(),
        [ComponentId(0), ComponentId(1), ComponentId(2)],
        "the last-known inventory"
    );
    assert_eq!(
        remotes[2].ingest_batch(AppId::default(), tick_batch(2, 4)),
        Err(SlaveError::Transient)
    );
}

/// The teardown half of spawn/teardown: a shutdown frame is
/// acknowledged and the daemon process actually exits, successfully.
#[test]
fn shutdown_frame_exits_the_daemon_process() {
    let mut daemon = Daemon::spawn_tcp();
    let remote = RemoteSlave::connect(daemon.addr.clone(), None, Some(Duration::from_millis(2000)))
        .expect("connect");
    remote.shutdown().expect("acknowledged shutdown");
    let status = daemon.child.wait().expect("reap the daemon");
    assert!(status.success(), "fchaind exited with {status:?}");
}

/// A config file that parses but can never analyze (zero CUSUM
/// bootstraps, zero learner bins) is a startup error: `fchaind` exits 1
/// with a named `fchaind:` error before it ever prints `listening`,
/// instead of serving a daemon whose every collect or ingest panics.
#[test]
fn invalid_config_file_fails_startup() {
    let mut no_bootstraps = FChainConfig::default();
    no_bootstraps.cusum.bootstraps = 0;
    let mut no_bins = FChainConfig::default();
    no_bins.learner.bins = 0;
    for (field, config) in [("bootstraps", no_bootstraps), ("bins", no_bins)] {
        let stem = std::env::temp_dir().join(format!(
            "fchain-wire-test-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let config_path = stem.with_extension("json");
        let socket_path = stem.with_extension("sock");
        std::fs::write(
            &config_path,
            serde_json::to_string(&config).expect("serializable config"),
        )
        .expect("write the config file");
        let mut child = Command::new(env!("CARGO_BIN_EXE_fchaind"))
            .arg("--uds")
            .arg(&socket_path)
            .arg("--config")
            .arg(&config_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fchaind");
        // A daemon that accepted the config would listen until shut down;
        // give it a bounded time to exit on its own.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("poll fchaind").is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = child.kill();
        let out = child.wait_with_output().expect("reap fchaind");
        let _ = std::fs::remove_file(&config_path);
        let _ = std::fs::remove_file(&socket_path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{field}: stderr {stderr:?}");
        assert!(!stdout.contains("listening"), "{field}: {stdout:?}");
        assert!(
            stderr.starts_with("fchaind: ") && stderr.contains(field),
            "{field}: {stderr:?}"
        );
    }
}
