//! The two slave hosts of one incident: in-process `SlaveDaemon`s, or two
//! real `fchaind` child processes reached through `RemoteSlave` over
//! Unix-domain sockets.

use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::{FChainConfig, SlaveEndpoint};
use fchain::metrics::AppId;
use fchain::wire::{RemoteSlave, WireAddr};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on every socket operation, so a wedged daemon fails the run
/// instead of hanging it.
const IO_DEADLINE: Duration = Duration::from_secs(10);
/// How long a daemon may take to exit after acknowledging shutdown.
const EXIT_GRACE: Duration = Duration::from_secs(5);

pub enum Hosts {
    Local(Vec<Arc<SlaveDaemon>>),
    Remote(Vec<Fchaind>),
}

impl Hosts {
    pub fn local(config: &FChainConfig, hosts: usize) -> Hosts {
        Hosts::Local(
            (0..hosts)
                .map(|_| Arc::new(SlaveDaemon::new(config.clone())))
                .collect(),
        )
    }

    /// Spawns one `fchaind` per socket path and connects to each; the
    /// connect is the registration (inventory) handshake.
    pub fn remote(exe: &Path, sockets: Vec<PathBuf>, lookback: u64) -> Result<Hosts, String> {
        let daemons = sockets
            .into_iter()
            .map(|socket| Fchaind::spawn(exe, socket, lookback))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Hosts::Remote(daemons))
    }

    pub fn endpoints(&self) -> Vec<Arc<dyn SlaveEndpoint>> {
        match self {
            Hosts::Local(daemons) => daemons
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn SlaveEndpoint>)
                .collect(),
            Hosts::Remote(daemons) => daemons
                .iter()
                .map(|d| Arc::clone(&d.slave) as Arc<dyn SlaveEndpoint>)
                .collect(),
        }
    }

    /// Delivers one batch to host `h` through its public ingest entry
    /// point; returns once the daemon holds the samples.
    pub fn ingest(&self, h: usize, batch: &[MetricSample]) -> Result<(), String> {
        match self {
            Hosts::Local(daemons) => {
                daemons[h].ingest_batch_for(AppId::default(), batch);
                Ok(())
            }
            Hosts::Remote(daemons) => daemons[h]
                .slave
                .ingest_batch(AppId::default(), batch.to_vec())
                .map(|_| ())
                .map_err(|e| format!("ingest to host {h}: {e}")),
        }
    }

    pub fn local_daemons(&self) -> Option<&[Arc<SlaveDaemon>]> {
        match self {
            Hosts::Local(daemons) => Some(daemons),
            Hosts::Remote(_) => None,
        }
    }

    /// Tears the hosts down. For `fchaind` children: reads their peak RSS,
    /// sends the shutdown frame, reaps them and removes their sockets.
    /// Returns the children's summed peak RSS in KiB (0 in-process).
    pub fn shutdown(self) -> Result<u64, String> {
        match self {
            Hosts::Local(_) => Ok(0),
            Hosts::Remote(daemons) => {
                let hwm = daemons
                    .iter()
                    .map(|d| vm_hwm_kib(&d.child.id().to_string()))
                    .sum();
                for daemon in daemons {
                    daemon.stop()?;
                }
                Ok(hwm)
            }
        }
    }
}

/// One `fchaind` child process. Dropping it kills and reaps the child and
/// removes its socket file, so a failed run leaves no daemon behind.
pub struct Fchaind {
    child: Child,
    socket: PathBuf,
    slave: Arc<RemoteSlave>,
}

impl Fchaind {
    fn spawn(exe: &Path, socket: PathBuf, lookback: u64) -> Result<Fchaind, String> {
        let mut child = Command::new(exe)
            .arg("--uds")
            .arg(&socket)
            .arg("--lookback")
            .arg(lookback.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        match Self::connect(&mut child, &socket) {
            Ok(slave) => Ok(Fchaind {
                child,
                socket,
                slave: Arc::new(slave),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&socket);
                Err(e)
            }
        }
    }

    /// Waits for the `listening <addr>` startup line, then dials.
    fn connect(child: &mut Child, socket: &Path) -> Result<RemoteSlave, String> {
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read fchaind startup line: {e}"))?;
        if !line.starts_with("listening ") {
            return Err(format!("unexpected fchaind startup line {line:?}"));
        }
        RemoteSlave::connect(WireAddr::Uds(socket.to_path_buf()), None, Some(IO_DEADLINE))
            .map_err(|e| format!("connect {}: {e}", socket.display()))
    }

    fn stop(mut self) -> Result<(), String> {
        self.slave
            .shutdown()
            .map_err(|e| format!("shutdown {}: {e}", self.socket.display()))?;
        if self.reaped_within(EXIT_GRACE)? {
            Ok(())
        } else {
            Err(format!(
                "fchaind {} ignored the shutdown frame",
                self.socket.display()
            ))
        }
    }

    /// Polls for the child's exit; true once it is reaped.
    fn reaped_within(&mut self, grace: Duration) -> Result<bool, String> {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(true),
                Ok(None) if started.elapsed() < grace => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Ok(false),
                Err(e) => return Err(format!("reap fchaind: {e}")),
            }
        }
    }
}

impl Drop for Fchaind {
    /// A failed run still sends the shutdown frame first; only a daemon
    /// that does not exit on it is killed.
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let exited =
                self.slave.shutdown().is_ok() && matches!(self.reaped_within(EXIT_GRACE), Ok(true));
            if !exited {
                let _ = self.child.kill();
                let _ = self.child.wait();
            }
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Peak resident set (`VmHWM`, KiB) of a process: `pid` is a number or
/// `self`. 0 when the kernel does not report it.
pub fn vm_hwm_kib(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}
