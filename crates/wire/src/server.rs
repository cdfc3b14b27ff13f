//! The serving loop behind `fchaind`: accepts connections on TCP or a
//! Unix-domain socket and answers protocol frames from one shared
//! [`SlaveDaemon`] pool — one process per host, exactly the paper's
//! per-host slave.

use crate::frame::{read_frame, write_frame, Frame, ResponseStatus, WireError};
use fchain_core::slave::SlaveDaemon;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a [`WireServer`] listens (or a client dials).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAddr {
    /// A TCP socket address (`host:port`; port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl std::fmt::Display for WireAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            WireAddr::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

impl std::str::FromStr for WireAddr {
    type Err = String;

    /// Parses the [`std::fmt::Display`] form back — `tcp://host:port`
    /// or `uds://path` — which is also what `fchaind` prints in its
    /// `listening <addr>` startup line.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            Ok(WireAddr::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("uds://") {
            Ok(WireAddr::Uds(PathBuf::from(path)))
        } else {
            Err(format!(
                "invalid wire address {s:?} (expected tcp://host:port or uds://path)"
            ))
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// Read buffer of one connection, at either end. A frame that arrived
/// whole — every request and ack short of a large batch or response —
/// is read, header and payload, with one `recv`.
pub(crate) const CONN_BUFFER: usize = 64 * 1024;

/// One accepted connection; both flavors are plain blocking streams
/// with kernel read/write deadlines.
#[derive(Debug)]
pub(crate) enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    pub(crate) fn set_deadline(&self, deadline: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(deadline)?;
                s.set_write_timeout(deadline)
            }
            #[cfg(unix)]
            Stream::Uds(s) => {
                s.set_read_timeout(deadline)?;
                s.set_write_timeout(deadline)
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A running slave-daemon server: an accept loop plus one handler
/// thread per connection, all serving the same [`SlaveDaemon`].
///
/// Dropping the server (or calling [`WireServer::stop`]) stops the
/// accept loop; a [`Frame::Shutdown`] from any client does the same
/// after acknowledging, which is how the master tears a spawned
/// `fchaind` down cleanly.
#[derive(Debug)]
pub struct WireServer {
    addr: WireAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// The socket file to unlink on stop (UDS only).
    socket_path: Option<PathBuf>,
}

impl WireServer {
    /// Binds `addr` and starts serving `daemon`. `deadline` becomes the
    /// per-connection read/write timeout: a client that stalls mid-frame
    /// is disconnected instead of pinning a handler thread forever.
    ///
    /// The returned server reports the *actual* bound address
    /// ([`WireServer::addr`]) — bind TCP port 0 to let the kernel pick.
    pub fn serve(
        addr: &WireAddr,
        daemon: Arc<SlaveDaemon>,
        deadline: Option<Duration>,
    ) -> std::io::Result<WireServer> {
        let (listener, bound, socket_path) = match addr {
            WireAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec.as_str())?;
                let bound = WireAddr::Tcp(listener.local_addr()?.to_string());
                (Listener::Tcp(listener), bound, None)
            }
            #[cfg(unix)]
            WireAddr::Uds(path) => {
                // A previous daemon that died uncleanly leaves the socket
                // file behind; rebinding it is this daemon's job.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                (
                    Listener::Uds(listener),
                    WireAddr::Uds(path.clone()),
                    Some(path.clone()),
                )
            }
            #[cfg(not(unix))]
            WireAddr::Uds(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ))
            }
        };

        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("fchaind-accept".to_string())
            .spawn(move || accept_loop(listener, daemon, deadline, accept_shutdown))
            .expect("spawn accept thread");

        Ok(WireServer {
            addr: bound,
            shutdown,
            accept_thread: Some(accept_thread),
            socket_path,
        })
    }

    /// The address the server actually bound (resolved port for TCP).
    pub fn addr(&self) -> &WireAddr {
        &self.addr
    }

    /// Stops accepting and joins the accept loop. Handler threads for
    /// connections already accepted finish their current request and
    /// exit on their own.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Blocks until a client requests shutdown via [`Frame::Shutdown`]
    /// (or [`WireServer::stop`] is called from another thread) — the
    /// `fchaind` main loop.
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(ACCEPT_POLL);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How often the accept loop checks the shutdown flag. The listener
/// runs nonblocking so a flag flip is honored within one poll interval
/// without a self-connection trick.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

fn accept_loop(
    listener: Listener,
    daemon: Arc<SlaveDaemon>,
    deadline: Option<Duration>,
    shutdown: Arc<AtomicBool>,
) {
    match &listener {
        Listener::Tcp(l) => l.set_nonblocking(true).expect("nonblocking listener"),
        #[cfg(unix)]
        Listener::Uds(l) => l.set_nonblocking(true).expect("nonblocking listener"),
    }
    while !shutdown.load(Ordering::SeqCst) {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                s.set_nonblocking(false).expect("blocking stream");
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Uds(l) => l.accept().map(|(s, _)| {
                s.set_nonblocking(false).expect("blocking stream");
                Stream::Uds(s)
            }),
        };
        match accepted {
            Ok(stream) => {
                let daemon = Arc::clone(&daemon);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name("fchaind-conn".to_string())
                    .spawn(move || handle_connection(stream, daemon, deadline, shutdown))
                    .expect("spawn connection handler");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Serves one connection until the peer disconnects, errors past
/// recovery, stalls past the deadline, or requests shutdown. Reads go
/// through the connection's buffer, writes straight to the socket.
fn handle_connection(
    stream: Stream,
    daemon: Arc<SlaveDaemon>,
    deadline: Option<Duration>,
    shutdown: Arc<AtomicBool>,
) {
    if stream.set_deadline(deadline).is_err() {
        return;
    }
    let mut conn = BufReader::with_capacity(CONN_BUFFER, stream);
    loop {
        let (request_id, frame) = match read_frame(&mut conn) {
            Ok(pair) => pair,
            Err(WireError::Io(_)) => return, // disconnect or deadline
            Err(e) => {
                // A malformed frame gets an explicit error answer; the
                // framing is unrecoverable after it, so hang up.
                let reply = Frame::Error {
                    code: error_code(&e),
                    message: e.to_string(),
                };
                let _ = write_frame(conn.get_mut(), &reply, 0);
                return;
            }
        };
        let reply = match frame {
            Frame::CollectRequest { app, request } => Frame::CollectResponse {
                status: ResponseStatus::Ok,
                findings: daemon.analyze_all(app, &request),
            },
            Frame::MonitoredRequest { app } => Frame::MonitoredResponse {
                components: match app {
                    None => daemon.monitored_components(),
                    Some(a) => daemon.monitored_components_for(a),
                },
            },
            Frame::IngestBatch { app, samples } => {
                daemon.ingest_batch_for(app, &samples);
                Frame::IngestAck {
                    accepted: samples.len() as u64,
                }
            }
            Frame::Shutdown => {
                let _ = write_frame(conn.get_mut(), &Frame::ShutdownAck, request_id);
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            other => Frame::Error {
                code: 0,
                message: format!("unexpected frame {other:?} on the request side"),
            },
        };
        if write_frame(conn.get_mut(), &reply, request_id).is_err() {
            return;
        }
    }
}

fn error_code(e: &WireError) -> u8 {
    match e {
        WireError::Io(_) => 1,
        WireError::BadMagic(_) => 2,
        WireError::UnsupportedVersion(_) => 3,
        WireError::UnknownFrameType(_) => 4,
        WireError::Oversized(_) => 5,
        WireError::Truncated => 6,
        WireError::Corrupt(_) => 7,
    }
}
