//! [`RemoteSlave`]: the master's client-side view of an `fchaind`
//! daemon across a socket, speaking [`crate::frame`] and implementing
//! [`SlaveEndpoint`] so every retry/backoff/deadline/coverage mechanism
//! the master already has applies unchanged to real connections.

use crate::frame::{read_frame, write_frame, Frame, ResponseStatus, WireError};
use crate::server::{Stream, WireAddr, CONN_BUFFER};
use fchain_core::slave::MetricSample;
use fchain_core::{CollectRequest, ComponentFinding, SlaveEndpoint, SlaveError};
use fchain_metrics::{AppId, ComponentId};
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A remote slave daemon as one [`SlaveEndpoint`].
///
/// * **Registry knowledge survives the daemon.** The component
///   inventory is fetched at construction, re-fetched on every
///   [`SlaveEndpoint::monitored_components`] read and after every
///   ingest that names a component the cache lacks, and the last good
///   answer is cached — so the call stays infallible and a crashed
///   daemon still has its blind spot named in the coverage accounting,
///   exactly like the in-process endpoints.
/// * **Deadline-bounded I/O.** Every connect/read/write carries the
///   socket deadline; an expiry maps to [`SlaveError::Unreachable`]
///   (the host is stalled — fail fast, count the blind spot) while a
///   refused/reset/dropped connection maps to
///   [`SlaveError::Transient`] (the existing retry/backoff knobs dial
///   again, which is also how reconnection happens).
/// * **One connection, lazily dialed.** Replies are read through the
///   connection's buffer. Any error poisons the cached connection, and
///   its buffer with it; the next call re-dials. There is no shared socket
///   across endpoints, so the master's thread-per-slave fan-out keeps
///   its property that one stalled connection cannot serialize the
///   drain.
#[derive(Debug)]
pub struct RemoteSlave {
    addr: WireAddr,
    /// Tenant scope: `None` addresses the whole daemon (single-app
    /// master), `Some` one tenant of a shared pool daemon.
    app: Option<AppId>,
    deadline: Option<Duration>,
    components: Mutex<Vec<ComponentId>>,
    conn: Mutex<Option<BufReader<Stream>>>,
    next_request_id: AtomicU64,
}

impl RemoteSlave {
    /// Connects to a daemon and caches its component inventory —
    /// the registration handshake. `deadline` bounds every subsequent
    /// socket operation (`None` = block forever, matching
    /// `slave_deadline_ms = 0`).
    pub fn connect(
        addr: WireAddr,
        app: Option<AppId>,
        deadline: Option<Duration>,
    ) -> Result<RemoteSlave, WireError> {
        let slave = RemoteSlave {
            addr,
            app,
            deadline,
            components: Mutex::new(Vec::new()),
            conn: Mutex::new(None),
            next_request_id: AtomicU64::new(1),
        };
        slave.refresh_components().map_err(|e| match e {
            // Surface the underlying failure to the constructor caller;
            // after construction the SlaveError mapping takes over.
            RefreshError::Wire(w) => w,
            RefreshError::Protocol(msg) => {
                WireError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
            }
        })?;
        Ok(slave)
    }

    /// The address this endpoint dials.
    pub fn addr(&self) -> &WireAddr {
        &self.addr
    }

    fn dial(&self) -> std::io::Result<Stream> {
        match &self.addr {
            WireAddr::Tcp(spec) => {
                let stream = match self.deadline {
                    Some(deadline) => {
                        let addr = spec
                            .to_socket_addrs()?
                            .next()
                            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
                        TcpStream::connect_timeout(&addr, deadline)?
                    }
                    None => TcpStream::connect(spec.as_str())?,
                };
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            WireAddr::Uds(path) => Ok(Stream::Uds(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            WireAddr::Uds(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// One request/response exchange. Takes the cached connection (or
    /// dials), sends, awaits the matching response. Any failure drops
    /// the connection so the next call starts clean.
    fn exchange(&self, request: &Frame) -> Result<Frame, WireError> {
        let mut guard = self.conn.lock();
        let mut conn = match guard.take() {
            Some(conn) => conn,
            None => {
                let stream = self.dial()?;
                stream.set_deadline(self.deadline)?;
                BufReader::with_capacity(CONN_BUFFER, stream)
            }
        };
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        write_frame(conn.get_mut(), request, request_id)?;
        let (echoed, reply) = read_frame(&mut conn)?;
        if echoed != request_id && !matches!(reply, Frame::Error { .. }) {
            return Err(WireError::Corrupt("response request-id mismatch"));
        }
        *guard = Some(conn);
        Ok(reply)
    }

    /// Re-fetches the component inventory from the live daemon (e.g.
    /// after remote ingest added components).
    pub fn refresh_components(&self) -> Result<Vec<ComponentId>, RefreshError> {
        let reply = self.exchange(&Frame::MonitoredRequest { app: self.app })?;
        match reply {
            Frame::MonitoredResponse { components } => {
                *self.components.lock() = components.clone();
                Ok(components)
            }
            Frame::Error { message, .. } => Err(RefreshError::Protocol(message)),
            _ => Err(RefreshError::Protocol(
                "unexpected reply to monitored request".to_string(),
            )),
        }
    }

    /// Delivers a batch of samples to the remote daemon's shards —
    /// the network face of `SlaveDaemon::ingest_batch_for`. Returns
    /// once the daemon holds the samples: one round trip, plus an
    /// inventory refresh when the batch names a new component.
    pub fn ingest_batch(&self, app: AppId, samples: Vec<MetricSample>) -> Result<u64, SlaveError> {
        let count = samples.len();
        let names_new = self.names_new_component(app, &samples);
        let reply = self
            .exchange(&Frame::IngestBatch { app, samples })
            .map_err(map_wire_error)?;
        match reply {
            Frame::IngestAck { accepted } if accepted == count as u64 => {
                // The batch added components; re-sync the cached
                // inventory so a daemon that dies later still has its
                // full blind spot named in the coverage accounting.
                if names_new {
                    let _ = self.refresh_components();
                }
                Ok(accepted)
            }
            Frame::IngestAck { .. } | Frame::Error { .. } => Err(SlaveError::Transient),
            _ => Err(SlaveError::Transient),
        }
    }

    /// Whether `samples` name a component the cached inventory (in id
    /// order) lacks — the only case in which a refresh after ingesting
    /// them can learn anything. A tenant outside this endpoint's scope
    /// never shows in its inventory.
    fn names_new_component(&self, app: AppId, samples: &[MetricSample]) -> bool {
        if self.app.is_some_and(|scope| scope != app) {
            return false;
        }
        let known = self.components.lock();
        let mut last = None;
        samples.iter().any(|s| {
            let seen = last == Some(s.component);
            last = Some(s.component);
            !seen && known.binary_search(&s.component).is_err()
        })
    }

    /// Asks the daemon to exit, waiting for the acknowledgement — the
    /// clean half of spawn/teardown.
    pub fn shutdown(&self) -> Result<(), SlaveError> {
        match self.exchange(&Frame::Shutdown).map_err(map_wire_error)? {
            Frame::ShutdownAck => Ok(()),
            _ => Err(SlaveError::Transient),
        }
    }
}

/// Why [`RemoteSlave::refresh_components`] failed.
#[derive(Debug)]
pub enum RefreshError {
    /// The socket or codec failed.
    Wire(WireError),
    /// The daemon answered, but not with an inventory.
    Protocol(String),
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::Wire(e) => write!(f, "{e}"),
            RefreshError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for RefreshError {}

impl From<WireError> for RefreshError {
    fn from(e: WireError) -> Self {
        RefreshError::Wire(e)
    }
}

/// Maps a socket/codec failure onto the master's two-way error domain.
///
/// * Deadline expiry (`WouldBlock`/`TimedOut`) → [`SlaveError::Unreachable`]:
///   the host is stalled; retrying into the stall would burn the whole
///   fan-out budget, so fail fast and let coverage name the blind spot.
/// * Everything else (refused, reset, broken pipe, EOF mid-frame,
///   corrupt frame) → [`SlaveError::Transient`]: the next retry re-dials,
///   which is both the reconnect path and the "daemon restarting" path.
fn map_wire_error(e: WireError) -> SlaveError {
    match e {
        WireError::Io(io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            SlaveError::Unreachable
        }
        _ => SlaveError::Transient,
    }
}

impl SlaveEndpoint for RemoteSlave {
    fn monitored_components(&self) -> Vec<ComponentId> {
        match self.refresh_components() {
            Ok(components) => components,
            // Dead or stalled daemon: the last-known inventory keeps
            // the blind-spot accounting truthful.
            Err(_) => self.components.lock().clone(),
        }
    }

    fn collect(&self, request: &CollectRequest) -> Result<Vec<ComponentFinding>, SlaveError> {
        let frame = Frame::CollectRequest {
            app: self.app,
            request: *request,
        };
        match self.exchange(&frame).map_err(map_wire_error)? {
            Frame::CollectResponse { status, findings } => match status {
                ResponseStatus::Ok => Ok(findings),
                ResponseStatus::Transient => Err(SlaveError::Transient),
                ResponseStatus::Unreachable => Err(SlaveError::Unreachable),
            },
            // An explicit protocol error or a mismatched frame: the
            // answer is unusable but the daemon is alive — retryable.
            _ => Err(SlaveError::Transient),
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use fchain_metrics::MetricKind;
    use std::os::unix::net::UnixListener;
    use std::sync::Arc;

    /// Frames a stub daemon received, by type, in order.
    type FrameLog = Arc<Mutex<Vec<&'static str>>>;

    /// A stub daemon on a Unix socket: it answers inventory and ingest
    /// frames from one connection, logs every frame it receives, and
    /// exits when the client hangs up.
    fn stub_daemon(path: &std::path::Path) -> (FrameLog, std::thread::JoinHandle<()>) {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).expect("bind the stub socket");
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the client");
            let mut conn = BufReader::new(Stream::Uds(stream));
            let mut inventory: Vec<ComponentId> = Vec::new();
            while let Ok((id, frame)) = read_frame(&mut conn) {
                let reply = match frame {
                    Frame::MonitoredRequest { .. } => {
                        seen.lock().push("MonitoredRequest");
                        Frame::MonitoredResponse {
                            components: inventory.clone(),
                        }
                    }
                    Frame::IngestBatch { samples, .. } => {
                        seen.lock().push("IngestBatch");
                        inventory.extend(samples.iter().map(|s| s.component));
                        inventory.sort_unstable();
                        inventory.dedup();
                        Frame::IngestAck {
                            accepted: samples.len() as u64,
                        }
                    }
                    _ => break,
                };
                if write_frame(conn.get_mut(), &reply, id).is_err() {
                    break;
                }
            }
        });
        (log, handle)
    }

    fn batch(components: &[u32]) -> Vec<MetricSample> {
        components
            .iter()
            .flat_map(|&c| {
                MetricKind::ALL.map(|kind| MetricSample {
                    tick: 1,
                    component: ComponentId(c),
                    kind,
                    value: 1.0,
                })
            })
            .collect()
    }

    #[test]
    fn ingest_refreshes_the_inventory_only_for_a_new_component() {
        let path =
            std::env::temp_dir().join(format!("fchain-wire-client-{}.sock", std::process::id()));
        let (log, stub) = stub_daemon(&path);
        let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), None, None)
            .expect("connect to the stub");
        assert_eq!(log.lock().clone(), ["MonitoredRequest"]);
        let sent = |components: &[u32]| {
            let before = log.lock().len();
            remote
                .ingest_batch(AppId(0), batch(components))
                .expect("ingest");
            log.lock()[before..].to_vec()
        };

        assert_eq!(sent(&[0]), ["IngestBatch", "MonitoredRequest"]);
        assert_eq!(sent(&[0]), ["IngestBatch"]);
        assert_eq!(sent(&[]), ["IngestBatch"]);
        assert_eq!(sent(&[0, 4]), ["IngestBatch", "MonitoredRequest"]);
        assert_eq!(sent(&[4, 0, 4]), ["IngestBatch"]);
        assert_eq!(
            remote.components.lock().clone(),
            [ComponentId(0), ComponentId(4)]
        );
        drop(remote);
        stub.join().expect("the stub daemon exits cleanly");
        let _ = std::fs::remove_file(&path);
    }
}
