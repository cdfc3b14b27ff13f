//! [`RemoteSlave`]: the master's client-side view of an `fchaind`
//! daemon across a socket, speaking [`crate::frame`] and implementing
//! [`SlaveEndpoint`] so every retry/backoff/deadline/coverage mechanism
//! the master already has applies unchanged to real connections.

use crate::frame::{
    encode_ingest_batch_into, read_frame, write_frame, Frame, ResponseStatus, WireError,
};
use crate::server::{Stream, WireAddr, CONN_BUFFER};
use fchain_core::slave::MetricSample;
use fchain_core::{CollectRequest, ComponentFinding, SlaveEndpoint, SlaveError};
use fchain_metrics::{AppId, ComponentId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// How many ingest batches one connection may have written and not yet
/// seen acknowledged. [`RemoteSlave::ingest_batch`] reads an ack only
/// for the batch that takes the count past this.
pub const INGEST_WINDOW: usize = 16;

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
///   connection's buffer, and every frame is encoded into one buffer
///   the connection reuses. Any error poisons the cached connection,
///   and its buffers with it; the next call re-dials. There is no
///   shared socket across endpoints, so the master's thread-per-slave
///   fan-out keeps its property that one stalled connection cannot
///   serialize the drain.
/// * **Pipelined ingest.** [`RemoteSlave::ingest_batch`] writes its
///   batch and returns, keeping up to [`INGEST_WINDOW`] batches
///   unacknowledged. Every other exchange reads the acks of all of them,
///   in order, before its own reply; the daemon serves a connection in
///   order, so a collect still sees every sample ingested before it. A
///   connection that fails with batches unacknowledged fails the call
///   that sees it — or, when that call is the infallible inventory
///   read, the next ingest, collect or shutdown, once.
#[derive(Debug)]
pub struct RemoteSlave {
    addr: WireAddr,
    /// Tenant scope: `None` addresses the whole daemon (single-app
    /// master), `Some` one tenant of a shared pool daemon.
    app: Option<AppId>,
    deadline: Option<Duration>,
    components: Mutex<Vec<ComponentId>>,
    link: Mutex<Link>,
}

/// The connection state of one endpoint.
#[derive(Debug, Default)]
struct Link {
    conn: Option<Conn>,
    /// A connection failed with batches unacknowledged inside an
    /// inventory read, which cannot report it; the next ingest, collect
    /// or shutdown does.
    lost_window: bool,
    next_request_id: u64,
}

/// The cached connection.
#[derive(Debug)]
struct Conn {
    /// Replies are read through this buffer; frames are written to the
    /// stream inside it.
    reader: BufReader<Stream>,
    /// Every outgoing frame is encoded here.
    out: Vec<u8>,
    /// `(request id, sample count)` of each batch written but not yet
    /// acknowledged, oldest first.
    unacked: VecDeque<(u64, u64)>,
}

impl Conn {
    /// Reads acks, oldest batch first, until at most `window` batches
    /// are unacknowledged. Each ack must echo its batch's request id and
    /// exact sample count.
    fn settle(&mut self, window: usize) -> Result<(), WireError> {
        while self.unacked.len() > window {
            let (request_id, count) = self.unacked[0];
            match read_frame(&mut self.reader)? {
                (echoed, Frame::IngestAck { accepted }) => {
                    if echoed != request_id {
                        return Err(WireError::Corrupt("ingest ack request-id mismatch"));
                    }
                    if accepted != count {
                        return Err(WireError::Corrupt("ingest ack count mismatch"));
                    }
                }
                (_, Frame::Error { .. }) => {
                    return Err(WireError::Corrupt("daemon refused an ingest batch"))
                }
                _ => return Err(WireError::Corrupt("unexpected reply to an ingest batch")),
            }
            self.unacked.pop_front();
        }
        Ok(())
    }
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
            link: Mutex::new(Link::default()),
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

    fn dial(&self) -> Result<Conn, WireError> {
        let stream = match &self.addr {
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
                Stream::Tcp(stream)
            }
            #[cfg(unix)]
            WireAddr::Uds(path) => Stream::Uds(UnixStream::connect(path)?),
            #[cfg(not(unix))]
            WireAddr::Uds(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                )
                .into())
            }
        };
        stream.set_deadline(self.deadline)?;
        Ok(Conn {
            reader: BufReader::with_capacity(CONN_BUFFER, stream),
            out: Vec::new(),
            unacked: VecDeque::new(),
        })
    }

    /// Runs `op` with the cached connection (dialing one if none is
    /// cached) and a fresh request id. A failure drops the connection
    /// and its buffers, so the next call re-dials; if unacknowledged
    /// batches went down with it, the link records a lost window.
    fn on_conn<T>(
        &self,
        link: &mut Link,
        op: impl FnOnce(&mut Conn, u64) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut conn = match link.conn.take() {
            Some(conn) => conn,
            None => self.dial()?,
        };
        link.next_request_id += 1;
        let result = op(&mut conn, link.next_request_id);
        match result {
            Ok(_) => link.conn = Some(conn),
            Err(_) => link.lost_window |= !conn.unacked.is_empty(),
        }
        result
    }

    /// One request/response exchange: settles every unacknowledged
    /// batch, then sends `request` and awaits the matching response.
    fn exchange(&self, link: &mut Link, request: &Frame) -> Result<Frame, WireError> {
        self.on_conn(link, |conn, request_id| {
            conn.settle(0)?;
            write_frame(conn.reader.get_mut(), &mut conn.out, request, request_id)?;
            let (echoed, reply) = read_frame(&mut conn.reader)?;
            if echoed != request_id && !matches!(reply, Frame::Error { .. }) {
                return Err(WireError::Corrupt("response request-id mismatch"));
            }
            Ok(reply)
        })
    }

    /// Runs a call whose failure reaches its caller. A window an earlier
    /// inventory read lost fails it first, without dialing; a window it
    /// loses itself is reported by its own error.
    fn reporting<T>(
        &self,
        op: impl FnOnce(&mut Link) -> Result<T, WireError>,
    ) -> Result<T, SlaveError> {
        let mut link = self.link.lock();
        if std::mem::take(&mut link.lost_window) {
            return Err(SlaveError::Transient);
        }
        let result = op(&mut link).map_err(map_wire_error);
        link.lost_window = false;
        result
    }

    /// Re-fetches the component inventory from the live daemon (e.g.
    /// after remote ingest added components).
    pub fn refresh_components(&self) -> Result<Vec<ComponentId>, RefreshError> {
        self.refresh_on(&mut self.link.lock())
    }

    fn refresh_on(&self, link: &mut Link) -> Result<Vec<ComponentId>, RefreshError> {
        let reply = self.exchange(link, &Frame::MonitoredRequest { app: self.app })?;
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
    /// the network face of `SlaveDaemon::ingest_batch_for`. The batch
    /// is encoded straight from `samples` and written; the call returns
    /// without waiting for its ack unless more than [`INGEST_WINDOW`]
    /// batches are then unacknowledged, in which case it reads the
    /// oldest ack. A batch naming a component the endpoint has not seen
    /// adds an inventory refresh, which settles the whole window. Any
    /// later exchange on the connection settles it too, so a report
    /// covers every sample ingested before it; an ack that never comes
    /// or does not match fails that later call (see [`RemoteSlave`]).
    /// Returns the batch's sample count.
    pub fn ingest_batch(
        &self,
        app: AppId,
        samples: impl AsRef<[MetricSample]>,
    ) -> Result<u64, SlaveError> {
        let samples = samples.as_ref();
        let count = samples.len() as u64;
        let names_new = self.names_new_component(app, samples);
        self.reporting(|link| {
            self.on_conn(link, |conn, request_id| {
                encode_ingest_batch_into(&mut conn.out, app, samples, request_id);
                conn.reader.get_mut().write_all(&conn.out)?;
                conn.unacked.push_back((request_id, count));
                conn.settle(INGEST_WINDOW)
            })?;
            // The batch added components; re-sync the cached inventory
            // so a daemon that dies later still has its full blind spot
            // named in the coverage accounting. A refresh that fails is
            // this call's failure only if it lost unacknowledged batches.
            if names_new {
                if let Err(RefreshError::Wire(e)) = self.refresh_on(link) {
                    if link.lost_window {
                        return Err(e);
                    }
                }
            }
            Ok(count)
        })
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
    /// clean half of spawn/teardown. Settles the ingest window first.
    pub fn shutdown(&self) -> Result<(), SlaveError> {
        match self.reporting(|link| self.exchange(link, &Frame::Shutdown))? {
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
///   corrupt frame, an ack that does not match its batch) →
///   [`SlaveError::Transient`]: the next retry re-dials, which is both
///   the reconnect path and the "daemon restarting" path.
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
        match self.reporting(|link| self.exchange(link, &frame))? {
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

    /// How the stub daemon answers one ingest batch.
    #[derive(Debug, Clone, Copy)]
    enum Ack {
        /// The batch's request id and exact sample count.
        Exact,
        /// One sample short.
        Short,
        /// The next request's id.
        WrongId,
        /// An `Error` frame.
        Refuse,
        /// Nothing, to this frame or any later one: a stalled daemon.
        Silent,
        /// Close the connection unanswered and accept the next one.
        HangUp,
    }

    /// A stub daemon on a Unix socket. It answers inventory requests,
    /// answers the `n`-th ingest batch (counted from 0 across
    /// connections) as `script[n]` says (`Exact` past its end), logs
    /// every frame it receives, and exits when a client hangs up.
    fn stub_daemon(
        path: &std::path::Path,
        script: Vec<Ack>,
    ) -> (FrameLog, std::thread::JoinHandle<()>) {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).expect("bind the stub socket");
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let handle = std::thread::spawn(move || {
            let mut inventory: Vec<ComponentId> = Vec::new();
            let mut batches = 0;
            'accept: loop {
                let (stream, _) = listener.accept().expect("accept the client");
                let mut conn = BufReader::new(Stream::Uds(stream));
                let mut out = Vec::new();
                let mut silent = false;
                while let Ok((id, frame)) = read_frame(&mut conn) {
                    let (id, reply) = match frame {
                        Frame::MonitoredRequest { .. } => {
                            seen.lock().push("MonitoredRequest");
                            let components = inventory.clone();
                            (id, Frame::MonitoredResponse { components })
                        }
                        Frame::IngestBatch { samples, .. } => {
                            seen.lock().push("IngestBatch");
                            inventory.extend(samples.iter().map(|s| s.component));
                            inventory.sort_unstable();
                            inventory.dedup();
                            let accepted = samples.len() as u64;
                            batches += 1;
                            match script.get(batches - 1).copied().unwrap_or(Ack::Exact) {
                                Ack::Exact => (id, Frame::IngestAck { accepted }),
                                Ack::Short => (
                                    id,
                                    Frame::IngestAck {
                                        accepted: accepted - 1,
                                    },
                                ),
                                Ack::WrongId => (id + 1, Frame::IngestAck { accepted }),
                                Ack::Refuse => (
                                    id,
                                    Frame::Error {
                                        code: 0,
                                        message: "refused".to_string(),
                                    },
                                ),
                                Ack::Silent => {
                                    silent = true;
                                    continue;
                                }
                                Ack::HangUp => continue 'accept,
                            }
                        }
                        _ => break,
                    };
                    if !silent && write_frame(conn.get_mut(), &mut out, &reply, id).is_err() {
                        break;
                    }
                }
                break;
            }
        });
        (log, handle)
    }

    fn socket_path(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "fchain-wire-client-{}-{test}.sock",
            std::process::id()
        ))
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

    fn unacked(remote: &RemoteSlave) -> Option<usize> {
        remote.link.lock().conn.as_ref().map(|c| c.unacked.len())
    }

    #[test]
    fn ingest_refreshes_the_inventory_only_for_a_new_component() {
        let path = socket_path("refresh");
        let (log, stub) = stub_daemon(&path, Vec::new());
        let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), None, None)
            .expect("connect to the stub");
        assert_eq!(log.lock().clone(), ["MonitoredRequest"]);
        // An ingest may return before the stub has read its batch, so
        // the log is read after a refresh, the sync point, which is
        // left out of what each ingest sent.
        let sent = |components: &[u32]| {
            let before = log.lock().len();
            remote
                .ingest_batch(AppId(0), batch(components))
                .expect("ingest");
            remote.refresh_components().expect("sync");
            let log = log.lock();
            log[before..log.len() - 1].to_vec()
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

    #[test]
    fn the_batch_past_the_window_reads_exactly_one_ack() {
        let path = socket_path("window");
        let (_log, stub) = stub_daemon(&path, Vec::new());
        let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), None, None)
            .expect("connect to the stub");
        remote.ingest_batch(AppId(0), batch(&[0])).expect("ingest");
        assert_eq!(unacked(&remote), Some(0), "a new component settles");
        for sent in 1..=INGEST_WINDOW + 2 {
            remote.ingest_batch(AppId(0), batch(&[0])).expect("ingest");
            assert_eq!(unacked(&remote), Some(sent.min(INGEST_WINDOW)));
        }
        drop(remote);
        stub.join().expect("the stub daemon exits cleanly");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_silent_daemon_fails_the_first_batch_past_the_window() {
        let path = socket_path("silent");
        let (_log, stub) = stub_daemon(&path, vec![Ack::Silent]);
        let deadline = Duration::from_millis(200);
        let remote =
            RemoteSlave::connect(WireAddr::Uds(path.clone()), Some(AppId(9)), Some(deadline))
                .expect("connect to the stub");
        for _ in 0..INGEST_WINDOW {
            remote
                .ingest_batch(AppId(0), batch(&[0]))
                .expect("no ack is read");
        }
        assert_eq!(
            remote.ingest_batch(AppId(0), batch(&[0])),
            Err(SlaveError::Unreachable)
        );
        assert!(
            remote.link.lock().conn.is_none(),
            "the connection is poisoned"
        );
        drop(remote);
        stub.join().expect("the stub daemon exits cleanly");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_bad_ack_inside_the_window_fails_the_call_and_poisons_the_connection() {
        for ack in [Ack::Short, Ack::WrongId, Ack::Refuse] {
            let path = socket_path(&format!("{ack:?}"));
            let (_log, stub) = stub_daemon(&path, vec![ack]);
            // A foreign tenant's batches never refresh the inventory.
            let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), Some(AppId(9)), None)
                .expect("connect to the stub");
            for _ in 0..INGEST_WINDOW {
                remote
                    .ingest_batch(AppId(0), batch(&[0]))
                    .expect("no ack is read");
            }
            assert_eq!(
                remote.ingest_batch(AppId(0), batch(&[0])),
                Err(SlaveError::Transient),
                "{ack:?}"
            );
            assert!(
                remote.link.lock().conn.is_none(),
                "{ack:?}: the connection is poisoned"
            );
            drop(remote);
            stub.join().expect("the stub daemon exits cleanly");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn an_exchange_settles_pending_acks_in_order_before_its_reply() {
        let path = socket_path("settle");
        let (log, stub) = stub_daemon(&path, Vec::new());
        let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), Some(AppId(0)), None)
            .expect("connect to the stub");
        remote.ingest_batch(AppId(0), batch(&[0])).expect("ingest");
        for _ in 0..3 {
            remote.ingest_batch(AppId(0), batch(&[0])).expect("ingest");
        }
        assert_eq!(unacked(&remote), Some(3));
        assert_eq!(
            remote.refresh_components().expect("refresh"),
            [ComponentId(0)]
        );
        assert_eq!(unacked(&remote), Some(0));
        assert_eq!(
            log.lock()[2..].to_vec(),
            [
                "MonitoredRequest",
                "IngestBatch",
                "IngestBatch",
                "IngestBatch",
                "MonitoredRequest"
            ]
        );
        drop(remote);
        stub.join().expect("the stub daemon exits cleanly");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_refresh_that_loses_the_window_fails_its_ingest() {
        let path = socket_path("refresh-lost");
        // The batch names a new component, so its refresh settles it;
        // the daemon hangs up before acknowledging it.
        let (_log, stub) = stub_daemon(&path, vec![Ack::HangUp]);
        let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), None, None)
            .expect("connect to the stub");
        assert_eq!(
            remote.ingest_batch(AppId(0), batch(&[0])),
            Err(SlaveError::Transient)
        );
        // The ingest reported the loss itself; the next call redials.
        remote
            .ingest_batch(AppId(0), batch(&[0]))
            .expect("ingest after the report");
        drop(remote);
        stub.join().expect("the stub daemon exits cleanly");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_window_lost_in_an_inventory_read_fails_the_next_call_once() {
        let path = socket_path("lost");
        // Batch 0 names a new component and is settled by its refresh;
        // the daemon hangs up on batch 1 before acknowledging it.
        let (log, stub) = stub_daemon(&path, vec![Ack::Exact, Ack::HangUp]);
        let remote = RemoteSlave::connect(WireAddr::Uds(path.clone()), None, None)
            .expect("connect to the stub");
        remote.ingest_batch(AppId(0), batch(&[0])).expect("ingest");
        remote
            .ingest_batch(AppId(0), batch(&[0]))
            .expect("written, not yet acknowledged");
        assert_eq!(
            remote.monitored_components(),
            [ComponentId(0)],
            "the cached inventory"
        );
        let frames = log.lock().len();
        assert_eq!(
            remote.ingest_batch(AppId(0), batch(&[0])),
            Err(SlaveError::Transient),
            "the lost window"
        );
        assert!(
            remote.link.lock().conn.is_none(),
            "reported without redialing"
        );
        assert_eq!(log.lock().len(), frames);
        // Reported once: the next call redials and delivers.
        remote
            .ingest_batch(AppId(0), batch(&[0]))
            .expect("ingest after the report");
        remote.refresh_components().expect("sync");
        assert_eq!(
            log.lock()[frames..].to_vec(),
            ["IngestBatch", "MonitoredRequest"]
        );
        drop(remote);
        stub.join().expect("the stub daemon exits cleanly");
        let _ = std::fs::remove_file(&path);
    }
}
