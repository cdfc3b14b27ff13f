//! The frame layer: a compact length-prefixed binary encoding of every
//! message that crosses the master–slave boundary.
//!
//! Every frame is a fixed 20-byte header followed by a type-specific
//! payload, all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x46_43_48_57 ("FCHW" big-endian bytes)
//!      4     1  version      PROTOCOL_VERSION (2)
//!      5     1  frame type   see FrameType
//!      6     2  reserved     must be zero
//!      8     8  request id   echoed verbatim in the response
//!     16     4  payload len  bytes following the header, <= MAX_PAYLOAD
//! ```
//!
//! Floats travel as IEEE-754 bit patterns ([`f64::to_bits`]), never as
//! text — the whole determinism story rests on reports over sockets being
//! *bit-identical* to in-process reports, so the codec must not round.
//!
//! Decoding is total: truncated, corrupt, oversized or unknown-version
//! frames return a [`WireError`], never panic and never allocate
//! proportionally to a length field that the remaining bytes cannot back.

use fchain_core::slave::MetricSample;
use fchain_core::{AbnormalChange, CollectRequest, ComponentFinding};
use fchain_detect::Trend;
use fchain_metrics::{AppId, ComponentId, MetricKind};
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: u32 = 0x4643_4857;

/// The protocol revision this build speaks. A daemon receiving a frame
/// with any other version rejects it explicitly instead of guessing.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard ceiling on a payload (64 MiB). A length prefix above this is
/// corrupt or hostile; honoring it would let one bad frame exhaust the
/// master's memory.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes read/write deadline
    /// expiry, surfaced as [`std::io::ErrorKind::WouldBlock`] or
    /// [`std::io::ErrorKind::TimedOut`]).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol.
    BadMagic(u32),
    /// The header named a protocol revision this build does not speak.
    UnsupportedVersion(u8),
    /// The header named a frame type this build does not know.
    UnknownFrameType(u8),
    /// The length prefix exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload ended before the fields it promised.
    Truncated,
    /// A field held a value outside its domain (bad metric index, bad
    /// bool byte, non-UTF-8 text, trailing bytes, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// The discriminant byte of each frame kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum FrameType {
    CollectRequest = 1,
    CollectResponse = 2,
    MonitoredRequest = 3,
    MonitoredResponse = 4,
    IngestBatch = 5,
    IngestAck = 6,
    Error = 7,
    Shutdown = 8,
    ShutdownAck = 9,
}

impl FrameType {
    fn from_u8(v: u8) -> Result<FrameType, WireError> {
        Ok(match v {
            1 => FrameType::CollectRequest,
            2 => FrameType::CollectResponse,
            3 => FrameType::MonitoredRequest,
            4 => FrameType::MonitoredResponse,
            5 => FrameType::IngestBatch,
            6 => FrameType::IngestAck,
            7 => FrameType::Error,
            8 => FrameType::Shutdown,
            9 => FrameType::ShutdownAck,
            other => return Err(WireError::UnknownFrameType(other)),
        })
    }
}

/// How a collect request ended on the daemon side, as reported in a
/// [`Frame::CollectResponse`]. Maps onto
/// [`fchain_core::SlaveError`] at the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The analysis ran; `findings` is the answer.
    Ok,
    /// The daemon could not answer right now; a bounded retry may
    /// succeed.
    Transient,
    /// The daemon declines permanently; the master should count the
    /// blind spot instead of retrying.
    Unreachable,
}

/// One message of the master–slave protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Master → slave: answer `request`. `app: None` addresses the
    /// whole daemon (the single-app master's registry view); `Some`
    /// scopes to one tenant.
    CollectRequest {
        /// Tenant scope, or `None` for the whole daemon.
        app: Option<AppId>,
        /// The window end and look-back override.
        request: CollectRequest,
    },
    /// Slave → master: the findings (empty unless `status` is
    /// [`ResponseStatus::Ok`]).
    CollectResponse {
        /// How the request ended.
        status: ResponseStatus,
        /// Per-component abnormal changes, in component-id order.
        findings: Vec<ComponentFinding>,
    },
    /// Master → slave: which components do you monitor? Same scoping
    /// rule as [`Frame::CollectRequest::app`].
    MonitoredRequest {
        /// Tenant scope, or `None` for the whole daemon.
        app: Option<AppId>,
    },
    /// Slave → master: the monitored components, in id order.
    MonitoredResponse {
        /// Component inventory.
        components: Vec<ComponentId>,
    },
    /// Feeder → slave: a batch of metric samples for one tenant.
    IngestBatch {
        /// The tenant the samples belong to.
        app: AppId,
        /// The samples, in arrival order.
        samples: Vec<MetricSample>,
    },
    /// Slave → feeder: how many samples the batch delivered.
    IngestAck {
        /// Samples handed to the daemon.
        accepted: u64,
    },
    /// Either direction: the peer rejected the request. `code` is a
    /// [`WireError`]-shaped discriminant for logs; `message` is free
    /// text.
    Error {
        /// Coarse reason code.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Master → slave: finish in-flight work and exit.
    Shutdown,
    /// Slave → master: acknowledged, exiting.
    ShutdownAck,
}

impl Frame {
    fn frame_type(&self) -> FrameType {
        match self {
            Frame::CollectRequest { .. } => FrameType::CollectRequest,
            Frame::CollectResponse { .. } => FrameType::CollectResponse,
            Frame::MonitoredRequest { .. } => FrameType::MonitoredRequest,
            Frame::MonitoredResponse { .. } => FrameType::MonitoredResponse,
            Frame::IngestBatch { .. } => FrameType::IngestBatch,
            Frame::IngestAck { .. } => FrameType::IngestAck,
            Frame::Error { .. } => FrameType::Error,
            Frame::Shutdown => FrameType::Shutdown,
            Frame::ShutdownAck => FrameType::ShutdownAck,
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian put/get helpers. `Cursor` tracks the read offset and makes
// every get total: past-the-end reads return `Truncated`, never panic.

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool byte outside {0, 1}")),
        }
    }

    fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Checks that a collection of `count` items, each at least
    /// `min_item_len` bytes, can still fit — the guard that stops a
    /// corrupt length prefix from driving a giant allocation.
    fn check_count(&self, count: u32, min_item_len: usize) -> Result<usize, WireError> {
        let count = count as usize;
        if count.saturating_mul(min_item_len) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes after payload"))
        }
    }
}

fn put_opt_app(buf: &mut Vec<u8>, app: Option<AppId>) {
    put_bool(buf, app.is_some());
    put_u32(buf, app.map(|a| a.0).unwrap_or(0));
}

fn get_opt_app(c: &mut Cursor<'_>) -> Result<Option<AppId>, WireError> {
    let has = c.get_bool()?;
    let raw = c.get_u32()?;
    Ok(has.then_some(AppId(raw)))
}

fn metric_from_index(v: u8) -> Result<MetricKind, WireError> {
    MetricKind::ALL
        .get(v as usize)
        .copied()
        .ok_or(WireError::Corrupt("metric index outside 0..6"))
}

fn trend_to_u8(t: Trend) -> u8 {
    match t {
        Trend::Up => 0,
        Trend::Down => 1,
    }
}

fn trend_from_u8(v: u8) -> Result<Trend, WireError> {
    match v {
        0 => Ok(Trend::Up),
        1 => Ok(Trend::Down),
        _ => Err(WireError::Corrupt("trend byte outside {0, 1}")),
    }
}

/// Encoded size of one [`AbnormalChange`]: metric u8 + change_at u64 +
/// onset u64 + two f64 bit patterns + direction u8.
const CHANGE_LEN: usize = 1 + 8 + 8 + 8 + 8 + 1;

/// Minimum encoded size of one [`ComponentFinding`]: id u32 + change
/// count u32.
const FINDING_MIN_LEN: usize = 4 + 4;

/// Encoded size of one [`MetricSample`]: tick u64 + component u32 +
/// kind u8 + value bits u64.
const SAMPLE_LEN: usize = 8 + 4 + 1 + 8;

fn put_findings(buf: &mut Vec<u8>, findings: &[ComponentFinding]) {
    put_u32(buf, findings.len() as u32);
    for finding in findings {
        put_u32(buf, finding.id.0);
        put_u32(buf, finding.changes.len() as u32);
        for change in &finding.changes {
            put_u8(buf, change.metric.index() as u8);
            put_u64(buf, change.change_at);
            put_u64(buf, change.onset);
            put_f64(buf, change.prediction_error);
            put_f64(buf, change.expected_error);
            put_u8(buf, trend_to_u8(change.direction));
        }
    }
}

fn get_findings(c: &mut Cursor<'_>) -> Result<Vec<ComponentFinding>, WireError> {
    let raw_count = c.get_u32()?;
    let count = c.check_count(raw_count, FINDING_MIN_LEN)?;
    let mut findings = Vec::with_capacity(count);
    for _ in 0..count {
        let id = ComponentId(c.get_u32()?);
        let raw_changes = c.get_u32()?;
        let changes = c.check_count(raw_changes, CHANGE_LEN)?;
        let mut finding = ComponentFinding {
            id,
            changes: Vec::with_capacity(changes),
        };
        for _ in 0..changes {
            let metric = metric_from_index(c.get_u8()?)?;
            finding.changes.push(AbnormalChange {
                metric,
                change_at: c.get_u64()?,
                onset: c.get_u64()?,
                prediction_error: c.get_f64()?,
                expected_error: c.get_f64()?,
                direction: trend_from_u8(c.get_u8()?)?,
            });
        }
        findings.push(finding);
    }
    Ok(findings)
}

/// Serializes `frame` with `request_id` into a self-contained byte
/// buffer (header + payload), ready to write to a socket.
pub fn encode_frame(frame: &Frame, request_id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::CollectRequest { app, request } => {
            put_opt_app(&mut payload, *app);
            put_u64(&mut payload, request.violation_at);
            put_bool(&mut payload, request.lookback.is_some());
            put_u64(&mut payload, request.lookback.unwrap_or(0));
        }
        Frame::CollectResponse { status, findings } => {
            put_u8(
                &mut payload,
                match status {
                    ResponseStatus::Ok => 0,
                    ResponseStatus::Transient => 1,
                    ResponseStatus::Unreachable => 2,
                },
            );
            put_findings(&mut payload, findings);
        }
        Frame::MonitoredRequest { app } => {
            put_opt_app(&mut payload, *app);
        }
        Frame::MonitoredResponse { components } => {
            put_u32(&mut payload, components.len() as u32);
            for c in components {
                put_u32(&mut payload, c.0);
            }
        }
        Frame::IngestBatch { app, samples } => {
            put_u32(&mut payload, app.0);
            put_u32(&mut payload, samples.len() as u32);
            for s in samples {
                put_u64(&mut payload, s.tick);
                put_u32(&mut payload, s.component.0);
                put_u8(&mut payload, s.kind.index() as u8);
                put_f64(&mut payload, s.value);
            }
        }
        Frame::IngestAck { accepted } => {
            put_u64(&mut payload, *accepted);
        }
        Frame::Error { code, message } => {
            let bytes = message.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            put_u8(&mut payload, *code);
            put_u16(&mut payload, len as u16);
            payload.extend_from_slice(&bytes[..len]);
        }
        Frame::Shutdown | Frame::ShutdownAck => {}
    }

    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut buf, MAGIC);
    put_u8(&mut buf, PROTOCOL_VERSION);
    put_u8(&mut buf, frame.frame_type() as u8);
    put_u16(&mut buf, 0); // reserved
    put_u64(&mut buf, request_id);
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(&payload);
    buf
}

/// Decodes one complete frame (header + payload) from `buf`.
pub fn decode_frame(buf: &[u8]) -> Result<(u64, Frame), WireError> {
    let mut c = Cursor::new(buf);
    let header = decode_header(c.take(HEADER_LEN)?)?;
    if header.payload_len as usize != c.remaining() {
        return Err(if (header.payload_len as usize) > c.remaining() {
            WireError::Truncated
        } else {
            WireError::Corrupt("trailing bytes after payload")
        });
    }
    let frame = decode_payload(header.frame_type, &mut c)?;
    c.finish()?;
    Ok((header.request_id, frame))
}

struct Header {
    frame_type: FrameType,
    request_id: u64,
    payload_len: u32,
}

fn decode_header(bytes: &[u8]) -> Result<Header, WireError> {
    let mut c = Cursor::new(bytes);
    let magic = c.get_u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = c.get_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let frame_type = FrameType::from_u8(c.get_u8()?)?;
    if c.get_u16()? != 0 {
        return Err(WireError::Corrupt("nonzero reserved header bytes"));
    }
    let request_id = c.get_u64()?;
    let payload_len = c.get_u32()?;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized(payload_len));
    }
    Ok(Header {
        frame_type,
        request_id,
        payload_len,
    })
}

fn decode_payload(frame_type: FrameType, c: &mut Cursor<'_>) -> Result<Frame, WireError> {
    Ok(match frame_type {
        FrameType::CollectRequest => {
            let app = get_opt_app(c)?;
            let violation_at = c.get_u64()?;
            let has_lookback = c.get_bool()?;
            let lookback = c.get_u64()?;
            let request = CollectRequest {
                violation_at,
                lookback: has_lookback.then_some(lookback),
            };
            Frame::CollectRequest { app, request }
        }
        FrameType::CollectResponse => {
            let status = match c.get_u8()? {
                0 => ResponseStatus::Ok,
                1 => ResponseStatus::Transient,
                2 => ResponseStatus::Unreachable,
                _ => return Err(WireError::Corrupt("status byte outside {0, 1, 2}")),
            };
            Frame::CollectResponse {
                status,
                findings: get_findings(c)?,
            }
        }
        FrameType::MonitoredRequest => Frame::MonitoredRequest {
            app: get_opt_app(c)?,
        },
        FrameType::MonitoredResponse => {
            let raw_count = c.get_u32()?;
            let count = c.check_count(raw_count, 4)?;
            let mut components = Vec::with_capacity(count);
            for _ in 0..count {
                components.push(ComponentId(c.get_u32()?));
            }
            Frame::MonitoredResponse { components }
        }
        FrameType::IngestBatch => {
            let app = AppId(c.get_u32()?);
            let raw_count = c.get_u32()?;
            let count = c.check_count(raw_count, SAMPLE_LEN)?;
            let mut samples = Vec::with_capacity(count);
            for _ in 0..count {
                samples.push(MetricSample {
                    tick: c.get_u64()?,
                    component: ComponentId(c.get_u32()?),
                    kind: metric_from_index(c.get_u8()?)?,
                    value: c.get_f64()?,
                });
            }
            Frame::IngestBatch { app, samples }
        }
        FrameType::IngestAck => Frame::IngestAck {
            accepted: c.get_u64()?,
        },
        FrameType::Error => {
            let code = c.get_u8()?;
            let len = c.get_u16()? as usize;
            let bytes = c.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Corrupt("non-UTF-8 error message"))?
                .to_string();
            Frame::Error { code, message }
        }
        FrameType::Shutdown => Frame::Shutdown,
        FrameType::ShutdownAck => Frame::ShutdownAck,
    })
}

/// Writes one frame to `w` (header + payload, single `write_all`).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, request_id: u64) -> Result<(), WireError> {
    let buf = encode_frame(frame, request_id);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`: the fixed header first, then exactly the
/// payload it promises. A peer that stalls mid-frame is caught by the
/// socket read deadline, surfacing as [`WireError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u64, Frame), WireError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    r.read_exact(&mut header_bytes)?;
    let header = decode_header(&header_bytes)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    let mut c = Cursor::new(&payload);
    let frame = decode_payload(header.frame_type, &mut c)?;
    c.finish()?;
    Ok((header.request_id, frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_findings() -> Vec<ComponentFinding> {
        vec![
            ComponentFinding {
                id: ComponentId(3),
                changes: vec![AbnormalChange {
                    metric: MetricKind::DiskWrite,
                    change_at: 990,
                    onset: 971,
                    prediction_error: 4.125,
                    expected_error: 0.5,
                    direction: Trend::Up,
                }],
            },
            ComponentFinding {
                id: ComponentId(7),
                changes: Vec::new(),
            },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            Frame::CollectRequest {
                app: Some(AppId(4)),
                request: CollectRequest {
                    violation_at: 1234,
                    lookback: Some(500),
                },
            },
            Frame::CollectRequest {
                app: None,
                request: CollectRequest::at(0),
            },
            Frame::CollectResponse {
                status: ResponseStatus::Ok,
                findings: sample_findings(),
            },
            Frame::MonitoredRequest { app: None },
            Frame::MonitoredResponse {
                components: vec![ComponentId(0), ComponentId(9)],
            },
            Frame::IngestBatch {
                app: AppId(2),
                samples: vec![MetricSample {
                    tick: 55,
                    component: ComponentId(1),
                    kind: MetricKind::NetIn,
                    value: -0.0,
                }],
            },
            Frame::IngestAck { accepted: 1 },
            Frame::Error {
                code: 3,
                message: "no such tenant".to_string(),
            },
            Frame::Shutdown,
            Frame::ShutdownAck,
        ];
        for (i, frame) in frames.iter().enumerate() {
            let buf = encode_frame(frame, i as u64);
            let (id, back) = decode_frame(&buf).expect("roundtrip");
            assert_eq!(id, i as u64);
            assert_eq!(&back, frame);
        }

        // Golden bytes: a round trip cannot catch a field-order or
        // layout change, so pin the collect request's exact encoding.
        #[rustfmt::skip]
        let golden: [u8; HEADER_LEN + 22] = [
            0x57, 0x48, 0x43, 0x46,                         // magic
            2, 1, 0, 0,                                     // version 2, CollectRequest, reserved
            0, 0, 0, 0, 0, 0, 0, 0,                         // request id 0
            22, 0, 0, 0,                                    // payload length
            1, 4, 0, 0, 0,                                  // app: Some(AppId(4))
            0xD2, 0x04, 0, 0, 0, 0, 0, 0,                   // violation_at: 1234
            1, 0xF4, 0x01, 0, 0, 0, 0, 0, 0,                // lookback: Some(500)
        ];
        assert_eq!(encode_frame(&frames[0], 0), golden);
    }

    #[test]
    fn nan_bits_survive_exactly() {
        let bits = 0x7ff8_0000_dead_beefu64;
        let frame = Frame::CollectResponse {
            status: ResponseStatus::Ok,
            findings: vec![ComponentFinding {
                id: ComponentId(0),
                changes: vec![AbnormalChange {
                    metric: MetricKind::Cpu,
                    change_at: 1,
                    onset: 1,
                    prediction_error: f64::from_bits(bits),
                    expected_error: 0.0,
                    direction: Trend::Down,
                }],
            }],
        };
        let (_, back) = decode_frame(&encode_frame(&frame, 0)).unwrap();
        match back {
            Frame::CollectResponse { findings, .. } => {
                assert_eq!(findings[0].changes[0].prediction_error.to_bits(), bits);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut buf = encode_frame(&Frame::Shutdown, 1);
        buf[4] = PROTOCOL_VERSION + 1;
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn version_one_collect_request_is_rejected() {
        // A version-1 peer still sends the dropped trailing flag byte.
        #[rustfmt::skip]
        let v1: [u8; HEADER_LEN + 23] = [
            0x57, 0x48, 0x43, 0x46,                         // magic
            1, 1, 0, 0,                                     // version 1, CollectRequest, reserved
            0, 0, 0, 0, 0, 0, 0, 0,                         // request id 0
            23, 0, 0, 0,                                    // payload length
            1, 4, 0, 0, 0,                                  // app: Some(AppId(4))
            0xD2, 0x04, 0, 0, 0, 0, 0, 0,                   // violation_at: 1234
            1, 0xF4, 0x01, 0, 0, 0, 0, 0, 0,                // lookback: Some(500)
            1,                                              // version-1 flag byte
        ];
        assert!(matches!(
            decode_frame(&v1),
            Err(WireError::UnsupportedVersion(1))
        ));
        assert!(matches!(
            read_frame(&mut &v1[..]),
            Err(WireError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = encode_frame(&Frame::Shutdown, 1);
        buf[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_frame(&buf), Err(WireError::Oversized(_))));
    }

    #[test]
    fn truncation_at_every_length_errors_not_panics() {
        let frame = Frame::CollectResponse {
            status: ResponseStatus::Ok,
            findings: sample_findings(),
        };
        let buf = encode_frame(&frame, 9);
        for len in 0..buf.len() {
            assert!(
                decode_frame(&buf[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn giant_count_prefix_is_truncation_not_oom() {
        // A CollectResponse claiming u32::MAX findings in a tiny payload
        // must fail the count-vs-remaining check before any allocation.
        let mut payload = Vec::new();
        put_u8(&mut payload, 0); // status Ok
        put_u32(&mut payload, u32::MAX);
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        put_u8(&mut buf, PROTOCOL_VERSION);
        put_u8(&mut buf, FrameType::CollectResponse as u8);
        put_u16(&mut buf, 0);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&buf), Err(WireError::Truncated)));
    }
}
