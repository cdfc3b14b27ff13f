//! The frame layer: a compact length-prefixed binary encoding of every
//! message that crosses the master–slave boundary.
//!
//! Every frame is a fixed 20-byte header followed by a type-specific
//! payload, all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x46_43_48_57 ("FCHW" big-endian bytes)
//!      4     1  version      PROTOCOL_VERSION (3)
//!      5     1  frame type   see FrameType
//!      6     2  reserved     must be zero
//!      8     8  request id   echoed verbatim in the response
//!     16     4  payload len  bytes following the header, <= MAX_PAYLOAD
//! ```
//!
//! An `IngestBatch` payload (version 3) packs its samples into *runs*:
//!
//! ```text
//! u32 app, u32 sample count, then runs until the count is met:
//!   varint   tick delta   zigzag, from the previous run's tick (first: from 0)
//!   varint   component    ComponentId
//!   u8       kinds        bit i set = MetricKind::ALL[i] present (bits 6-7 zero)
//!   f64 x n  values       one bit pattern per set bit, ascending kind order
//! ```
//!
//! The encoder opens a new run whenever the tick or the component
//! changes, or the next kind's index is not above the previous one in
//! the run, so any sample sequence — out-of-order ticks, duplicate
//! kinds, NaN payloads — decodes back to itself sample for sample.
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
/// Version 3 replaced the fixed 21-byte `IngestBatch` sample with
/// tick/component runs.
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard ceiling on a payload (64 MiB). A length prefix above this is
/// corrupt or hostile; honoring it would let one bad frame exhaust the
/// master's memory.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;

/// What [`read_frame`] reserves for a payload before its bytes arrive;
/// a larger payload grows the buffer as it is received, so a header's
/// length field alone can never drive a large allocation.
const PAYLOAD_RESERVE: usize = 4096;

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

fn put_varint(buf: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
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

    /// A LEB128 varint of at most `max_len` bytes. Longer encodings,
    /// and ones padded with a redundant zero final byte, are corrupt.
    fn get_varint(&mut self, max_len: usize) -> Result<u128, WireError> {
        let mut value = 0u128;
        for i in 0..max_len {
            let byte = self.get_u8()?;
            value |= u128::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    break;
                }
                return Ok(value);
            }
        }
        Err(WireError::Corrupt("overlong varint"))
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

/// Least encoded size of one [`MetricSample`]: its value's bit pattern
/// (the run fields are shared).
const SAMPLE_MIN_LEN: usize = 8;

/// Most encoded size of one [`MetricSample`]: a run of its own — a
/// 10-byte tick delta, a 5-byte component, the kinds byte and the value.
const SAMPLE_MAX_LEN: usize = TICK_DELTA_MAX_LEN + COMPONENT_MAX_LEN + 1 + 8;

/// Varint bytes of a zigzagged tick delta: 65 bits need 10.
const TICK_DELTA_MAX_LEN: usize = 10;

/// Varint bytes of a component id: 32 bits need 5.
const COMPONENT_MAX_LEN: usize = 5;

/// Zigzag: small deltas of either sign become small unsigned numbers.
/// A delta between two `u64` ticks spans 65 bits, hence `i128`.
fn zigzag(delta: i128) -> u128 {
    ((delta << 1) ^ (delta >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    (v >> 1) as i128 ^ -((v & 1) as i128)
}

/// Writes `samples` as runs (see the module docs). Each run's kinds
/// byte is written when the run opens and gains a bit per later sample;
/// values go out in arrival order, which within a run is ascending kind
/// order.
fn put_sample_runs(buf: &mut Vec<u8>, samples: &[MetricSample]) {
    // The open run: its tick, component, last kind index and the
    // position of its kinds byte.
    let mut open: Option<(u64, ComponentId, usize, usize)> = None;
    for s in samples {
        let kind = s.kind.index();
        match &mut open {
            Some((tick, component, last, at))
                if *tick == s.tick && *component == s.component && kind > *last =>
            {
                *last = kind;
                buf[*at] |= 1 << kind;
            }
            _ => {
                let prev_tick = open.map_or(0, |(tick, ..)| tick);
                put_varint(buf, zigzag(i128::from(s.tick) - i128::from(prev_tick)));
                put_varint(buf, u128::from(s.component.0));
                open = Some((s.tick, s.component, kind, buf.len()));
                put_u8(buf, 1 << kind);
            }
        }
        put_f64(buf, s.value);
    }
}

/// Reads runs until `count` samples are decoded.
fn get_sample_runs(c: &mut Cursor<'_>, count: usize) -> Result<Vec<MetricSample>, WireError> {
    let mut samples = Vec::with_capacity(count);
    let mut tick = 0u64;
    while samples.len() < count {
        let delta = unzigzag(c.get_varint(TICK_DELTA_MAX_LEN)?);
        tick = u64::try_from(i128::from(tick) + delta)
            .map_err(|_| WireError::Corrupt("tick delta leaves the u64 range"))?;
        let component = u32::try_from(c.get_varint(COMPONENT_MAX_LEN)?)
            .map_err(|_| WireError::Corrupt("component id above u32"))?;
        let kinds = c.get_u8()?;
        if kinds == 0 || kinds >> MetricKind::ALL.len() != 0 {
            return Err(WireError::Corrupt("kinds byte empty or outside 0..6"));
        }
        if samples.len() + kinds.count_ones() as usize > count {
            return Err(WireError::Corrupt("runs hold more samples than counted"));
        }
        for kind in MetricKind::ALL {
            if kinds & (1 << kind.index()) != 0 {
                samples.push(MetricSample {
                    tick,
                    component: ComponentId(component),
                    kind,
                    value: c.get_f64()?,
                });
            }
        }
    }
    Ok(samples)
}

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

/// An upper bound on `frame`'s encoded payload, so [`encode_frame`]
/// allocates once.
fn payload_capacity(frame: &Frame) -> usize {
    match frame {
        Frame::CollectRequest { .. } => 22,
        Frame::CollectResponse { findings, .. } => {
            5 + findings
                .iter()
                .map(|f| FINDING_MIN_LEN + f.changes.len() * CHANGE_LEN)
                .sum::<usize>()
        }
        Frame::MonitoredRequest { .. } => 5,
        Frame::MonitoredResponse { components } => 4 + 4 * components.len(),
        Frame::IngestBatch { samples, .. } => 8 + SAMPLE_MAX_LEN * samples.len(),
        Frame::IngestAck { .. } => 8,
        Frame::Error { message, .. } => 3 + message.len(),
        Frame::Shutdown | Frame::ShutdownAck => 0,
    }
}

/// Serializes `frame` with `request_id` into a self-contained byte
/// buffer (header + payload), ready to write to a socket. The header
/// goes first with a zero length, patched once the payload is written.
pub fn encode_frame(frame: &Frame, request_id: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_capacity(frame));
    put_u32(&mut buf, MAGIC);
    put_u8(&mut buf, PROTOCOL_VERSION);
    put_u8(&mut buf, frame.frame_type() as u8);
    put_u16(&mut buf, 0); // reserved
    put_u64(&mut buf, request_id);
    put_u32(&mut buf, 0); // payload length, patched below
    let payload = &mut buf;
    match frame {
        Frame::CollectRequest { app, request } => {
            put_opt_app(payload, *app);
            put_u64(payload, request.violation_at);
            put_bool(payload, request.lookback.is_some());
            put_u64(payload, request.lookback.unwrap_or(0));
        }
        Frame::CollectResponse { status, findings } => {
            put_u8(
                payload,
                match status {
                    ResponseStatus::Ok => 0,
                    ResponseStatus::Transient => 1,
                    ResponseStatus::Unreachable => 2,
                },
            );
            put_findings(payload, findings);
        }
        Frame::MonitoredRequest { app } => {
            put_opt_app(payload, *app);
        }
        Frame::MonitoredResponse { components } => {
            put_u32(payload, components.len() as u32);
            for c in components {
                put_u32(payload, c.0);
            }
        }
        Frame::IngestBatch { app, samples } => {
            put_u32(payload, app.0);
            put_u32(payload, samples.len() as u32);
            put_sample_runs(payload, samples);
        }
        Frame::IngestAck { accepted } => {
            put_u64(payload, *accepted);
        }
        Frame::Error { code, message } => {
            let bytes = message.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            put_u8(payload, *code);
            put_u16(payload, len as u16);
            payload.extend_from_slice(&bytes[..len]);
        }
        Frame::Shutdown | Frame::ShutdownAck => {}
    }
    let payload_len = (buf.len() - HEADER_LEN) as u32;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
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
            let count = c.check_count(raw_count, SAMPLE_MIN_LEN)?;
            let samples = get_sample_runs(c, count)?;
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
/// payload it promises. The payload buffer starts at a small reserve
/// and grows only as bytes arrive, so a header claiming a huge payload
/// and then going quiet costs no more than what was received. A peer
/// that stalls mid-frame is caught by the socket read deadline,
/// surfacing as [`WireError::Io`]; one that hangs up mid-frame as
/// [`std::io::ErrorKind::UnexpectedEof`].
///
/// Over a socket, pass a [`std::io::BufReader`]: a frame that arrived
/// whole is then taken, header and payload, from one `recv`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u64, Frame), WireError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    r.read_exact(&mut header_bytes)?;
    let header = decode_header(&header_bytes)?;
    let len = header.payload_len as usize;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
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
            3, 1, 0, 0,                                     // version 3, CollectRequest, reserved
            0, 0, 0, 0, 0, 0, 0, 0,                         // request id 0
            22, 0, 0, 0,                                    // payload length
            1, 4, 0, 0, 0,                                  // app: Some(AppId(4))
            0xD2, 0x04, 0, 0, 0, 0, 0, 0,                   // violation_at: 1234
            1, 0xF4, 0x01, 0, 0, 0, 0, 0, 0,                // lookback: Some(500)
        ];
        assert_eq!(encode_frame(&frames[0], 0), golden);
    }

    fn sample(tick: u64, component: u32, kind: MetricKind, value: f64) -> MetricSample {
        MetricSample {
            tick,
            component: ComponentId(component),
            kind,
            value,
        }
    }

    #[test]
    fn ingest_batch_golden_bytes() {
        // Two ticks, two components, three runs: (10, C0) carries two
        // kinds, (10, C300) one, (11, C0) one.
        let frame = Frame::IngestBatch {
            app: AppId(1),
            samples: vec![
                sample(10, 0, MetricKind::Cpu, 1.0),
                sample(10, 0, MetricKind::NetIn, 2.0),
                sample(10, 300, MetricKind::Cpu, 0.5),
                sample(11, 0, MetricKind::Cpu, -0.0),
            ],
        };
        #[rustfmt::skip]
        let golden: [u8; HEADER_LEN + 50] = [
            0x57, 0x48, 0x43, 0x46,                         // magic
            3, 5, 0, 0,                                     // version 3, IngestBatch, reserved
            7, 0, 0, 0, 0, 0, 0, 0,                         // request id 7
            50, 0, 0, 0,                                    // payload length
            1, 0, 0, 0,                                     // app 1
            4, 0, 0, 0,                                     // 4 samples
            20, 0, 0b101,                                   // tick +10, C0, {Cpu, NetIn}
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F,                   // 1.0
            0, 0, 0, 0, 0, 0, 0, 0x40,                      // 2.0
            0, 0xAC, 0x02, 0b1,                             // tick +0, C300, {Cpu}
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F,                   // 0.5
            2, 0, 0b1,                                      // tick +1, C0, {Cpu}
            0, 0, 0, 0, 0, 0, 0, 0x80,                      // -0.0
        ];
        assert_eq!(encode_frame(&frame, 7), golden);
        let (id, back) = decode_frame(&golden).expect("golden frame decodes");
        assert_eq!((id, back), (7, frame));
    }

    #[test]
    fn runs_split_on_every_order_break() {
        // A descending tick, a repeated kind and a kind below the run's
        // last each open a run; the decoder hands back the same order.
        let samples = vec![
            sample(5, 1, MetricKind::Memory, 1.0),
            sample(5, 1, MetricKind::Memory, 2.0),
            sample(5, 1, MetricKind::Cpu, 3.0),
            sample(2, 1, MetricKind::Cpu, f64::from_bits(0x7ff8_0000_dead_beef)),
            sample(u64::MAX, 1, MetricKind::Cpu, 4.0),
            sample(0, u32::MAX, MetricKind::Cpu, 5.0),
        ];
        let frame = Frame::IngestBatch {
            app: AppId(0),
            samples: samples.clone(),
        };
        let buf = encode_frame(&frame, 0);
        assert_eq!(
            buf.len(),
            HEADER_LEN + 8 + (1 + 1 + 1) * 4 + (10 + 1 + 1) + (10 + 5 + 1) + 8 * 6
        );
        let Ok((_, Frame::IngestBatch { samples: back, .. })) = decode_frame(&buf) else {
            panic!("ingest batch must decode");
        };
        let bits = |s: &[MetricSample]| {
            s.iter()
                .map(|s| (s.tick, s.component, s.kind, s.value.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&samples));
    }

    /// A current-version frame of `frame_type` around a hand-built
    /// `payload`.
    fn raw_frame(frame_type: FrameType, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        put_u8(&mut buf, PROTOCOL_VERSION);
        put_u8(&mut buf, frame_type as u8);
        put_u16(&mut buf, 0);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(payload);
        buf
    }

    /// An `IngestBatch` frame: app 0, `count`, then `runs` verbatim.
    fn ingest_frame(count: u32, runs: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u32(&mut payload, 0);
        put_u32(&mut payload, count);
        payload.extend_from_slice(runs);
        raw_frame(FrameType::IngestBatch, &payload)
    }

    #[test]
    fn malformed_runs_are_corrupt() {
        let value = [0u8; 8];
        let run = |head: &[u8]| [head, &value[..]].concat();
        let cases: Vec<(&str, Vec<u8>, u32)> = vec![
            ("zero kinds byte", run(&[0, 0, 0]), 1),
            ("kinds bit 6", run(&[0, 0, 1 << 6]), 1),
            ("kinds bit 7", run(&[0, 0, 1 << 7]), 1),
            ("padded varint", run(&[0x80, 0x00, 0, 1]), 1),
            ("11-byte varint", run(&[0xFF; 11]), 1),
            (
                "component above u32",
                run(&[0, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 1]),
                1,
            ),
            // zigzag 1 = -1 from tick 0.
            ("tick below zero", run(&[1, 0, 1]), 1),
            (
                "more samples than counted",
                [run(&[0, 0, 0b11]), value.to_vec()].concat(),
                1,
            ),
        ];
        for (what, runs, count) in cases {
            assert!(
                matches!(
                    decode_frame(&ingest_frame(count, &runs)),
                    Err(WireError::Corrupt(_))
                ),
                "{what}"
            );
        }
        // Fewer samples than counted leaves the count unbacked.
        assert!(matches!(
            decode_frame(&ingest_frame(2, &run(&[0, 0, 1]))),
            Err(WireError::Truncated)
        ));
        // A tick past u64::MAX: zigzag(2^64) from tick 0.
        let mut overflow = Vec::new();
        put_varint(&mut overflow, zigzag(1 << 64));
        overflow.extend_from_slice(&[0, 1]);
        assert!(matches!(
            decode_frame(&ingest_frame(1, &run(&overflow))),
            Err(WireError::Corrupt(_))
        ));
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
    fn version_two_frames_are_rejected() {
        // The version-2 CollectRequest differs from version 3's only in
        // the version byte.
        let mut collect = encode_frame(
            &Frame::CollectRequest {
                app: Some(AppId(4)),
                request: CollectRequest::at(1234),
            },
            0,
        );
        collect[4] = 2;
        // A version-2 IngestBatch: one fixed 21-byte sample.
        #[rustfmt::skip]
        let ingest: [u8; HEADER_LEN + 29] = [
            0x57, 0x48, 0x43, 0x46,                         // magic
            2, 5, 0, 0,                                     // version 2, IngestBatch, reserved
            0, 0, 0, 0, 0, 0, 0, 0,                         // request id 0
            29, 0, 0, 0,                                    // payload length
            0, 0, 0, 0,                                     // app 0
            1, 0, 0, 0,                                     // 1 sample
            10, 0, 0, 0, 0, 0, 0, 0,                        // tick 10
            0, 0, 0, 0,                                     // component 0
            0,                                              // Cpu
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F,                   // 1.0
        ];
        for buf in [&collect[..], &ingest[..]] {
            assert!(matches!(
                decode_frame(buf),
                Err(WireError::UnsupportedVersion(2))
            ));
            assert!(matches!(
                read_frame(&mut &buf[..]),
                Err(WireError::UnsupportedVersion(2))
            ));
        }
    }

    /// A reader that serves `bytes`, then EOF, and records the largest
    /// buffer it was asked to fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_request: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_header_alone_cannot_drive_a_payload_allocation() {
        // A header promising MAX_PAYLOAD bytes, then EOF: an error, and
        // the payload buffer never outgrows the small reserve.
        let mut header = encode_frame(&Frame::Shutdown, 1);
        header[16..20].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        let mut reader = Recording {
            bytes: &header,
            largest_request: 0,
        };
        let err = read_frame(&mut reader).expect_err("no payload arrived");
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        assert!(
            reader.largest_request <= PAYLOAD_RESERVE,
            "asked for a {}-byte buffer after a {}-byte header",
            reader.largest_request,
            HEADER_LEN
        );
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
        let buf = raw_frame(FrameType::CollectResponse, &payload);
        assert!(matches!(decode_frame(&buf), Err(WireError::Truncated)));
    }
}
