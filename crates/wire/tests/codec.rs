//! Property tests over the wire codec: every frame type roundtrips
//! bit-exactly, and no byte stream — truncated, corrupted or random —
//! can make the decoder panic or allocate past its input.

use fchain_core::slave::MetricSample;
use fchain_core::{AbnormalChange, CollectRequest, ComponentFinding};
use fchain_detect::Trend;
use fchain_metrics::{AppId, ComponentId, MetricKind};
use fchain_wire::frame::{decode_frame, encode_frame, HEADER_LEN};
use fchain_wire::{Frame, ResponseStatus, WireError, PROTOCOL_VERSION};
use proptest::prelude::*;

fn metric() -> impl Strategy<Value = MetricKind> {
    (0usize..MetricKind::ALL.len()).prop_map(|i| MetricKind::ALL[i])
}

fn trend() -> impl Strategy<Value = Trend> {
    (0u8..2).prop_map(|i| if i == 0 { Trend::Up } else { Trend::Down })
}

/// Arbitrary f64 *bit patterns*, including NaNs, infinities and
/// subnormals — the codec must carry all of them exactly.
fn f64_bits() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

fn change() -> impl Strategy<Value = AbnormalChange> {
    (
        metric(),
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        f64_bits(),
        f64_bits(),
        trend(),
    )
        .prop_map(
            |(metric, change_at, onset, prediction_error, expected_error, direction)| {
                AbnormalChange {
                    metric,
                    change_at,
                    onset,
                    prediction_error,
                    expected_error,
                    direction,
                }
            },
        )
}

fn finding() -> impl Strategy<Value = ComponentFinding> {
    (0u32..=u32::MAX, proptest::collection::vec(change(), 0..5)).prop_map(|(id, changes)| {
        ComponentFinding {
            id: ComponentId(id),
            changes,
        }
    })
}

fn sample() -> impl Strategy<Value = MetricSample> {
    (0u64..=u64::MAX, 0u32..=u32::MAX, metric(), f64_bits()).prop_map(
        |(tick, component, kind, value)| MetricSample {
            tick,
            component: ComponentId(component),
            kind,
            value,
        },
    )
}

/// A sample stream the way a host sends it, scrambled: ticks a few
/// apart around any base (wrapping past `u64::MAX` included), few
/// components, kinds in any order with repeats — so runs form, break
/// on every rule, and carry arbitrary value bits.
fn sample_stream() -> impl Strategy<Value = Vec<MetricSample>> {
    (
        0u64..=u64::MAX,
        proptest::collection::vec((0u64..4, 0u32..3, metric(), f64_bits()), 0..96),
    )
        .prop_map(|(base, draws)| {
            draws
                .into_iter()
                .map(|(dt, component, kind, value)| MetricSample {
                    tick: base.wrapping_add(dt),
                    component: ComponentId(component),
                    kind,
                    value,
                })
                .collect()
        })
}

/// A sample down to its value's bit pattern.
fn sample_bits(s: &MetricSample) -> (u64, ComponentId, MetricKind, u64) {
    (s.tick, s.component, s.kind, s.value.to_bits())
}

fn opt_app() -> impl Strategy<Value = Option<AppId>> {
    proptest::option::of((0u32..=u32::MAX).prop_map(AppId))
}

/// One frame of any kind, driven by a selector plus a grab-bag of
/// generated payload material (the vendored proptest has no
/// `prop_oneof!`, so selection is by index).
fn frame() -> impl Strategy<Value = Frame> {
    (
        0u8..9,
        (
            opt_app(),
            0u64..=u64::MAX,
            proptest::option::of(0u64..=u64::MAX),
        ),
        (0u8..3, proptest::collection::vec(finding(), 0..6)),
        proptest::collection::vec((0u32..=u32::MAX).prop_map(ComponentId), 0..32),
        proptest::collection::vec(sample(), 0..32),
        (0u8..=u8::MAX, proptest::collection::vec(32u8..127, 0..64)),
    )
        .prop_map(
            |(kind, (app, violation_at, lookback), resp, comps, samples, err)| match kind {
                0 => Frame::CollectRequest {
                    app,
                    request: CollectRequest {
                        violation_at,
                        lookback,
                    },
                },
                1 => Frame::CollectResponse {
                    status: match resp.0 {
                        0 => ResponseStatus::Ok,
                        1 => ResponseStatus::Transient,
                        _ => ResponseStatus::Unreachable,
                    },
                    findings: resp.1,
                },
                2 => Frame::MonitoredRequest { app },
                3 => Frame::MonitoredResponse { components: comps },
                4 => Frame::IngestBatch {
                    app: app.unwrap_or_default(),
                    samples,
                },
                5 => Frame::IngestAck {
                    accepted: violation_at,
                },
                6 => Frame::Error {
                    code: err.0,
                    message: String::from_utf8(err.1).expect("printable ascii"),
                },
                7 => Frame::Shutdown,
                _ => Frame::ShutdownAck,
            },
        )
}

/// Frame equality down to f64 bit patterns (NaN == NaN iff the bits
/// match) — the contract the determinism pins rely on. `PartialEq` on
/// the payload structs would treat NaN as unequal to itself, so compare
/// the canonical encodings instead.
fn assert_bit_identical(a: &Frame, b: &Frame) {
    let (ea, eb) = (encode_frame(a, 0), encode_frame(b, 0));
    assert_eq!(ea, eb, "frames re-encode differently: {a:?} vs {b:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for every frame type, id and
    /// payload, down to the f64 bit patterns.
    #[test]
    fn every_frame_roundtrips(frame in frame(), request_id in 0u64..=u64::MAX) {
        let buf = encode_frame(&frame, request_id);
        let (id, back) = decode_frame(&buf).expect("well-formed frame must decode");
        prop_assert_eq!(id, request_id);
        assert_bit_identical(&frame, &back);
    }

    /// An `IngestBatch` hands back its samples in order, bit for bit,
    /// whatever their order: the daemon's drop rules for late,
    /// duplicate and non-finite samples see the sequence the feeder
    /// sent.
    #[test]
    fn ingest_samples_roundtrip_bit_for_bit(
        app in 0u32..=u32::MAX,
        samples in sample_stream(),
    ) {
        let frame = Frame::IngestBatch { app: AppId(app), samples: samples.clone() };
        let buf = encode_frame(&frame, 5);
        // Every run costs at least one value; none costs more than 24 B.
        prop_assert!(buf.len() >= HEADER_LEN + 8 + 8 * samples.len());
        prop_assert!(buf.len() <= HEADER_LEN + 8 + 24 * samples.len());
        match decode_frame(&buf) {
            Ok((5, Frame::IngestBatch { app: back_app, samples: back })) => {
                prop_assert_eq!(back_app, AppId(app));
                prop_assert_eq!(
                    back.iter().map(sample_bits).collect::<Vec<_>>(),
                    samples.iter().map(sample_bits).collect::<Vec<_>>()
                );
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    /// Every strict prefix of a valid frame is an error — never a
    /// panic, never a bogus success.
    #[test]
    fn truncated_frames_error(frame in frame(), cut in 0usize..=1 << 20) {
        let buf = encode_frame(&frame, 7);
        let len = cut % buf.len();
        prop_assert!(decode_frame(&buf[..len]).is_err());
    }

    /// Flipping any single byte of a valid frame either still decodes
    /// (payload bytes with slack, e.g. another f64 bit pattern) or
    /// returns an error — it never panics.
    #[test]
    fn corrupted_frames_never_panic(
        frame in frame(),
        pos in 0usize..=1 << 20,
        xor in 1u8..=u8::MAX,
    ) {
        let mut buf = encode_frame(&frame, 3);
        let i = pos % buf.len();
        buf[i] ^= xor;
        let _ = decode_frame(&buf);
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=u8::MAX, 0..256)) {
        let _ = decode_frame(&bytes);
    }

    /// A header announcing any version other than the protocol's is
    /// rejected as such, whatever the payload.
    #[test]
    fn unknown_versions_are_rejected(frame in frame(), version in 0u8..=u8::MAX) {
        prop_assume!(version != PROTOCOL_VERSION);
        let mut buf = encode_frame(&frame, 1);
        buf[4] = version;
        prop_assert!(matches!(
            decode_frame(&buf),
            Err(WireError::UnsupportedVersion(v)) if v == version
        ));
    }

    /// An inflated length prefix is either oversized (past the cap) or
    /// truncated (bytes missing) — and a count field the remaining
    /// bytes cannot back never drives an allocation.
    #[test]
    fn inflated_lengths_error(frame in frame(), extra in 1u32..=1 << 26) {
        let mut buf = encode_frame(&frame, 1);
        let payload_len = (buf.len() - HEADER_LEN) as u32;
        let inflated = payload_len.saturating_add(extra);
        buf[16..20].copy_from_slice(&inflated.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&buf),
            Err(WireError::Oversized(_)) | Err(WireError::Truncated)
        ));
    }
}
