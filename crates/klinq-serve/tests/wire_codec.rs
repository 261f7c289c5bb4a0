//! Wire-codec properties: encode→decode identity for every message
//! type (request ids included), typed errors — never panics — for
//! truncated or corrupted bytes, and incremental reassembly equivalence
//! however the stream is fragmented.

use klinq_serve::wire::codec::encode_request_opts;
use klinq_serve::wire::{
    decode_message, encode_error, encode_response, FrameAssembler, WireError, WireMessage,
};
use klinq_serve::{Priority, ServeError, Shot, ShotBlock, ShotStates};
use std::time::Duration;
use klinq_sim::dataset::IqTrace;
use klinq_sim::device::NUM_QUBITS;
use klinq_sim::trajectory::StateEvolution;
use proptest::prelude::*;

/// Builds an unlabeled shot from per-trace sample vectors (the wire
/// carries no labels). I and Q carry distinct values so a codec that
/// swapped or aliased the channels would fail the round trip.
fn shot_from_samples(trace_samples: Vec<Vec<f32>>) -> Shot {
    Shot {
        prepared: [false; NUM_QUBITS],
        evolutions: [StateEvolution::Ground; NUM_QUBITS],
        traces: trace_samples
            .into_iter()
            .map(|i| {
                let q = i.iter().map(|v| v * 0.5 - 1.0).collect();
                IqTrace { i, q }
            })
            .collect(),
    }
}

fn shots_strategy() -> impl Strategy<Value = Vec<Shot>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(-1.0e3f32..1.0e3, 0..12),
            0..6,
        )
        .prop_map(shot_from_samples),
        0..5,
    )
}

fn states_strategy() -> impl Strategy<Value = Vec<ShotStates>> {
    prop::collection::vec(
        (0u32..32).prop_map(|mask| std::array::from_fn(|qb| mask & (1 << qb) != 0)),
        0..20,
    )
}

proptest! {
    #[test]
    fn request_round_trips_exactly(
        shots in shots_strategy(),
        req_id in any::<u64>(),
        device in 0u32..200,
        latency in prop::bool::ANY,
        tenant in any::<u32>(),
        deadline_us in any::<u64>(),
        failover in prop::bool::ANY
    ) {
        let device = device as u16;
        let priority = if latency { Priority::Latency } else { Priority::Throughput };
        let encoded =
            encode_request_opts(req_id, device, priority, tenant, deadline_us, failover, &shots);
        match decode_message(&encoded) {
            Ok(WireMessage::Request {
                req_id: r, device: d, priority: p, tenant: t, deadline_us: dl,
                allow_failover: fo, shots: s,
            }) => {
                prop_assert_eq!(r, req_id);
                prop_assert_eq!(d, device);
                prop_assert_eq!(p, priority);
                prop_assert_eq!(t, tenant);
                prop_assert_eq!(dl, deadline_us);
                prop_assert_eq!(fo, failover);
                // Every trace, in order, unchanged: the decoded block is
                // exactly the block built from the encoded shots.
                prop_assert_eq!(s, ShotBlock::from(&shots[..]));
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    #[test]
    fn response_round_trips_exactly(
        states in states_strategy(),
        req_id in any::<u64>()
    ) {
        let encoded = encode_response(req_id, &states);
        match decode_message(&encoded) {
            Ok(WireMessage::Response { req_id: r, states: s }) => {
                prop_assert_eq!(r, req_id);
                prop_assert_eq!(s, states);
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    #[test]
    fn every_truncation_of_a_request_is_a_typed_error(
        shots in shots_strategy(),
        cut_fraction in 0.0f64..1.0
    ) {
        // Any strict prefix of a valid frame payload must decode to a
        // typed error — the declared counts can no longer be satisfied —
        // and must never panic or silently succeed.
        let encoded = encode_request_opts(7, 3, Priority::Throughput, 0, 0, false, &shots);
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < encoded.len());
        prop_assert!(decode_message(&encoded[..cut]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u32..256, 0..300)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Any result is fine — only a panic would fail this test.
        let _ = decode_message(&bytes);
    }

    #[test]
    fn corrupting_the_header_yields_the_matching_typed_error(
        states in states_strategy()
    ) {
        let good = encode_response(1, &states);
        // Magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        prop_assert!(matches!(decode_message(&bad), Err(WireError::BadMagic(_))));
        // Version.
        let mut bad = good.clone();
        bad[2] = 99;
        prop_assert!(matches!(
            decode_message(&bad),
            Err(WireError::UnsupportedVersion(99))
        ));
        // Message type.
        let mut bad = good.clone();
        bad[3] = 77;
        prop_assert!(matches!(
            decode_message(&bad),
            Err(WireError::UnknownMessage(77))
        ));
    }

    #[test]
    fn reassembly_is_invariant_to_fragmentation(
        states in states_strategy(),
        shots in shots_strategy(),
        chunk in 1usize..64
    ) {
        // A byte stream carrying several frames must reassemble into
        // exactly those frames no matter how the transport fragments it.
        let payloads = [
            encode_request_opts(1, 0, Priority::Throughput, 0, 0, false, &shots),
            encode_response(2, &states),
            encode_error(3, &ServeError::Overloaded { retry_after: None }),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p);
        }
        let mut asm = FrameAssembler::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for piece in stream.chunks(chunk) {
            prop_assert_eq!(asm.read_from(&mut &*piece, chunk).unwrap(), piece.len());
            while let Some(frame) = asm.next_frame_ref().unwrap() {
                got.push(frame.to_vec());
            }
        }
        prop_assert_eq!(got, payloads.to_vec());
        prop_assert_eq!(asm.pending(), 0);
    }
}

#[test]
fn every_error_variant_round_trips() {
    for error in [
        ServeError::Closed,
        ServeError::Overloaded { retry_after: None },
        // The retry-after hint is a typed extra on the error frame; an
        // exact microsecond value must survive the trip.
        ServeError::Overloaded {
            retry_after: Some(Duration::from_micros(2_750)),
        },
        ServeError::Timeout,
        ServeError::InvalidRequest("shot 3 qubit 1: ragged".to_string()),
        ServeError::Protocol("reply carries 0 shot states".to_string()),
        ServeError::Disconnected,
        ServeError::Draining,
        ServeError::DeadlineExceeded,
        // The offending tenant id travels as a typed extra, so a client
        // can log *which* id the server refused.
        ServeError::UnknownTenant(0),
        ServeError::UnknownTenant(u32::MAX),
        ServeError::Poisoned,
        ServeError::ShardDown,
    ] {
        let encoded = encode_error(42, &error);
        match decode_message(&encoded) {
            Ok(WireMessage::Error { req_id, error: decoded }) => {
                assert_eq!(req_id, 42);
                assert_eq!(decoded, error);
            }
            other => panic!("decoded {other:?}"),
        }
    }
}

#[test]
fn version_skew_is_a_typed_error() {
    // Only the current version decodes: a well-formed request frame of
    // any older layout must fail typed as version skew — never parse
    // one layout's fields as another's.
    let header = |version: u8| {
        let mut frame = Vec::new();
        frame.extend_from_slice(&0x514Bu16.to_le_bytes());
        frame.push(version);
        frame.push(1); // request
        frame
    };
    // v1: no request id.
    let mut v1 = header(1);
    v1.extend_from_slice(&0u16.to_le_bytes()); // device
    v1.push(0); // priority
    v1.extend_from_slice(&0u32.to_le_bytes()); // zero shots
                                               // v2: request id, no tenant/deadline fields, no flags byte.
    let mut v2 = header(2);
    v2.extend_from_slice(&9u64.to_le_bytes()); // req id
    v2.extend_from_slice(&4u16.to_le_bytes()); // device
    v2.push(1); // priority: latency
    v2.extend_from_slice(&0u32.to_le_bytes()); // zero shots
                                               // v3: tenant and deadline, no flags byte.
    let mut v3 = header(3);
    v3.extend_from_slice(&9u64.to_le_bytes()); // req id
    v3.extend_from_slice(&4u16.to_le_bytes()); // device
    v3.push(1); // priority: latency
    v3.extend_from_slice(&2u32.to_le_bytes()); // tenant
    v3.extend_from_slice(&500u64.to_le_bytes()); // deadline (µs)
    v3.extend_from_slice(&0u32.to_le_bytes()); // zero shots
    for (version, frame) in [(1, v1), (2, v2), (3, v3)] {
        assert_eq!(
            decode_message(&frame),
            Err(WireError::UnsupportedVersion(version)),
            "v{version}"
        );
    }
}

#[test]
fn response_masks_with_non_qubit_bits_are_malformed() {
    let mut encoded = encode_response(1, &[[true; 5]]);
    // Set a sixth-qubit bit in the (single) state mask.
    let last = encoded.len() - 1;
    encoded[last] |= 1 << 5;
    assert!(matches!(
        decode_message(&encoded),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn ragged_traces_round_trip_exactly() {
    // The format carries separate I and Q counts precisely so ragged
    // traces survive the trip and get rejected typed at intake.
    let mut shot = shot_from_samples(vec![vec![1.0, 2.0, 3.0], vec![4.0]]);
    shot.traces[0].q.truncate(1);
    shot.traces[1].q.clear();
    let encoded =
        encode_request_opts(1, 0, Priority::Throughput, 0, 0, false, std::slice::from_ref(&shot));
    match decode_message(&encoded) {
        Ok(WireMessage::Request { shots, .. }) => {
            assert_eq!(shots, ShotBlock::from(std::slice::from_ref(&shot)));
            assert_eq!(shots.trace(0, 0), (&[1.0, 2.0, 3.0][..], &[-0.5][..]));
            assert_eq!(shots.trace(0, 1), (&[4.0][..], &[][..]));
        }
        other => panic!("decoded {other:?}"),
    }
}

#[test]
fn hostile_shot_counts_are_capped_before_allocation() {
    // A frame declaring an absurd shot count must fail typed without
    // the decoder allocating shot structs for it.
    let mut payload = encode_request_opts(1, 0, Priority::Throughput, 0, 0, false, &[]);
    // Overwrite the trailing u32 shot count (last 4 bytes of an empty
    // request) with u32::MAX.
    let len = payload.len();
    payload[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode_message(&payload) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("limit"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // A count under the cap but unbacked by bytes is typed truncation,
    // still before allocation.
    payload[len - 4..].copy_from_slice(&1_000_000u32.to_le_bytes());
    assert!(matches!(
        decode_message(&payload),
        Err(WireError::Truncated { .. })
    ));
    // One shot declaring 65,535 traces in a short frame: the trace count
    // is checked against the bytes present before the block reserves
    // anything for it.
    payload[len - 4..].copy_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&u16::MAX.to_le_bytes());
    payload.extend_from_slice(&[0; 16]);
    match decode_message(&payload) {
        Err(WireError::Truncated { expected, have }) => {
            assert_eq!(have, payload.len());
            assert_eq!(expected, payload.len() - 16 + usize::from(u16::MAX) * 8);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_malformed() {
    let mut encoded = encode_response(1, &[[false; 5]]);
    encoded.push(0);
    match decode_message(&encoded) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn framing_rejects_truncation_and_oversized_lengths() {
    // Reads a whole byte stream through an assembler, returning the
    // first frame (if complete) and the bytes left buffered at EOF.
    fn read_all(mut stream: &[u8]) -> (Result<Option<Vec<u8>>, WireError>, usize) {
        let mut asm = FrameAssembler::new();
        while asm.read_from(&mut stream, 64).unwrap() > 0 {}
        let frame = asm.next_frame_ref().map(|f| f.map(<[u8]>::to_vec));
        (frame, asm.pending())
    }
    // Clean EOF at a frame boundary: no frame, nothing left over.
    assert_eq!(read_all(&[]), (Ok(None), 0));
    // A stream that dies mid-length-prefix or mid-payload yields no
    // frame and leaves its partial bytes buffered — what a reader sees
    // as a truncated stream at EOF.
    assert_eq!(read_all(&[1, 0]), (Ok(None), 2));
    assert_eq!(read_all(&[8, 0, 0, 0, 1, 2, 3]), (Ok(None), 7));
    assert_eq!(read_all(&[3, 0, 0, 0, 1, 2, 3]), (Ok(Some(vec![1, 2, 3])), 0));
    // A garbage length prefix must produce a typed bound error the
    // moment the prefix is visible — before any payload bytes arrive,
    // and without a giant allocation.
    assert!(matches!(read_all(&[0xff, 0xff, 0xff, 0xff]).0, Err(WireError::FrameTooLarge(_))));
}

/// A reader that hands out one byte per `read` call — the degenerate
/// fragmentation a slow or chaos-injected socket produces.
struct OneByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl std::io::Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.bytes[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

#[test]
fn one_byte_reads_reassemble_exactly_across_frame_boundaries() {
    // `read_from` fed one byte at a time must produce each frame at the
    // exact read that completes it — no frame early (a length-prefix
    // parse jumping the gun), none late, none merged across the
    // boundary where one frame's last byte and the next frame's prefix
    // meet.
    let payloads = [
        encode_error(7, &ServeError::Draining),
        encode_response(8, &[[true, false, true, false, true]]),
        encode_error(9, &ServeError::Disconnected),
    ];
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for p in &payloads {
        stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
        stream.extend_from_slice(p);
        ends.push(stream.len());
    }
    let mut reader = OneByteReader {
        bytes: &stream,
        pos: 0,
    };
    let mut asm = FrameAssembler::new();
    let mut got: Vec<Vec<u8>> = Vec::new();
    for fed in 1..=stream.len() {
        // Ask for a big chunk; the reader still delivers one byte.
        assert_eq!(asm.read_from(&mut reader, 64 * 1024).unwrap(), 1);
        let complete_before = got.len();
        while let Some(frame) = asm.next_frame_ref().unwrap() {
            got.push(frame.to_vec());
        }
        let complete_now = ends.iter().filter(|&&e| e <= fed).count();
        assert_eq!(
            got.len(),
            complete_now,
            "after byte {fed}: {} frames out, expected {complete_now}",
            got.len()
        );
        // A frame may only appear on the byte that completes it.
        if got.len() > complete_before {
            assert!(ends.contains(&fed), "frame surfaced mid-frame at byte {fed}");
        }
    }
    assert_eq!(got, payloads.to_vec());
    assert_eq!(asm.pending(), 0);
    assert_eq!(asm.read_from(&mut reader, 64 * 1024).unwrap(), 0, "stream exhausted");
}
