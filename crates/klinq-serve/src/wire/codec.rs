//! The wire codec: framing, message grammar, and incremental reassembly.
//!
//! Every message is one frame: a `u32` little-endian payload length,
//! then the payload. A payload starts with a fixed header — magic
//! (`0x514B`, `"KQ"`), protocol version, message type, and a `u64`
//! **request id** — followed by the type-specific body:
//!
//! | type | body |
//! |------|------|
//! | `1` request  | device `u16`, priority `u8`, tenant `u32`, deadline `u64` (µs, `0` = none), flags `u8` (bit 0 = allow failover), shot count `u32`, shots (per shot: trace count `u16`; per trace: I count `u32`, I samples `f32`×nᵢ, Q count `u32`, Q samples `f32`×n_q) |
//! | `2` response | shot count `u32`, one `u8` five-qubit state mask per shot |
//! | `3` error    | kind `u8` ([`ServeError`] variant), message (`u32` length + UTF-8), *(kind-specific extras — see below)* |
//! | `4` health   | *(header only)* fleet health query |
//! | `5` health report | shard count `u16`; per shard: health `u8` ([`ShardHealth`] wire code), restarts `u64`, downs `u64` |
//!
//! Two error kinds carry typed extras: `Overloaded` (kind 2) is followed
//! by a `u64` retry-after hint in µs (`0` = no hint), and
//! `UnknownTenant` (kind 8) by the offending tenant id as a `u32`.
//!
//! The decoder accepts exactly one protocol version, 4: every peer is
//! built from this repository, so there is no older frame layout to
//! tolerate. A frame of any other version — including the older v1–v3
//! layouts — gets a typed [`WireError::UnsupportedVersion`], the
//! version-skew error, instead of silent frame corruption.
//!
//! The request id is what makes **pipelining** work: a client may put
//! many requests in flight on one connection, and the server is free to
//! answer them out of order — each response or per-request error frame
//! echoes its request's id. Clients choose their own ids (the reference
//! client counts up from 1); id `0` ([`CONNECTION_REQ_ID`]) is reserved
//! for connection-level error frames that answer undecodable bytes,
//! which belong to no request.
//!
//! I and Q carry separate counts so that even a ragged trace (I and Q
//! lengths differing — which intake validation rejects) crosses the
//! wire intact and earns the same typed [`ServeError::InvalidRequest`]
//! an in-process client gets, instead of corrupting the frame.
//!
//! A request decodes straight into one [`ShotBlock`]: each trace's I and
//! Q bytes are converted into the block's flat sample arena in one pass,
//! with no allocation per shot or per trace, so the samples are copied
//! once between the reassembly buffer and the engine's kernels. Beyond
//! its samples (4 bytes each, as on the wire) the block spends 8 bytes
//! per shot, which takes at least 2 wire bytes, and 24 bytes per trace,
//! which takes at least 8.
//!
//! Malformed bytes produce typed [`WireError`]s — bad magic, unsupported
//! version, truncation, oversized frames — and never panic the decoder:
//! every count is bounds-checked against the bytes actually present (and
//! the shot count additionally against [`MAX_REQUEST_SHOTS`]) before
//! anything is allocated, and capacity is reserved from the bytes
//! present, never from a declared count. A hostile frame therefore
//! cannot amplify its own size beyond those per-shot and per-trace
//! costs.

use crate::server::{Priority, ServeError};
use crate::supervise::{ShardHealth, ShardHealthReport};
use klinq_core::{ShotBlock, ShotStates};
use klinq_sim::device::NUM_QUBITS;
use klinq_sim::Shot;
use std::fmt;
use std::io::{self, Read};

/// Frame payload magic: `"KQ"` little-endian.
pub(crate) const MAGIC: u16 = 0x514B;
/// The one protocol version this build speaks and decodes; frames of
/// any other version fail with a typed
/// [`WireError::UnsupportedVersion`].
pub(crate) const WIRE_VERSION: u8 = 4;
/// Refuse frames larger than this (256 MiB): a garbage length prefix
/// must produce a typed error, not a giant allocation.
pub(crate) const MAX_FRAME: u32 = 256 * 1024 * 1024;
/// Refuse requests declaring more shots than this (1 Mi). A decoded
/// shot costs its [`ShotBlock`] one 8-byte trace start, and a shot can
/// declare zero traces in two wire bytes, so the cap bounds that
/// bookkeeping at 8 MiB per request before intake validation ever sees
/// it. Far above any sane request — batching budgets sit orders of
/// magnitude below.
pub const MAX_REQUEST_SHOTS: u32 = 1 << 20;

/// Request id reserved for connection-level error frames: protocol
/// errors answer bytes that belong to no particular request.
/// Client-chosen ids start at 1.
pub const CONNECTION_REQ_ID: u64 = 0;

const MSG_REQUEST: u8 = 1;
const MSG_RESPONSE: u8 = 2;
const MSG_ERROR: u8 = 3;
const MSG_HEALTH: u8 = 4;
const MSG_HEALTH_REPORT: u8 = 5;

/// Request flags: bit 0 opts the request into health-aware
/// failover to a healthy peer shard when its own shard is `Down`.
const FLAG_ALLOW_FAILOVER: u8 = 1;

/// Why bytes could not be decoded as a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload does not start with the protocol magic.
    BadMagic(u16),
    /// The peer speaks a protocol version this build does not — the
    /// typed version-skew error.
    UnsupportedVersion(u8),
    /// The header's message type is unknown.
    UnknownMessage(u8),
    /// The frame ended before its declared contents: `expected` bytes
    /// were needed, only `have` were present.
    Truncated {
        /// Bytes the declared contents required.
        expected: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The length prefix exceeds the frame-size bound.
    FrameTooLarge(u32),
    /// The payload parsed but violates the message grammar (bad
    /// priority byte, state mask with non-qubit bits, non-UTF-8 error
    /// text, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic(got) => write!(f, "bad frame magic {got:#06x} (expected {MAGIC:#06x})"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported wire protocol version {v} (this build speaks {WIRE_VERSION})")
            }
            Self::UnknownMessage(t) => write!(f, "unknown wire message type {t}"),
            Self::Truncated { expected, have } => {
                write!(f, "truncated frame: needs {expected} bytes, only {have} present")
            }
            Self::FrameTooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound")
            }
            Self::Malformed(msg) => write!(f, "malformed wire message: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Client → server: classify these shots on a device's shard.
    Request {
        /// Client-chosen id (≥ 1) echoed by the matching response.
        req_id: u64,
        /// Device shard the request routes to.
        device: u16,
        /// Scheduling lane (see [`Priority`]).
        priority: Priority,
        /// Tenant the request bills to (index into the server's
        /// [`SchedPolicy`](crate::sched::SchedPolicy) tenant table);
        /// `0` is the default tenant.
        tenant: u32,
        /// Relative deadline in microseconds from server receipt; `0`
        /// means no deadline.
        deadline_us: u64,
        /// Whether the request may fail over to a healthy peer shard
        /// when its own shard is `Down` (flags bit 0).
        allow_failover: bool,
        /// The shots to classify, decoded straight into one flat block
        /// (the wire carries traces only, no labels).
        shots: ShotBlock,
    },
    /// Client → server: report the fleet's per-shard health.
    Health {
        /// Client-chosen id (≥ 1) echoed by the matching report.
        req_id: u64,
    },
    /// Server → client: one [`ShardHealthReport`] per device shard, in
    /// device order.
    HealthReport {
        /// The health query this answers.
        req_id: u64,
        /// Per-shard health, restart and down counts.
        shards: Vec<ShardHealthReport>,
    },
    /// Server → client: one five-qubit state row per requested shot.
    Response {
        /// The request this answers.
        req_id: u64,
        /// Per-shot states, in request order.
        states: Vec<ShotStates>,
    },
    /// Server → client: a request failed with a serve-layer error, or —
    /// with `req_id` [`CONNECTION_REQ_ID`] — the connection itself is
    /// being dropped for a protocol violation.
    Error {
        /// The request this answers, or [`CONNECTION_REQ_ID`].
        req_id: u64,
        /// What went wrong.
        error: ServeError,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn header(msg_type: u8, req_id: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(msg_type);
    out.extend_from_slice(&req_id.to_le_bytes());
}

/// Appends `vals` as IEEE-754 little-endian bytes in one pre-sized
/// write. Per-sample `extend_from_slice` pays a capacity check per
/// float, which dominates encoding at millions of samples per request;
/// sizing once lets the chunk loop compile down to a straight copy.
fn push_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    let start = out.len();
    out.resize(start + vals.len() * 4, 0);
    for (chunk, v) in out[start..].chunks_exact_mut(4).zip(vals) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bytes a request for `shots` occupies on the wire (payload only).
fn request_wire_size(shots: &[Shot]) -> usize {
    37 + shots.len() * 2
        + shots.iter().map(|s| s.traces.len()).sum::<usize>() * 8
        + shots
            .iter()
            .flat_map(|s| s.traces.iter())
            .map(|t| t.i.len() + t.q.len())
            .sum::<usize>()
            * 4
}

#[allow(clippy::too_many_arguments)]
fn encode_request_body(
    out: &mut Vec<u8>,
    req_id: u64,
    device: u16,
    priority: Priority,
    tenant: u32,
    deadline_us: u64,
    allow_failover: bool,
    shots: &[Shot],
) {
    header(MSG_REQUEST, req_id, out);
    out.extend_from_slice(&device.to_le_bytes());
    out.push(match priority {
        Priority::Throughput => 0,
        Priority::Latency => 1,
    });
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&deadline_us.to_le_bytes());
    out.push(if allow_failover { FLAG_ALLOW_FAILOVER } else { 0 });
    out.extend_from_slice(&(shots.len() as u32).to_le_bytes());
    for shot in shots {
        out.extend_from_slice(&(shot.traces.len() as u16).to_le_bytes());
        for trace in &shot.traces {
            // Separate counts per channel: a ragged trace must survive
            // the trip and be rejected typed at intake, not corrupt the
            // frame.
            out.extend_from_slice(&(trace.i.len() as u32).to_le_bytes());
            push_f32s(out, &trace.i);
            out.extend_from_slice(&(trace.q.len() as u32).to_le_bytes());
            push_f32s(out, &trace.q);
        }
    }
}

/// Encodes a classification request payload: the tenant the request
/// bills to, its relative deadline in microseconds (`0` = none), and
/// the failover opt-in flag ride with the shots.
pub fn encode_request_opts(
    req_id: u64,
    device: u16,
    priority: Priority,
    tenant: u32,
    deadline_us: u64,
    allow_failover: bool,
    shots: &[Shot],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(request_wire_size(shots));
    encode_request_body(
        &mut out,
        req_id,
        device,
        priority,
        tenant,
        deadline_us,
        allow_failover,
        shots,
    );
    out
}

/// Encodes a classification request as one finished *frame* — length
/// prefix and payload in a single buffer — so the submit path never
/// copies the payload a second time just to frame it (at ~70 KB per
/// bulk request that memcpy was a measurable slice of the wire budget).
/// `out` is cleared and reused: a pipelining client encodes thousands
/// of requests into one scratch buffer instead of allocating each.
///
/// # Errors
///
/// [`ServeError::InvalidRequest`] (leaving `out` empty) for a request
/// the peer's decoder would reject — more than [`MAX_REQUEST_SHOTS`]
/// shots, or a shot of more than `u16::MAX` traces, whose count would
/// wrap in its `u16` field — and for a payload over [`MAX_FRAME`],
/// whose `usize` length would wrap in the `u32` prefix for ≥ 4 GiB.
/// Refusing here keeps one bad request from costing the whole
/// connection: the server answers undecodable bytes with a
/// connection-level error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_request_frame_into(
    out: &mut Vec<u8>,
    req_id: u64,
    device: u16,
    priority: Priority,
    tenant: u32,
    deadline_us: u64,
    allow_failover: bool,
    shots: &[Shot],
) -> Result<(), ServeError> {
    out.clear();
    if shots.len() > MAX_REQUEST_SHOTS as usize {
        return Err(ServeError::InvalidRequest(format!(
            "request of {} shots exceeds the {MAX_REQUEST_SHOTS}-shot limit",
            shots.len()
        )));
    }
    if let Some((idx, shot)) =
        shots.iter().enumerate().find(|(_, s)| s.traces.len() > usize::from(u16::MAX))
    {
        return Err(ServeError::InvalidRequest(format!(
            "shot {idx} carries {} traces (limit {})",
            shot.traces.len(),
            u16::MAX
        )));
    }
    out.reserve(4 + request_wire_size(shots));
    out.extend_from_slice(&[0u8; 4]);
    encode_request_body(
        out,
        req_id,
        device,
        priority,
        tenant,
        deadline_us,
        allow_failover,
        shots,
    );
    let len = out.len() - 4;
    if len > MAX_FRAME as usize {
        out.clear();
        return Err(ServeError::InvalidRequest(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Encodes a response payload: one five-qubit state mask per shot.
pub fn encode_response(req_id: u64, states: &[ShotStates]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + states.len());
    header(MSG_RESPONSE, req_id, &mut out);
    out.extend_from_slice(&(states.len() as u32).to_le_bytes());
    for row in states {
        let mut mask = 0u8;
        for (qb, &state) in row.iter().enumerate() {
            mask |= (state as u8) << qb;
        }
        out.push(mask);
    }
    out
}

/// Encodes an error payload from a serve-layer error. Kind 2
/// (`Overloaded`) carries its retry-after hint as a trailing `u64` in
/// µs (`0` = no hint); kind 8 (`UnknownTenant`) carries the offending
/// tenant id as a trailing `u32`.
pub fn encode_error(req_id: u64, error: &ServeError) -> Vec<u8> {
    let (kind, msg): (u8, &str) = match error {
        ServeError::Closed => (0, ""),
        ServeError::InvalidRequest(msg) => (1, msg),
        ServeError::Overloaded { .. } => (2, ""),
        ServeError::Protocol(msg) => (3, msg),
        // A server never *originates* a timeout frame (the variant is
        // produced client-side), but the codec stays total so every
        // `ServeError` value survives a round trip.
        ServeError::Timeout => (4, ""),
        ServeError::Disconnected => (5, ""),
        ServeError::Draining => (6, ""),
        ServeError::DeadlineExceeded => (7, ""),
        ServeError::UnknownTenant(_) => (8, ""),
        ServeError::Poisoned => (9, ""),
        ServeError::ShardDown => (10, ""),
    };
    let mut out = Vec::with_capacity(29 + msg.len());
    header(MSG_ERROR, req_id, &mut out);
    out.push(kind);
    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    out.extend_from_slice(msg.as_bytes());
    match error {
        ServeError::Overloaded { retry_after } => {
            let us = retry_after.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
            out.extend_from_slice(&us.to_le_bytes());
        }
        ServeError::UnknownTenant(id) => out.extend_from_slice(&id.to_le_bytes()),
        _ => {}
    }
    out
}

/// Encodes a fleet health query (header-only).
pub fn encode_health(req_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    header(MSG_HEALTH, req_id, &mut out);
    out
}

/// Encodes a fleet health report: per shard, its health code plus
/// lifetime restart and down counts.
pub fn encode_health_report(req_id: u64, shards: &[ShardHealthReport]) -> Vec<u8> {
    let mut out = Vec::with_capacity(14 + shards.len() * 17);
    header(MSG_HEALTH_REPORT, req_id, &mut out);
    out.extend_from_slice(&(shards.len() as u16).to_le_bytes());
    for shard in shards {
        out.push(shard.health.to_wire());
        out.extend_from_slice(&shard.restarts.to_le_bytes());
        out.extend_from_slice(&shard.downs.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked reader over a frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Checks that `count` items of at least `min_bytes` each can still
    /// be backed by the remaining bytes — BEFORE allocating `count`
    /// slots, so a hostile count fails typed instead of allocating.
    fn check_backing(&self, count: usize, min_bytes: usize) -> Result<(), WireError> {
        let needed = count.saturating_mul(min_bytes);
        if needed > self.remaining() {
            return Err(WireError::Truncated {
                expected: self.pos + needed,
                have: self.bytes.len(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.bytes.len() - self.pos;
        if n > have {
            return Err(WireError::Truncated {
                expected: self.pos + n,
                have: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads exactly `N` bytes as a fixed-size array. `take` has already
    /// bounds-checked, so the conversion cannot fail in practice; the
    /// `map_err` keeps the decode path free of panicking conversions
    /// (no-panic-serve) instead of asserting the invariant.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::Malformed(format!("internal: take({N}) length invariant")))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads one channel: a `u32` sample count, then that many `f32`s,
    /// returned as their raw bytes. `take` bounds-checks the byte length
    /// against what is present, so a hostile count fails typed.
    fn samples(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        let len = n
            .checked_mul(4)
            .ok_or_else(|| WireError::Malformed("sample count overflows".to_string()))?;
        self.take(len)
    }
}

/// IEEE-754 little-endian sample bytes as `f32`s. Fixed-size chunks
/// give the conversion a compile-time width and the iterator an exact
/// length, so the block reserves once and the copy compiles to a
/// straight vector loop (`chunks_exact(4)` left the width to runtime
/// and decoded at under half the speed).
fn le_f32s(raw: &[u8]) -> impl Iterator<Item = f32> + '_ {
    raw.as_chunks::<4>().0.iter().map(|&c| f32::from_le_bytes(c))
}

/// Decodes one frame payload into a [`WireMessage`].
///
/// # Errors
///
/// Returns a typed [`WireError`] for any byte sequence that is not a
/// complete well-formed message; never panics, whatever the input.
pub fn decode_message(payload: &[u8]) -> Result<WireMessage, WireError> {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
    };
    let magic = cur.u16()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = cur.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let msg_type = cur.u8()?;
    let req_id = cur.u64()?;
    let message = match msg_type {
        MSG_REQUEST => {
            let device = cur.u16()?;
            let priority = match cur.u8()? {
                0 => Priority::Throughput,
                1 => Priority::Latency,
                other => {
                    return Err(WireError::Malformed(format!("unknown priority byte {other}")))
                }
            };
            let tenant = cur.u32()?;
            let deadline_us = cur.u64()?;
            let flags = cur.u8()?;
            if flags & !FLAG_ALLOW_FAILOVER != 0 {
                return Err(WireError::Malformed(format!("unknown request flags {flags:#04x}")));
            }
            let allow_failover = flags & FLAG_ALLOW_FAILOVER != 0;
            let n_shots = cur.u32()?;
            if n_shots > MAX_REQUEST_SHOTS {
                return Err(WireError::Malformed(format!(
                    "request declares {n_shots} shots (limit {MAX_REQUEST_SHOTS})"
                )));
            }
            let n_shots = n_shots as usize;
            // Every declared shot needs at least its trace-count field.
            cur.check_backing(n_shots, 2)?;
            // Capacity comes only from bytes present: a sample takes 4
            // of them and a trace at least 8, so no declared count can
            // reserve more than the frame backs. Traces are reserved for
            // one per qubit per shot; other shapes grow as they decode.
            let remaining = cur.remaining();
            let mut shots = ShotBlock::with_capacity(
                n_shots,
                n_shots.saturating_mul(NUM_QUBITS).min(remaining / 8),
                remaining / 4,
            );
            for _ in 0..n_shots {
                let n_traces = usize::from(cur.u16()?);
                // Every declared trace needs at least its two counts.
                cur.check_backing(n_traces, 8)?;
                shots.push_shot();
                for _ in 0..n_traces {
                    let i = cur.samples()?;
                    let q = cur.samples()?;
                    shots.push_trace(le_f32s(i), le_f32s(q));
                }
            }
            WireMessage::Request {
                req_id,
                device,
                priority,
                tenant,
                deadline_us,
                allow_failover,
                shots,
            }
        }
        MSG_RESPONSE => {
            let n_shots = cur.u32()? as usize;
            let masks = cur.take(n_shots)?;
            let states = masks
                .iter()
                .map(|&mask| {
                    if mask >= 1 << NUM_QUBITS {
                        return Err(WireError::Malformed(format!(
                            "state mask {mask:#04x} sets non-qubit bits"
                        )));
                    }
                    Ok(std::array::from_fn(|qb| mask & (1 << qb) != 0))
                })
                .collect::<Result<Vec<ShotStates>, _>>()?;
            WireMessage::Response { req_id, states }
        }
        MSG_ERROR => {
            let kind = cur.u8()?;
            let len = cur.u32()? as usize;
            let msg = String::from_utf8(cur.take(len)?.to_vec())
                .map_err(|_| WireError::Malformed("error text is not UTF-8".to_string()))?;
            let error = match kind {
                0 => ServeError::Closed,
                1 => ServeError::InvalidRequest(msg),
                2 => ServeError::Overloaded {
                    retry_after: match cur.u64()? {
                        0 => None,
                        us => Some(std::time::Duration::from_micros(us)),
                    },
                },
                3 => ServeError::Protocol(msg),
                4 => ServeError::Timeout,
                // Like `Timeout`, `Disconnected` is normally produced
                // client-side; the codec stays total regardless.
                5 => ServeError::Disconnected,
                6 => ServeError::Draining,
                7 => ServeError::DeadlineExceeded,
                8 => ServeError::UnknownTenant(cur.u32()?),
                9 => ServeError::Poisoned,
                10 => ServeError::ShardDown,
                other => {
                    return Err(WireError::Malformed(format!("unknown error kind {other}")))
                }
            };
            WireMessage::Error { req_id, error }
        }
        MSG_HEALTH => WireMessage::Health { req_id },
        MSG_HEALTH_REPORT => {
            let n_shards = cur.u16()? as usize;
            // Every declared shard needs its full 17-byte record.
            cur.check_backing(n_shards, 17)?;
            let mut shards = Vec::with_capacity(n_shards);
            for _ in 0..n_shards {
                let code = cur.u8()?;
                let health = ShardHealth::from_wire(code).ok_or_else(|| {
                    WireError::Malformed(format!("unknown shard health code {code}"))
                })?;
                let restarts = cur.u64()?;
                let downs = cur.u64()?;
                shards.push(ShardHealthReport {
                    health,
                    restarts,
                    downs,
                });
            }
            WireMessage::HealthReport { req_id, shards }
        }
        other => return Err(WireError::UnknownMessage(other)),
    };
    if cur.pos != payload.len() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after the message",
            payload.len() - cur.pos
        )));
    }
    Ok(message)
}

// ---------------------------------------------------------------------
// Framing over a byte stream
// ---------------------------------------------------------------------

/// Builds one length-prefixed frame (prefix + payload, contiguous).
///
/// The reactor appends this to a connection's write buffer; blocking
/// paths hand it straight to `write_all`. Keeping prefix and payload in
/// a single buffer matters there: a separate prefix write puts
/// every exchange into the classic write-write-read pattern, where
/// Nagle holds the payload until the peer's delayed ACK (~40 ms)
/// acknowledges the prefix segment — observed as a ~7 K shots/s wire
/// ceiling before this was fused.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------
// Incremental reassembly
// ---------------------------------------------------------------------

/// Reassembles length-prefixed frames from a non-blocking byte stream.
///
/// Readers land whatever bytes a read delivers in the assembler with
/// [`read_from`](Self::read_from); complete frames come back out of
/// [`next_frame_ref`](Self::next_frame_ref) one at a time, however the
/// bytes were fragmented in transit. The oversized-length
/// check runs as soon as a prefix is visible, so a hostile peer cannot
/// grow the buffer toward a 256 MiB frame before being refused.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Backing storage. Its `len()` is the *initialized* high-water
    /// mark, not the data length — [`read_from`](Self::read_from) hands
    /// `r` pre-zeroed spare room and bumps `filled`, so steady-state
    /// reads never pay a fresh `resize` memset per chunk.
    buf: Vec<u8>,
    /// Bytes of `buf` holding received data ([`consumed`](field@Self::consumed)`..filled`
    /// is what frames are extracted from).
    filled: usize,
    /// Bytes before this offset were already returned as frames; they
    /// are compacted away lazily so per-frame extraction never memmoves
    /// the whole buffer.
    consumed: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compacts consumed bytes away before the buffer grows: wholesale
    /// when everything was consumed, by memmove once the dead prefix
    /// outweighs a page — so steady-state extraction never shifts the
    /// whole buffer per frame.
    fn compact(&mut self) {
        if self.consumed == self.filled {
            self.filled = 0;
            self.consumed = 0;
        } else if self.consumed > 4096 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
    }

    /// Makes sure `extra` initialized bytes exist past `filled`.
    fn reserve_filled(&mut self, extra: usize) {
        if self.buf.len() < self.filled + extra {
            self.buf.resize(self.filled + extra, 0);
        }
    }

    /// Reads up to `max` bytes from `r` straight into the reassembly
    /// buffer — the read path lands bytes where the frames are
    /// extracted from, with no intermediate chunk buffer to copy
    /// through.
    ///
    /// # Errors
    ///
    /// Propagates `r`'s error verbatim (the buffer is unchanged then).
    pub fn read_from<R: Read>(&mut self, r: &mut R, max: usize) -> io::Result<usize> {
        self.compact();
        self.reserve_filled(max);
        let result = r.read(&mut self.buf[self.filled..self.filled + max]);
        if let Ok(n) = &result {
            self.filled += n;
        }
        result
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending(&self) -> usize {
        self.filled - self.consumed
    }

    /// Extracts the next complete frame payload as a borrow of the
    /// internal buffer, `Ok(None)` if more bytes are needed. The reactor
    /// decodes straight from this slice, so bulk request payloads are
    /// never copied out of the reassembly buffer first.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] when a visible length prefix exceeds
    /// the frame bound — the stream is poisoned and the connection must
    /// be dropped.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = &self.buf[self.consumed..self.filled];
        if avail.len() < 4 {
            return Ok(None);
        }
        let Ok(len_bytes) = <[u8; 4]>::try_from(&avail[..4]) else {
            // `avail.len() >= 4` was checked above; keep the reassembly
            // path typed rather than panicking on the invariant.
            return Err(WireError::Malformed("internal: frame-length slice".into()));
        };
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME {
            return Err(WireError::FrameTooLarge(len));
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let start = self.consumed + 4;
        self.consumed = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }
}
