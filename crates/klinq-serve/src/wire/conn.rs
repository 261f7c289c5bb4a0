//! Per-connection transport state for the reactor.
//!
//! A [`Conn`] owns one non-blocking [`TcpStream`] plus the two buffers
//! that make readiness-driven I/O work: a [`FrameAssembler`] collecting
//! whatever bytes each readable event delivers, and an outbound byte
//! buffer holding serialized response frames until the socket accepts
//! them. The reactor never blocks on a connection — every read and
//! write here returns at `WouldBlock` — so one loop can multiplex
//! thousands of these.

use crate::chaos::Chaos;
use crate::wire::codec::{FrameAssembler, WireError};
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-read-call chunk (bounds how far the reassembly buffer grows past
/// the bytes actually received).
const READ_CHUNK: usize = 64 * 1024;

/// Per-event read budget. A latency request's frame drains in one
/// readable event; a 256-shot bulk frame of 150-sample traces (five
/// qubits, I and Q, 4-byte samples: ~1.5 MB) takes about six.
/// Level-triggered readiness re-reports leftover bytes on the next
/// wait, so the bound keeps one fire-hose peer from starving every
/// other connection without losing data.
const READ_BUDGET: usize = 256 * 1024;

/// What a readable event produced.
pub(crate) enum ReadOutcome {
    /// Bytes (possibly zero, on a spurious wakeup) were buffered; pull
    /// frames out with [`Conn::next_frame`].
    Progress,
    /// The peer closed its write side. Frames already buffered are
    /// still valid; in-flight requests still get answered.
    Eof,
    /// The transport failed — the connection is dead.
    Err,
}

/// One live wire connection: non-blocking stream + reassembly and
/// serialization buffers + lifecycle flags the reactor drives.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Serialized outbound frames awaiting socket capacity.
    out: Vec<u8>,
    /// Bytes of `out` already written; compacted when it catches up.
    out_pos: usize,
    /// Requests submitted to the fleet but not yet answered. The
    /// connection is kept alive — even past peer EOF or shutdown —
    /// until this reaches zero, so no accepted request is ever dropped.
    pub(crate) in_flight: usize,
    /// When bytes last moved in either direction (idle reaping).
    pub(crate) last_activity: Instant,
    /// The peer closed its write side; stop reading, finish answering.
    pub(crate) peer_eof: bool,
    /// Hang up once the outbound buffer drains and nothing is in
    /// flight: set after a protocol violation (the error frame is the
    /// last thing the peer sees) and at server shutdown.
    pub(crate) closing: bool,
    /// The transport failed; drop the connection without flushing.
    pub(crate) dead: bool,
    /// The `(readable, writable)` interest currently installed in the
    /// epoll set, `None` when the fd is not registered. Owned by the
    /// reactor's interest-sync step.
    pub(crate) reg: Option<(bool, bool)>,
    /// Per-connection fault injection (see [`crate::chaos`]): stalls and
    /// shrinks this connection's reads and writes. `None` in production.
    pub(crate) chaos: Option<Chaos>,
}

impl Conn {
    /// Adopts an accepted stream: non-blocking (the reactor must never
    /// park on one peer) and no-delay (responses are single small
    /// frames; waiting on the peer's delayed ACK would add ~40 ms).
    pub(crate) fn new(stream: TcpStream, now: Instant) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            assembler: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            in_flight: 0,
            last_activity: now,
            peer_eof: false,
            closing: false,
            dead: false,
            reg: None,
            chaos: None,
        })
    }

    /// The underlying stream (for fd registration).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads one bounded chunk into the assembler. Call on a readable
    /// event; level-triggered readiness re-reports any leftover bytes.
    pub(crate) fn read_ready(&mut self, now: Instant) -> ReadOutcome {
        if self.peer_eof || self.dead {
            return ReadOutcome::Progress;
        }
        // Fault injection: a stalled read skips the event (re-fired by
        // level-triggered readiness / the next sweep), a shrunk budget
        // cuts the event short mid-frame.
        let mut budget = READ_BUDGET;
        if let Some(chaos) = &mut self.chaos {
            if chaos.stall_read() {
                return ReadOutcome::Progress;
            }
            budget = chaos.read_budget(READ_BUDGET);
        }
        // Bytes land straight in the assembler's buffer — no chunk
        // buffer on the stack to copy through.
        let mut total = 0;
        while total < budget {
            let mut want = READ_CHUNK.min(budget - total);
            if let Some(chaos) = &mut self.chaos {
                want = chaos.clamp_read(want);
            }
            match self.assembler.read_from(&mut self.stream, want) {
                Ok(0) => {
                    self.peer_eof = true;
                    if total > 0 {
                        self.last_activity = now;
                    }
                    return ReadOutcome::Eof;
                }
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return ReadOutcome::Err;
                }
            }
        }
        if total > 0 {
            self.last_activity = now;
        }
        ReadOutcome::Progress
    }

    /// Extracts the next complete inbound frame payload, if any,
    /// borrowed from the reassembly buffer (never copied out).
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] — the stream is poisoned; the
    /// reactor answers with a connection-level error and closes.
    pub(crate) fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        // A closing connection's leftover bytes are not requests.
        if self.closing {
            return Ok(None);
        }
        self.assembler.next_frame_ref()
    }

    /// Queues one outbound frame (length prefix + payload) for writing.
    pub(crate) fn queue_payload(&mut self, payload: &[u8]) {
        // Compact lazily: only once the written prefix outweighs what
        // is still pending, so steady-state writes never memmove much.
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 4096 && self.out_pos >= self.out.len() / 2 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        // Frame in place: prefix then payload, no intermediate buffer.
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(payload);
    }

    /// Writes as much of the outbound buffer as the socket accepts.
    pub(crate) fn flush(&mut self, now: Instant) {
        // Fault injection: a stalled write skips this flush opportunity
        // (`EPOLLOUT` interest / the next sweep retries it).
        if let Some(chaos) = &mut self.chaos {
            if self.out_pos < self.out.len() && chaos.stall_write() {
                return;
            }
        }
        while self.out_pos < self.out.len() {
            let mut cap = self.out.len() - self.out_pos;
            if let Some(chaos) = &mut self.chaos {
                cap = chaos.clamp_write(cap);
            }
            match self.stream.write(&self.out[self.out_pos..self.out_pos + cap]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Whether outbound bytes are waiting on socket capacity (drives
    /// `EPOLLOUT` interest).
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether the reactor should drop this connection now: transport
    /// dead, or wound down (closing/peer-EOF) with every in-flight
    /// request answered and every response byte flushed.
    pub(crate) fn should_close(&self) -> bool {
        self.dead
            || ((self.closing || self.peer_eof) && self.in_flight == 0 && !self.wants_write())
    }

    /// Whether a draining server is done with this connection: nothing
    /// in the fleet, every response byte flushed, and no buffered
    /// inbound bytes that might still become a frame needing a
    /// [`ServeError::Draining`](crate::ServeError::Draining) answer.
    pub(crate) fn drained(&self) -> bool {
        self.in_flight == 0 && !self.wants_write() && self.assembler.pending() == 0
    }

    /// Whether the connection has been completely quiet — no traffic,
    /// nothing in flight, nothing buffered — for longer than `timeout`.
    pub(crate) fn is_idle(&self, now: Instant, timeout: Duration) -> bool {
        self.in_flight == 0
            && !self.wants_write()
            && self.assembler.pending() == 0
            && now.duration_since(self.last_activity) >= timeout
    }
}
