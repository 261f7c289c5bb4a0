//! The wire protocol: out-of-process clients over plain TCP.
//!
//! PR 3's server is in-process only — clients are threads holding a
//! channel handle. A readout *service* needs clients that live in other
//! processes (control-stack software, calibration daemons, other
//! hosts), so this module speaks a small length-prefixed binary
//! protocol over [`std::net::TcpStream`] — std threads only, no async
//! runtime.
//!
//! The module splits along the serving stack's layers:
//!
//! - [`codec`]: the protocol grammar — framing, encoding, panic-free
//!   bounds-checked decoding, incremental [`FrameAssembler`] reassembly.
//! - `conn` (private): per-connection non-blocking buffers and
//!   lifecycle state.
//! - [`reactor`]: the epoll event loop serving thousands of connections
//!   from one thread ([`WireServer`], [`WireConfig`]). Linux only: the
//!   server is not compiled elsewhere, while the client and the codec
//!   are plain std.
//! - this module: the [`WireClient`], with one blocking call
//!   ([`WireClient::classify_shots_opts`]) and a pipelined
//!   submit/receive pair.
//!
//! The [`WireServer`] submits each decoded request through an ordinary
//! in-process [`ReadoutClient`](crate::ReadoutClient) bound to the
//! request's device shard, so **wire requests take exactly the
//! in-process coalescing path**: responses are bitwise-identical to a
//! local `classify_shots_opts` call, and wire traffic coalesces into the
//! same micro-batches as in-process traffic. I/Q samples travel as
//! IEEE-754 little-endian bits, so no value is ever re-quantized in
//! transit.
//!
//! # Pipelining
//!
//! Every frame carries a request id, so one connection can hold many
//! requests in flight and the server answers in whatever order the
//! micro-batches complete. [`WireClient::submit_opts`] sends without
//! waiting; [`WireClient::recv_response`] returns the next completed
//! `(request id, result)` pair, whichever request it belongs to.
//! [`WireClient::classify_shots_opts`] submits one request and waits
//! for its id.
//!
//! # Surviving disconnects
//!
//! A transport failure — the peer hung up mid-frame, a write hit a dead
//! socket — never panics and never silently hangs: every request in
//! flight surfaces as a typed [`ServeError::Disconnected`] through
//! [`WireClient::recv_response`], and the client reconnects to the
//! remembered address with exponential backoff plus deterministic
//! jitter ([`ReconnectPolicy`]) on the next send. Because
//! classification is pure — equal shots give bitwise-equal states, on
//! either model version, with no server-side state keyed to the request
//! — resubmitting a disconnected request is idempotent, so the blocking
//! [`WireClient::classify_shots_opts`] retries it automatically **under
//! the same request id**. Pipelining callers driving
//! [`WireClient::submit_opts`] / [`WireClient::recv_response`] directly
//! decide for themselves which `Disconnected` results to resubmit. A
//! server that answers [`ServeError::Draining`] is *refusing* work, not
//! losing it, so nothing auto-retries against it.

pub mod codec;
#[cfg(target_os = "linux")]
mod conn;
#[cfg(target_os = "linux")]
pub mod reactor;

pub use codec::{
    decode_message, encode_error, encode_response, FrameAssembler, WireError, WireMessage,
    CONNECTION_REQ_ID, MAX_REQUEST_SHOTS,
};
#[cfg(target_os = "linux")]
pub use reactor::{WireConfig, WireServer};

use crate::sched::RequestOptions;
use crate::server::ServeError;
use crate::supervise::ShardHealthReport;
use klinq_core::ShotStates;
use klinq_sim::Shot;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How a [`WireClient`] re-establishes a failed connection: up to
/// [`max_attempts`](Self::max_attempts) connect attempts, sleeping an
/// exponentially growing, jittered delay between failures
/// (`base_delay`, doubling, capped at `max_delay`; each sleep is
/// half fixed, half drawn from a deterministic jitter stream so a
/// thundering herd of clients spreads out instead of reconnecting in
/// lockstep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Connect attempts per reconnect cycle before giving up with
    /// [`ServeError::Disconnected`]. Also bounds how many times a
    /// blocking [`WireClient::classify_shots_opts`] call resubmits one
    /// request.
    pub max_attempts: u32,
    /// Sleep after the first failed attempt; doubles per failure.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seeds the jitter stream. Fixed by default so test runs
    /// reproduce; fleets that want decorrelated clients seed per
    /// client (e.g. from the process id).
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    /// 8 attempts, 25 ms doubling to a 2 s ceiling — a restart-speed
    /// outage (a model rollout bouncing the server) is ridden out, a
    /// genuinely dead server fails in seconds, not minutes.
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x8A5C_D789_635D_2DFF,
        }
    }
}

/// One xorshift64 draw (enough for backoff jitter; never zero-state).
fn jitter_next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A wire client bound to one device shard at connect time — the same
/// blocking call as the in-process
/// [`ReadoutClient`](crate::ReadoutClient)
/// ([`classify_shots_opts`](Self::classify_shots_opts), returning the
/// same [`ServeError`]s), plus the pipelined
/// [`submit_opts`](Self::submit_opts) /
/// [`recv_response`](Self::recv_response) pair for keeping many
/// requests in flight on one connection.
///
/// Methods take `&mut self`: one thread drives a connection. For
/// concurrent request *streams*, either pipeline on one client or open
/// one client per thread.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    device: u16,
    /// Where to reconnect after a transport failure (the peer address
    /// remembered at connect time; `None` disables reconnection).
    addr: Option<SocketAddr>,
    /// Backoff policy for reconnects; `None` disables reconnection.
    reconnect: Option<ReconnectPolicy>,
    /// Jitter stream state (seeded from the policy).
    jitter: u64,
    /// The transport failed; the next send must reconnect first.
    broken: bool,
    /// Remembered so a reconnected stream keeps the caller's deadline.
    read_timeout: Option<Duration>,
    next_req_id: u64,
    /// In-flight request ids → their shot counts (for reply-length
    /// validation).
    pending: HashMap<u64, usize>,
    /// Completions read from the socket while waiting for a different
    /// request id, delivered by later `recv_response` calls.
    ready: VecDeque<(u64, Result<Vec<ShotStates>, ServeError>)>,
    /// Health queries in flight (ids sent, reports not yet received).
    pending_health: Vec<u64>,
    /// Health reports read from the socket while waiting on something
    /// else, delivered by the `fleet_health` call that asked.
    health_ready: Vec<(u64, Vec<ShardHealthReport>)>,
    /// Inbound frame reassembly. Receives are buffered through this so
    /// one read syscall can drain a whole burst of pipelined responses
    /// (they are ~20 bytes each) instead of paying two syscalls per
    /// frame.
    rx: FrameAssembler,
    /// Outbound scratch buffer: every submit encodes its frame in here
    /// (cleared, capacity kept), so a pipelining client does not
    /// allocate ~70 KB per bulk request.
    tx: Vec<u8>,
}

/// How much a client receive asks the socket for at once — sized to
/// swallow a burst of completed pipelined responses in one syscall.
const RECV_CHUNK: usize = 16 * 1024;

impl WireClient {
    /// Connects to a [`WireServer`] and binds this handle to `device`'s
    /// shard (the routing decision, made once at intake).
    ///
    /// # Errors
    ///
    /// Propagates the TCP connect error.
    pub fn connect(addr: impl ToSocketAddrs, device: u16) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, device)
    }

    /// Like [`Self::connect`], but gives up with
    /// [`io::ErrorKind::TimedOut`] if the server does not accept within
    /// `timeout` — a dead or unroutable server fails the connect in
    /// bounded time instead of hanging for the OS default (minutes).
    ///
    /// # Errors
    ///
    /// Propagates the TCP connect error, including the timeout.
    pub fn connect_timeout(addr: &SocketAddr, device: u16, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Self::from_stream(stream, device)
    }

    fn from_stream(stream: TcpStream, device: u16) -> io::Result<Self> {
        // Request frames should go out immediately: latency matters
        // more than segment packing.
        stream.set_nodelay(true)?;
        let policy = ReconnectPolicy::default();
        Ok(Self {
            addr: stream.peer_addr().ok(),
            stream,
            device,
            reconnect: Some(policy),
            jitter: policy.jitter_seed,
            broken: false,
            read_timeout: None,
            // Id 0 is CONNECTION_REQ_ID — reserved for connection-level
            // errors — so client ids count from 1.
            next_req_id: 1,
            pending: HashMap::new(),
            ready: VecDeque::new(),
            pending_health: Vec::new(),
            health_ready: Vec::new(),
            rx: FrameAssembler::new(),
            tx: Vec::new(),
        })
    }

    /// Overrides the reconnect behavior (see [`ReconnectPolicy`];
    /// enabled with defaults on every new client). `None` disables
    /// reconnection entirely: transport failures still surface each
    /// in-flight request as [`ServeError::Disconnected`], but nothing
    /// retries and the client is done for.
    pub fn set_reconnect(&mut self, policy: Option<ReconnectPolicy>) {
        self.jitter = policy.map_or(0, |p| p.jitter_seed);
        self.reconnect = policy;
    }

    /// Bounds every receive: once set, a wait in
    /// [`recv_response`](Self::recv_response) (or the blocking
    /// [`classify_shots_opts`](Self::classify_shots_opts)) fails with
    /// [`ServeError::Timeout`] instead of hanging forever on a server
    /// that accepted but never replies.
    ///
    /// A timeout that expires mid-frame poisons the connection; the
    /// client notices and reconnects on the next send (see
    /// [`ReconnectPolicy`]), so callers just keep calling.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option error. A zero duration is rejected
    /// by the OS; use `None` to wait forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        // Remembered so a reconnected stream keeps the same deadline.
        self.read_timeout = timeout;
        Ok(())
    }

    /// Marks the transport dead: every in-flight request is delivered
    /// as a typed [`ServeError::Disconnected`] through the ready queue
    /// (a disconnect loses the *connection*, never a caller's wait),
    /// and the reassembly buffer is discarded (its partial frame died
    /// with the stream).
    fn fail_connection(&mut self) {
        self.broken = true;
        self.rx = FrameAssembler::new();
        for (req_id, _) in self.pending.drain() {
            self.ready.push_back((req_id, Err(ServeError::Disconnected)));
        }
        // Health queries die with the stream — their waiters observe
        // the disconnect as an outer error, not a queued result.
        self.pending_health.clear();
    }

    /// Re-establishes a broken transport under the backoff policy.
    /// No-op on a healthy connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] once the policy's attempts are
    /// exhausted (or immediately when reconnection is disabled or the
    /// peer address is unknown).
    fn ensure_connected(&mut self) -> Result<(), ServeError> {
        if !self.broken {
            return Ok(());
        }
        let (Some(addr), Some(policy)) = (self.addr, self.reconnect) else {
            return Err(ServeError::Disconnected);
        };
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff_delay(&policy, attempt - 1));
            }
            let Ok(stream) = TcpStream::connect(addr) else {
                continue;
            };
            if stream.set_nodelay(true).is_err()
                || stream.set_read_timeout(self.read_timeout).is_err()
            {
                continue;
            }
            self.stream = stream;
            self.rx = FrameAssembler::new();
            self.broken = false;
            return Ok(());
        }
        Err(ServeError::Disconnected)
    }

    /// The sleep before retry `attempt + 1`: exponential from
    /// `base_delay` capped at `max_delay`, half fixed and half jitter.
    fn backoff_delay(&mut self, policy: &ReconnectPolicy, attempt: u32) -> Duration {
        let cap = policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(policy.max_delay);
        let half = cap / 2;
        let jitter_nanos = half.as_nanos().min(u128::from(u64::MAX)) as u64;
        let jitter = if jitter_nanos == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(jitter_next(&mut self.jitter) % (jitter_nanos + 1))
        };
        half + jitter
    }

    /// Requests in flight: submitted, not yet returned by
    /// [`recv_response`](Self::recv_response).
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    /// Submits a classification request with per-request
    /// [`RequestOptions`] (priority, tenant, deadline, failover) to the
    /// device bound at connect time, without waiting for the result;
    /// returns the request id to match against
    /// [`recv_response`](Self::recv_response). Many submits may be in
    /// flight at once — that is the point. An unknown tenant id is
    /// answered by the *server* with a typed per-request
    /// [`ServeError::UnknownTenant`] error frame through
    /// [`recv_response`](Self::recv_response) — the connection stays up
    /// and every other in-flight request completes normally.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the transport failed (after
    /// exhausting the [`ReconnectPolicy`], when one is set), or
    /// [`ServeError::InvalidRequest`] for a request the server's decoder
    /// would reject — over the frame-size bound, over
    /// [`MAX_REQUEST_SHOTS`], or with a shot of more than `u16::MAX`
    /// traces (refused before any byte is sent, so the requests already
    /// in flight are untouched).
    pub fn submit_opts(&mut self, opts: RequestOptions, shots: &[Shot]) -> Result<u64, ServeError> {
        let req_id = self.next_req_id;
        self.send_request(req_id, opts, shots)?;
        self.next_req_id += 1;
        Ok(req_id)
    }

    /// A deadline on the wire: relative microseconds, `0` = none. A
    /// sub-microsecond deadline rounds up to 1 µs so "some deadline"
    /// never silently becomes "no deadline" in transit.
    fn deadline_us(opts: RequestOptions) -> u64 {
        opts.deadline.map_or(0, |d| {
            u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1)
        })
    }

    /// Encodes and writes one request frame under `req_id`, tracking it
    /// as pending. Shared by fresh submits (a new id each) and the
    /// blocking call's idempotent resubmits (the *same* id again on a
    /// reconnected stream).
    fn send_request(
        &mut self,
        req_id: u64,
        opts: RequestOptions,
        shots: &[Shot],
    ) -> Result<(), ServeError> {
        self.ensure_connected()?;
        // Encoded straight into its frame, in the reused scratch
        // buffer: one buffer, one write, no second payload copy and no
        // per-request allocation on the submit path. A request the
        // server's decoder would reject is the request's own problem,
        // not the transport's — refused before any byte goes out.
        codec::encode_request_frame_into(
            &mut self.tx,
            req_id,
            self.device,
            opts.priority,
            opts.tenant.0,
            Self::deadline_us(opts),
            opts.allow_failover,
            shots,
        )?;
        for _ in 0..2 {
            if self.stream.write_all(&self.tx).is_ok() {
                self.pending.insert(req_id, shots.len());
                return Ok(());
            }
            // The write may have landed partially: the stream is
            // unusable and everything already in flight on it is lost
            // (delivered as `Disconnected` results). This request has
            // not been tracked yet, so after a reconnect the frame is
            // simply written again, whole.
            self.fail_connection();
            if self.ensure_connected().is_err() {
                break;
            }
        }
        Err(ServeError::Disconnected)
    }

    /// Waits for the next completed request — whichever of the in-flight
    /// ids finishes first — and returns `(request id, per-request
    /// result)`. Responses arriving out of submission order are normal:
    /// different priorities and batch closings reorder freely.
    ///
    /// The per-request result is `Ok(states)` (bitwise-identical to an
    /// in-process call) or the server's typed [`ServeError`] for that
    /// request (e.g. `InvalidRequest`, `Overloaded`) — those leave the
    /// connection usable. A transport failure (the peer hung up, even
    /// mid-frame) surfaces every in-flight request as a per-request
    /// [`ServeError::Disconnected`] result; resubmitting such a
    /// request is always safe (classification is pure), and the next
    /// send reconnects under the [`ReconnectPolicy`].
    ///
    /// # Errors
    ///
    /// The *outer* error means there is nothing to deliver:
    /// [`ServeError::Closed`] (nothing in flight to wait on),
    /// [`ServeError::Timeout`] (read deadline expired — see
    /// [`Self::set_read_timeout`]), or [`ServeError::Protocol`]
    /// (undecodable frame, unknown request id, short reply, or a
    /// connection-level error frame from the server — e.g.
    /// [`ServeError::Draining`] from a server shutting down, returned
    /// as the outer error itself).
    #[allow(clippy::type_complexity)]
    pub fn recv_response(
        &mut self,
    ) -> Result<(u64, Result<Vec<ShotStates>, ServeError>), ServeError> {
        if let Some(done) = self.ready.pop_front() {
            return Ok(done);
        }
        if self.pending.is_empty() {
            return Err(ServeError::Closed);
        }
        loop {
            match self.pump_one() {
                // The pumped frame may have been a health report for a
                // concurrent `fleet_health` wait — keep pumping until a
                // request completion lands.
                Ok(()) => {
                    if let Some(done) = self.ready.pop_front() {
                        return Ok(done);
                    }
                }
                Err(ServeError::Disconnected) => {
                    // The dead connection delivered every in-flight
                    // request into the ready queue as a per-request
                    // `Disconnected` result (`pending` was non-empty
                    // above, so the queue cannot come up empty here).
                    if let Some(done) = self.ready.pop_front() {
                        return Ok(done);
                    }
                    return Err(ServeError::Disconnected);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads exactly one frame from the stream and dispatches it:
    /// request completions (responses and per-request error frames)
    /// land in the ready queue, health reports in the health queue.
    ///
    /// # Errors
    ///
    /// The outer conditions under which nothing was dispatched:
    /// `Timeout` (read deadline expired), `Disconnected` (transport
    /// failed — in-flight requests were delivered into the ready queue
    /// as per-request results first), `Protocol` (undecodable frame or
    /// unknown id), or a connection-level error frame's own error.
    fn pump_one(&mut self) -> Result<(), ServeError> {
        // Extract a buffered frame; read (blocking, possibly under a
        // deadline) only when the reassembly buffer has no complete
        // frame — so a burst of small responses costs one syscall, not
        // two per frame.
        let message = loop {
            let decoded = match self.rx.next_frame_ref() {
                Ok(Some(payload)) => Some(decode_message(payload)),
                Ok(None) => None,
                Err(e) => return Err(ServeError::Protocol(e.to_string())),
            };
            if let Some(decoded) = decoded {
                break decoded;
            }
            match self.rx.read_from(&mut self.stream, RECV_CHUNK) {
                Ok(0) => {
                    // EOF — clean or mid-frame — is a disconnect: the
                    // in-flight requests are delivered as `Disconnected`
                    // results through the ready queue.
                    self.fail_connection();
                    return Err(ServeError::Disconnected);
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A blocking socket with a read deadline (SO_RCVTIMEO)
                // reports expiry as WouldBlock on unix, TimedOut on
                // windows.
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // A deadline that expired mid-frame poisons the
                    // stream — fail it so the next send reconnects.
                    // An expiry between frames leaves it usable.
                    if self.rx.pending() > 0 {
                        self.fail_connection();
                    }
                    return Err(ServeError::Timeout);
                }
                Err(_) => {
                    // Transport failure: same treatment as EOF.
                    self.fail_connection();
                    return Err(ServeError::Disconnected);
                }
            }
        };
        match message {
            Ok(WireMessage::Response { req_id, states }) => {
                let Some(expected) = self.pending.remove(&req_id) else {
                    return Err(ServeError::Protocol(format!(
                        "response for unknown request id {req_id}"
                    )));
                };
                // Same contract as the in-process client: a short reply
                // is a typed protocol error, never a panic.
                let result = if states.len() == expected {
                    Ok(states)
                } else {
                    Err(ServeError::Protocol(format!(
                        "reply carries {} shot states for a {expected}-shot request",
                        states.len()
                    )))
                };
                self.ready.push_back((req_id, result));
                Ok(())
            }
            Ok(WireMessage::Error { req_id, error }) => {
                if req_id == CONNECTION_REQ_ID {
                    // Connection-level: the server is hanging up on
                    // this whole connection, not failing one request.
                    // Anything still in flight is delivered as
                    // `Disconnected`; the next send reconnects.
                    self.fail_connection();
                    return Err(error);
                }
                if self.pending.remove(&req_id).is_none() {
                    return Err(ServeError::Protocol(format!(
                        "error frame for unknown request id {req_id}"
                    )));
                }
                self.ready.push_back((req_id, Err(error)));
                Ok(())
            }
            Ok(WireMessage::HealthReport { req_id, shards }) => {
                let Some(at) = self.pending_health.iter().position(|&id| id == req_id) else {
                    return Err(ServeError::Protocol(format!(
                        "health report for unknown request id {req_id}"
                    )));
                };
                self.pending_health.swap_remove(at);
                self.health_ready.push((req_id, shards));
                Ok(())
            }
            Ok(WireMessage::Request { .. } | WireMessage::Health { .. }) => Err(
                ServeError::Protocol("server sent a client-direction message".to_string()),
            ),
            Err(e) => Err(ServeError::Protocol(e.to_string())),
        }
    }

    /// Queries the fleet's per-shard health — one
    /// [`ShardHealthReport`] per device shard, in device order —
    /// blocking until the report arrives. The server answers from its
    /// shard monitors without a collector round trip, so health is
    /// visible even while shards are down or the server is draining.
    ///
    /// Request completions arriving while this waits are kept for later
    /// [`recv_response`](Self::recv_response) calls — a pipelining
    /// client can interleave health polls freely.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the transport fails (the query
    /// is not auto-retried), [`ServeError::Timeout`] when the read
    /// deadline expires, and [`ServeError::Protocol`] for undecodable
    /// replies.
    pub fn fleet_health(&mut self) -> Result<Vec<ShardHealthReport>, ServeError> {
        self.ensure_connected()?;
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let frame = codec::frame(&codec::encode_health(req_id));
        if self.stream.write_all(&frame).is_err() {
            self.fail_connection();
            self.ensure_connected()?;
            if self.stream.write_all(&frame).is_err() {
                self.fail_connection();
                return Err(ServeError::Disconnected);
            }
        }
        self.pending_health.push(req_id);
        loop {
            if let Some(at) = self.health_ready.iter().position(|(id, _)| *id == req_id) {
                return Ok(self.health_ready.swap_remove(at).1);
            }
            self.pump_one()?;
        }
    }

    /// Classifies a batch of shots over the wire with per-request
    /// [`RequestOptions`], blocking until the result arrives; response
    /// index `i` is shot `i`'s states, bitwise-identical to an
    /// in-process call against the same shard. The request bills to
    /// `opts.tenant`'s queue on the server and, when `opts.deadline` is
    /// set, is answered with a typed [`ServeError::DeadlineExceeded`]
    /// instead of stale states if it cannot be served in time.
    ///
    /// An empty request completes without a server round trip.
    ///
    /// # Errors
    ///
    /// The server's own [`ServeError`]s pass through (`Closed`,
    /// `Overloaded` — with the server's retry-after hint when a tenant
    /// quota shed the request — `InvalidRequest`, `Draining`,
    /// `UnknownTenant`, `DeadlineExceeded`); requests the server's
    /// decoder would reject fail with [`ServeError::InvalidRequest`]
    /// before any byte is sent (see [`Self::submit_opts`]); expired read
    /// deadlines surface as [`ServeError::Timeout`] and protocol
    /// violations as [`ServeError::Protocol`]. A transport failure is
    /// retried idempotently under the same request id (reconnecting
    /// per the [`ReconnectPolicy`]) and surfaces as
    /// [`ServeError::Disconnected`] only once the policy is exhausted
    /// (or reconnection is disabled).
    pub fn classify_shots_opts(
        &mut self,
        opts: RequestOptions,
        shots: &[Shot],
    ) -> Result<Vec<ShotStates>, ServeError> {
        if shots.is_empty() {
            return Ok(Vec::new());
        }
        let want = self.submit_opts(opts, shots)?;
        let mut resubmits = 0u32;
        loop {
            // Completions for *earlier* pipelined submits stay queued,
            // in order, for the recv_response calls that want them.
            let at = self.ready.iter().position(|(id, _)| *id == want);
            let Some((_, result)) = at.and_then(|at| self.ready.remove(at)) else {
                match self.pump_one() {
                    // A dead connection queued every in-flight request,
                    // this one included, as a `Disconnected` result.
                    Ok(()) | Err(ServeError::Disconnected) => continue,
                    Err(e) => return Err(e),
                }
            };
            match result {
                // The connection died with this request in flight.
                // Classification is pure, so resubmitting is
                // idempotent — same request id, reconnected stream.
                // (`Draining` is a refusal, not a loss: no retry.)
                Err(ServeError::Disconnected)
                    if self
                        .reconnect
                        .is_some_and(|p| resubmits < p.max_attempts) =>
                {
                    resubmits += 1;
                    self.send_request(want, opts, shots)?;
                }
                done => return done,
            }
        }
    }
}
