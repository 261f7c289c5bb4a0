//! The readiness-driven reactor serving the wire protocol.
//!
//! PR 5's wire front end parked one std thread per TCP connection with
//! one blocking request in flight each — fine for a 4-client bench,
//! fatal for thousands of connections. This module replaces it with a
//! single event-loop thread multiplexing every connection. The loop
//! parks in `epoll_wait` (via the thin syscall shim in `vendor/epoll`)
//! and only touches sockets the kernel reports ready; an `eventfd`
//! waker lets fleet collector threads push completed results into the
//! loop from outside. The module is therefore Linux-only: the crate
//! compiles it, and with it [`WireServer`], on Linux alone.
//!
//! Each request frame decodes straight from the connection's reassembly
//! buffer into one flat [`ShotBlock`](klinq_core::ShotBlock), which is
//! submitted unchanged through the in-process
//! [`ReadoutClient::submit_opts`] path with a completion callback and
//! classified in place, so wire traffic coalesces into the same
//! micro-batches as in-process traffic and results stay
//! bitwise-identical to `classify_shots_on` — only the transport
//! changed. Completions arrive out of order (different devices,
//! different batch closings); each is matched back to its connection
//! and request id.
//!
//! The connection budget ([`WireConfig::max_connections`]) applies
//! **accept backpressure**: at budget, the listener is deregistered
//! from the readiness set (a level-triggered listener would otherwise
//! busy-wake the loop) and re-registered as soon as a connection
//! closes; waiting peers queue in the kernel accept backlog instead of
//! being churned through. Idle connections are reaped after
//! [`WireConfig::idle_timeout`]. Both are observable through the
//! `wire_*` fields of [`ServeStats`].

use crate::chaos::{self, Chaos};
use crate::metrics::{ServeAtomics, ServeStats};
use crate::server::{ReadoutClient, ServeError};
use crate::shard::ShardedReadoutServer;
use crate::wire::codec::{
    decode_message, encode_error, encode_health_report, encode_response, WireError, WireMessage,
    CONNECTION_REQ_ID,
};
use crate::wire::conn::{Conn, ReadOutcome};
use klinq_core::ShotStates;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Readiness token of the accept socket.
const LISTENER_TOKEN: u64 = 0;
/// Readiness token of the completion waker (eventfd).
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection. Tokens are monotonic
/// and never reused, so a stale completion can never be delivered to a
/// *different* connection that recycled its slot.
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a draining reactor keeps reading peers. During the grace
/// window, new connections and new requests get typed
/// [`ServeError::Draining`] answers; after it, connections stop being
/// read (in-flight replies still deliver) so a stalled or chatty peer
/// cannot hold shutdown open forever.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Tuning knobs for a [`WireServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Connection budget: at this many open connections the listener
    /// stops accepting (peers queue in the kernel backlog) until one
    /// closes. Sized for thousands — each open connection costs one fd
    /// plus its buffers, not a thread.
    pub max_connections: usize,
    /// Reap connections completely quiet for this long (`None` keeps
    /// them forever). Protects the budget from peers that connect and
    /// walk away.
    pub idle_timeout: Option<Duration>,
    /// Deterministic fault injection (see [`crate::chaos`]): stalls and
    /// shrinks this server's socket reads/writes and defers completion
    /// wakeups, all correctness-transparently. `None` (production)
    /// falls back to the `KLINQ_CHAOS_SEED` environment variable, so CI
    /// can chaos-run entire suites without touching their code; unset
    /// both and injection is off.
    pub chaos_seed: Option<u64>,
}

impl Default for WireConfig {
    /// 4096-connection budget, 60 s idle reaping, chaos off (unless
    /// `KLINQ_CHAOS_SEED` is set).
    fn default() -> Self {
        Self {
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            chaos_seed: None,
        }
    }
}

/// One finished request on its way back into the event loop.
struct Completion {
    token: u64,
    req_id: u64,
    result: Result<Vec<ShotStates>, ServeError>,
}

/// The cross-thread completion queue: fleet collector threads push via
/// the submission callback, the reactor drains in its loop. The waker
/// interrupts `epoll_wait` so a completion is picked up immediately
/// rather than at the next timeout.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: epoll::EventFd,
    /// Whether a wake is already pending at the reactor: collector
    /// threads completing a burst of requests then pay one eventfd
    /// syscall for the burst, not one per completion.
    notified: AtomicBool,
}

impl std::fmt::Debug for Completions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completions").finish_non_exhaustive()
    }
}

impl Completions {
    /// The queue mutex is held only across a `Vec` push or take, so a
    /// poisoned lock (some holder panicked) cannot have left the queue
    /// half-mutated — recover the guard instead of cascading the panic
    /// into every fleet collector thread that completes a request.
    fn queue(&self) -> std::sync::MutexGuard<'_, Vec<Completion>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, completion: Completion) {
        self.queue().push(completion);
        self.wake();
    }

    /// Interrupts a parked `epoll_wait`. Coalesced: only the first wake
    /// since the reactor last drained pays the eventfd syscall.
    pub(crate) fn wake(&self) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            self.waker.notify();
        }
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue())
    }

    fn drain_waker(&self) {
        // Read the eventfd first, re-arm after, so that whenever
        // `notified` is true either an eventfd signal is pending or the
        // reactor is about to clear the flag. A push between the two
        // skips its notify, but its completion is already queued for
        // this iteration's drain; a push after the store signals afresh.
        // Re-arming before the read would let the read consume a racing
        // push's signal and strand the flag at true, silencing every
        // later push's notify.
        self.waker.drain();
        self.notified.store(false, Ordering::Release);
    }
}

/// The event-loop state, owned by the reactor thread.
struct Reactor {
    listener: Option<TcpListener>,
    clients: Vec<ReadoutClient>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// The readiness set: the listener while there is budget to
    /// accept, the waker, and every connection with something to wait
    /// for.
    ep: epoll::Epoll,
    completions: Arc<Completions>,
    counters: Arc<ServeAtomics>,
    stop: Arc<AtomicBool>,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    /// Whether the listener currently sits in the epoll set (accept
    /// backpressure toggles this).
    listener_registered: bool,
    last_reap: Instant,
    /// Shutdown observed: graceful drain in progress (see
    /// [`Self::enter_shutdown`]).
    draining: bool,
    /// When the drain's read-grace window ends (see [`DRAIN_GRACE`]).
    drain_deadline: Option<Instant>,
    /// The grace window ended: connections are no longer read.
    drain_forced: bool,
    /// Reactor-level fault injection: defers completion drains and
    /// seeds each accepted connection's own fault stream.
    chaos: Option<Chaos>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<epoll::Event> = Vec::new();
        let mut dirty: Vec<u64> = Vec::new();
        loop {
            if self.stop.load(Ordering::Acquire) && !self.draining {
                self.enter_shutdown(Instant::now());
            }
            if self.draining {
                if self.conns.is_empty() {
                    break;
                }
                self.drain_tick(Instant::now());
            }
            // Reaping (and drain progress after shutdown) needs a
            // bounded park; a reactor with neither can sleep until an
            // fd or the waker fires.
            let timeout = if self.draining {
                Some(Duration::from_millis(50))
            } else {
                self.idle_timeout.map(reap_interval)
            };
            if self.ep.wait(&mut events, timeout).is_err() {
                // epoll_wait failing (beyond EINTR, retried in the
                // shim) is not actionable; back off instead of
                // spinning on the error.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let now = Instant::now();
            dirty.clear();
            let mut accept_pending = false;
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => accept_pending = true,
                    WAKER_TOKEN => self.completions.drain_waker(),
                    token => {
                        if event.readable {
                            self.conn_readable(token, now);
                        }
                        if event.writable {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.flush(now);
                            }
                        }
                        dirty.push(token);
                    }
                }
            }
            dirty.extend(self.process_completions(now));
            if accept_pending {
                self.accept_ready(now);
            }
            dirty.sort_unstable();
            dirty.dedup();
            for &token in &dirty {
                self.settle_conn(token);
            }
            self.reap_idle(now);
            self.sync_listener_interest();
        }
    }

    /// Shutdown transition: start the graceful drain. The listener
    /// stays open during the grace window so late connectors get a
    /// typed [`ServeError::Draining`] answer instead of a refused
    /// socket, and existing connections keep being read so their late
    /// requests get the same typed answer. Every in-flight request is
    /// still answered and every reply byte flushed — shutdown drains,
    /// it never drops. Once the grace window ends ([`DRAIN_GRACE`]),
    /// [`Self::drain_tick`] forces the wind-down.
    fn enter_shutdown(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = Some(now + DRAIN_GRACE);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.flush(now);
            }
            self.settle_conn(token);
        }
    }

    /// Drain progress: once the grace window ends, stop listening and
    /// stop reading peers (`closing` connections ignore further inbound
    /// bytes) so a stalled or chatty peer cannot hold shutdown open.
    /// In-flight replies still deliver — `should_close` keeps a closing
    /// connection alive until its answers are flushed.
    fn drain_tick(&mut self, now: Instant) {
        if self.drain_forced {
            return;
        }
        let Some(deadline) = self.drain_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        self.drain_forced = true;
        self.listener = None;
        self.listener_registered = false;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
                conn.flush(now);
            }
            self.settle_conn(token);
        }
    }

    /// Accepts as many queued peers as the budget allows. A draining
    /// server still accepts (within budget) so it can answer each late
    /// connector with a typed [`ServeError::Draining`] frame and hang
    /// up.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            if self.conns.len() >= self.max_connections {
                break;
            }
            let Some(listener) = &self.listener else { break };
            match listener.accept() {
                Ok((stream, _)) => {
                    let Ok(mut conn) = Conn::new(stream, now) else {
                        continue;
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if let Some(chaos) = &self.chaos {
                        conn.chaos = Some(chaos.derive(token));
                    }
                    if self.draining {
                        // Too late: say so with a connection-level
                        // error frame, then wind the connection down.
                        conn.queue_payload(&encode_error(
                            CONNECTION_REQ_ID,
                            &ServeError::Draining,
                        ));
                        conn.closing = true;
                        conn.flush(now);
                    }
                    self.conns.insert(token, conn);
                    if self.draining {
                        self.settle_conn(token);
                    } else {
                        self.register_conn(token);
                    }
                    self.counters.wire_accepted.fetch_add(1, Ordering::Relaxed);
                    let open = self.conns.len() as u64;
                    self.counters.wire_open.store(open, Ordering::Relaxed);
                    self.counters
                        .wire_peak_open
                        .fetch_max(open, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept errors (EMFILE, …) must not
                    // busy-spin the loop; back off and let closing
                    // connections free their fds.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    /// Installs a fresh connection's initial read interest.
    fn register_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if self
                .ep
                .add(conn.stream().as_raw_fd(), token, true, false)
                .is_ok()
            {
                conn.reg = Some((true, false));
            } else {
                conn.dead = true;
            }
        }
    }

    /// Reads from a connection and processes every complete frame the
    /// bytes yield.
    fn conn_readable(&mut self, token: u64, now: Instant) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.read_ready(now) {
                ReadOutcome::Progress | ReadOutcome::Eof => {}
                ReadOutcome::Err => return,
            }
        }
        loop {
            // Decode inside the connection borrow: the frame payload is
            // a borrow of the reassembly buffer (bulk requests are never
            // copied out of it), and `decode_message` produces the owned
            // message the dispatch below needs.
            let decoded = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                match conn.next_frame() {
                    Ok(Some(payload)) => Ok(decode_message(payload)),
                    Ok(None) => return,
                    Err(e) => Err(e),
                }
            };
            match decoded {
                Ok(message) => self.handle_message(token, message, now),
                Err(e) => {
                    // Oversized length prefix: the stream is poisoned.
                    // Say why, then hang up.
                    self.conn_protocol_error(token, e.to_string(), now);
                    return;
                }
            }
        }
    }

    /// Routes one decoded inbound message: requests are submitted to
    /// the fleet with a completion callback; anything else is a
    /// protocol violation answered with a connection-level error.
    fn handle_message(
        &mut self,
        token: u64,
        message: Result<WireMessage, WireError>,
        now: Instant,
    ) {
        match message {
            Ok(WireMessage::Request {
                req_id,
                device,
                priority,
                tenant,
                deadline_us,
                allow_failover,
                shots,
            }) => {
                if req_id == CONNECTION_REQ_ID {
                    self.conn_protocol_error(
                        token,
                        format!("request id {CONNECTION_REQ_ID} is reserved"),
                        now,
                    );
                    return;
                }
                if self.draining {
                    // New work during the drain grace window gets a
                    // typed per-request answer; requests already in the
                    // fleet keep draining normally.
                    self.answer(token, req_id, &Err(ServeError::Draining), now);
                    return;
                }
                match self.clients.get(device as usize) {
                    Some(client) => {
                        let completions = Arc::clone(&self.completions);
                        let mut opts = crate::sched::RequestOptions::new()
                            .priority(priority)
                            .tenant(crate::sched::TenantId(tenant))
                            .failover(allow_failover);
                        if deadline_us > 0 {
                            opts = opts.deadline(Duration::from_micros(deadline_us));
                        }
                        // An unknown/oversized tenant id fails *here*,
                        // synchronously, and lands in the `Err` arm
                        // below — a typed per-request `UnknownTenant`
                        // error frame, never a connection hang-up.
                        let submitted = client.submit_opts(opts, shots, move |result| {
                            completions.push(Completion {
                                token,
                                req_id,
                                result,
                            });
                        });
                        match submitted {
                            Ok(()) => {
                                if let Some(conn) = self.conns.get_mut(&token) {
                                    conn.in_flight += 1;
                                }
                            }
                            // Shed (`Overloaded`) or fleet-gone
                            // (`Closed`): per-request, the connection
                            // stays up.
                            Err(e) => self.answer(token, req_id, &Err(e), now),
                        }
                    }
                    None => {
                        let devices = self.clients.len();
                        self.answer(
                            token,
                            req_id,
                            &Err(ServeError::InvalidRequest(format!(
                                "unknown device {device}: this fleet serves {devices} devices"
                            ))),
                            now,
                        );
                    }
                }
            }
            // Health queries are answered synchronously from the shard
            // monitors — no collector round trip — so fleet health stays
            // visible even while shards are down or the server drains.
            Ok(WireMessage::Health { req_id }) => {
                if req_id == CONNECTION_REQ_ID {
                    self.conn_protocol_error(
                        token,
                        format!("request id {CONNECTION_REQ_ID} is reserved"),
                        now,
                    );
                    return;
                }
                let shards: Vec<_> = self
                    .clients
                    .iter()
                    .map(ReadoutClient::health_report)
                    .collect();
                let payload = encode_health_report(req_id, &shards);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.queue_payload(&payload);
                    conn.flush(now);
                }
            }
            // A peer that sends undecodable payloads (or messages in
            // the wrong direction) cannot be trusted to frame correctly
            // either: answer with the typed error, then hang up.
            Ok(_) => {
                self.conn_protocol_error(token, "expected a request message".to_string(), now)
            }
            Err(e) => self.conn_protocol_error(token, e.to_string(), now),
        }
    }

    /// Queues one per-request reply frame and flushes opportunistically.
    fn answer(
        &mut self,
        token: u64,
        req_id: u64,
        result: &Result<Vec<ShotStates>, ServeError>,
        now: Instant,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let payload = match result {
            Ok(states) => encode_response(req_id, states),
            Err(e) => encode_error(req_id, e),
        };
        conn.queue_payload(&payload);
        conn.flush(now);
    }

    /// Answers a protocol violation with a connection-level error frame
    /// and marks the connection closing (hang up once it flushes).
    fn conn_protocol_error(&mut self, token: u64, msg: String, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.queue_payload(&encode_error(
            CONNECTION_REQ_ID,
            &ServeError::Protocol(msg),
        ));
        conn.closing = true;
        conn.flush(now);
    }

    /// Delivers every queued completion to its connection. Returns the
    /// tokens touched (for interest settling).
    fn process_completions(&mut self, now: Instant) -> Vec<u64> {
        // Fault injection: a delayed wakeup. Re-arming the wake before
        // returning makes the deferral a delay, never a hang — the loop
        // comes straight back around and draws again.
        if let Some(chaos) = &mut self.chaos {
            if chaos.defer_completions() {
                self.completions.wake();
                return Vec::new();
            }
        }
        let batch = self.completions.drain();
        let mut touched = Vec::with_capacity(batch.len());
        for completion in batch {
            // The connection may have died while its request was in the
            // fleet; the result is simply dropped.
            if let Some(conn) = self.conns.get_mut(&completion.token) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                touched.push(completion.token);
                self.answer(completion.token, completion.req_id, &completion.result, now);
            }
        }
        touched
    }

    /// Closes a connection that finished winding down, or re-syncs its
    /// epoll interest with its buffer state.
    fn settle_conn(&mut self, token: u64) {
        let should_close = match self.conns.get(&token) {
            // A draining server also closes connections that are simply
            // *done* — nothing in flight, nothing buffered either way —
            // without waiting for the peer to hang up first.
            Some(conn) => conn.should_close() || (self.draining && conn.drained()),
            None => return,
        };
        if should_close {
            self.close_conn(token);
        } else {
            self.sync_interest(token);
        }
    }

    /// Brings the epoll registration in line with what the connection
    /// can currently make progress on. A wound-down read side must drop
    /// its read interest — a level-triggered EOF would otherwise wake
    /// the loop forever — and a connection waiting only on fleet
    /// completions leaves the set entirely (the waker covers it).
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = (
            !conn.peer_eof && !conn.closing && !conn.dead,
            conn.wants_write() && !conn.dead,
        );
        let fd = conn.stream().as_raw_fd();
        let ep = &self.ep;
        match (conn.reg, desired) {
            (None, (false, false)) => {}
            (None, (r, w)) if ep.add(fd, token, r, w).is_ok() => {
                conn.reg = Some(desired);
            }
            (Some(_), (false, false)) => {
                let _ = ep.delete(fd);
                conn.reg = None;
            }
            (Some(current), (r, w)) if current != desired && ep.modify(fd, token, r, w).is_ok() => {
                conn.reg = Some(desired);
            }
            _ => {}
        }
    }

    /// Removes a connection (dropping the stream closes its fd, which
    /// also evicts any epoll registration).
    fn close_conn(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.counters
                .wire_open
                .store(self.conns.len() as u64, Ordering::Relaxed);
        }
    }

    /// Reaps connections idle past the timeout, on a coarse cadence.
    fn reap_idle(&mut self, now: Instant) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        if now.duration_since(self.last_reap) < reap_interval(timeout) {
            return;
        }
        self.last_reap = now;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.is_idle(now, timeout))
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            self.counters.wire_reaped.fetch_add(1, Ordering::Relaxed);
            self.close_conn(token);
        }
    }

    /// Accept backpressure: the listener sits in the epoll set exactly
    /// when there is budget to accept.
    fn sync_listener_interest(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let want = self.conns.len() < self.max_connections;
        if want && !self.listener_registered {
            if self
                .ep
                .add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
                .is_ok()
            {
                self.listener_registered = true;
            }
        } else if !want && self.listener_registered {
            let _ = self.ep.delete(listener.as_raw_fd());
            self.listener_registered = false;
        }
    }
}

/// How often the reap scan runs for a given idle timeout: fine-grained
/// enough to reap promptly, coarse enough that a busy loop is not
/// scanning thousands of connections every iteration.
fn reap_interval(timeout: Duration) -> Duration {
    (timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(250))
}

/// A TCP front end over a [`ShardedReadoutServer`]'s device fleet: one
/// reactor thread multiplexing every connection (see the module docs).
///
/// Decoded requests go through ordinary in-process [`ReadoutClient`]s,
/// so wire traffic coalesces with in-process traffic in the same
/// micro-batches and the responses are bitwise-identical.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    completions: Arc<Completions>,
    counters: Arc<ServeAtomics>,
    reactor: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Starts serving the fleet on `listener` with [`WireConfig`]
    /// defaults. The sharded server keeps its ownership — shut the wire
    /// front end down first, then the fleet (a fleet shut down first
    /// simply answers wire requests with [`ServeError::Closed`]).
    ///
    /// # Errors
    ///
    /// Propagates listener/reactor setup failures.
    pub fn start(fleet: &ShardedReadoutServer, listener: TcpListener) -> io::Result<Self> {
        Self::start_with(fleet, listener, WireConfig::default())
    }

    /// Starts serving with explicit [`WireConfig`] knobs.
    ///
    /// # Errors
    ///
    /// Propagates listener/epoll/thread setup failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_connections` is zero (a server that can
    /// never accept is a configuration bug, not a runtime state).
    pub fn start_with(
        fleet: &ShardedReadoutServer,
        listener: TcpListener,
        config: WireConfig,
    ) -> io::Result<Self> {
        assert!(
            config.max_connections > 0,
            "max_connections must be non-zero"
        );
        let clients: Vec<ReadoutClient> = (0..fleet.devices()).map(|d| fleet.client(d)).collect();
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let ep = epoll::Epoll::new()?;
        let waker = epoll::EventFd::new()?;
        ep.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        ep.add(waker.as_raw_fd(), WAKER_TOKEN, true, false)?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker,
            notified: AtomicBool::new(false),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeAtomics::default());
        let chaos_seed = config.chaos_seed.or_else(chaos::env_seed);
        let reactor = Reactor {
            listener: Some(listener),
            clients,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            ep,
            completions: Arc::clone(&completions),
            counters: Arc::clone(&counters),
            stop: Arc::clone(&stop),
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
            listener_registered: true,
            last_reap: Instant::now(),
            draining: false,
            drain_deadline: None,
            drain_forced: false,
            chaos: chaos_seed.map(Chaos::new),
        };
        let handle = std::thread::Builder::new()
            .name("klinq-wire-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(Self {
            addr,
            stop,
            completions,
            counters,
            reactor: Some(handle),
        })
    }

    /// The address the server accepts connections on (useful with a
    /// `127.0.0.1:0` listener, whose port the OS assigns).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the wire front end's connection counters, carried
    /// in the `wire_*` fields of [`ServeStats`] (the coalescing fields
    /// stay zero here — [`merge`](ServeStats::merge) with the fleet's
    /// stats for the full picture).
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// Stops accepting and winds every connection down. Idle
    /// connections close immediately; a connection with a request in
    /// flight still gets its reply once the fleet answers (the reactor
    /// keeps draining in the background — a blocking wait here would
    /// deadlock on batches that only the fleet's own shutdown can
    /// close, e.g. unfilled batches under a huge linger).
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let Some(handle) = self.reactor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        self.completions.wake();
        // Give the reactor a moment to finish cleanly (the common case:
        // nothing in flight), then detach — it exits on its own once
        // the last in-flight reply is delivered.
        let deadline = Instant::now() + Duration::from_millis(250);
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if handle.is_finished() {
            if let Err(payload) = handle.join() {
                // A dead reactor is a bug, not a quiet close: re-raise
                // its panic on the owner — unless teardown is already
                // unwinding, where a second panic would abort.
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.close();
    }
}
