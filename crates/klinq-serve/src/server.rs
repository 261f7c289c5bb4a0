//! The coalescing server: std threads + channels, no async runtime.
//!
//! One collector thread owns the [`KlinqSystem`] and a receiver. Clients
//! are cheap cloneable sender handles; each request carries its shots, as
//! one flat [`ShotBlock`], and a private reply channel. The collector
//! opens a micro-batch on the first request it receives, then keeps
//! admitting requests until either the batch's shot budget
//! ([`ServeConfig::max_batch_shots`]) is reached or the linger window
//! ([`ServeConfig::max_linger`]) expires, classifies the batch in one
//! call that reads the requests' blocks in place ([`BlockBatch`]), and
//! scatters the per-request slices back. An idle server blocks on `recv`
//! and costs nothing.
//!
//! Several scheduling policies shape the intake:
//!
//! - **Backpressure**: the intake queue is bounded
//!   ([`ServeConfig::max_pending`]). A full queue sheds the request with
//!   [`ServeError::Overloaded`] instead of letting senders pile up
//!   unboundedly behind a saturated collector — the client sees the
//!   overload immediately and can retry, downgrade, or fail over.
//! - **Priority lanes**: [`Priority::Latency`] requests bypass the
//!   linger window — the batch they join closes immediately — while
//!   [`Priority::Throughput`] requests coalesce as usual. A mid-circuit
//!   measurement that gates a conditional pulse cannot wait out a linger
//!   tuned for throughput traffic, nor the bulk work it closes: a
//!   batch's latency requests are classified and answered first, in one
//!   engine call of their own, and its throughput requests then run in
//!   slices of whole requests. A latency request that arrives while
//!   those slices run is served at the next slice boundary (a cut-in,
//!   counted as a batch of its own) instead of behind the whole batch.
//! - **Multi-tenant QoS** ([`ServeConfig::sched`], [`crate::sched`]):
//!   the collector drains the intake channel into per-tenant bounded
//!   queues and assembles micro-batches by deficit-round-robin weighted
//!   fair queueing, so one flooding tenant cannot starve the rest.
//!   Per-tenant quotas shed with a retry-after hint, and request
//!   deadlines both pull batch closing forward and fail expired
//!   requests typed ([`ServeError::DeadlineExceeded`]) instead of
//!   delivering stale work.

use crate::chaos::{self, Chaos, CrashFaults};
use crate::metrics::{ServeAtomics, ServeStats, TenantAtomics};
use crate::sched::{QueuedItem, RequestOptions, SchedPolicy, Scheduler, TenantId, TenantStats};
use crate::supervise::{ChaosCrash, ShardHealth, ShardHealthReport, ShardMonitor, SuperviseConfig};
use klinq_core::{
    Backend, BatchDiscriminator, BlockBatch, KlinqSystem, ShotBlock, ShotSource, ShotStates,
};
use klinq_sim::Shot;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling class of a classification request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Coalesce freely: wait out the linger window so the batch fills.
    /// The default for bulk readout traffic.
    #[default]
    Throughput,
    /// Latency-sensitive (e.g. a mid-circuit measurement gating a
    /// conditional pulse): the batch this request joins closes
    /// immediately instead of lingering for more traffic, and the
    /// request is answered ahead of that batch's throughput requests.
    /// One that arrives while a batch's throughput requests run is
    /// served at the next slice boundary, not after the whole batch.
    Latency,
}

/// Tuning knobs for a [`ReadoutServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Which datapath serves the requests.
    pub backend: Backend,
    /// Shot budget per micro-batch: a batch closes as soon as it holds at
    /// least this many shots. A single request larger than the budget is
    /// never split — it forms one oversized batch on its own, so
    /// responses always map one-to-one onto requests. A batch that holds
    /// a [`Priority::Latency`] request answers those first and runs its
    /// throughput requests in slices of whole requests, serving latency
    /// requests that arrive meanwhile at the slice boundaries; a batch
    /// without one is classified in one call.
    pub max_batch_shots: usize,
    /// How long a non-full batch may wait for more requests to coalesce
    /// before it is classified anyway. Zero means "drain whatever is
    /// already queued, never wait"; durations too large to express as a
    /// deadline (e.g. [`Duration::MAX`]) mean "wait until the budget
    /// fills or the server shuts down".
    pub max_linger: Duration,
    /// Intake-queue bound, in queued requests: a client whose send finds
    /// the queue full is shed with [`ServeError::Overloaded`] instead of
    /// queueing unboundedly behind a saturated collector.
    pub max_pending: usize,
    /// Multi-tenant QoS policy: the tenant table and the DRR/deadline
    /// tuning (see [`crate::sched`]). The default is a single
    /// unconstrained tenant — the pre-QoS FIFO behaviour.
    pub sched: SchedPolicy,
    /// Supervision tuning: heartbeat staleness, watchdog sweep
    /// interval, restart backoff (see [`crate::supervise`]).
    pub supervise: SuperviseConfig,
    /// Deterministic crash-fault injection into the collector (seeded
    /// transient batch panics and content-keyed poisoned requests).
    /// `None` (the default) still honours the fleet-wide
    /// `KLINQ_CHAOS_CRASH` environment knob, which enables only the
    /// correctness-transparent transient class.
    pub crash: Option<CrashFaults>,
}

impl Default for ServeConfig {
    /// Float backend, 1024-shot batches, 200 µs linger, 1024-request
    /// intake queue, single-tenant scheduling.
    fn default() -> Self {
        Self {
            backend: Backend::Float,
            max_batch_shots: 1024,
            max_linger: Duration::from_micros(200),
            max_pending: 1024,
            sched: SchedPolicy::default(),
            supervise: SuperviseConfig::default(),
            crash: None,
        }
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server has shut down (or its worker died) before answering.
    Closed,
    /// The request's shots cannot be classified by this system (wrong
    /// qubit count, ragged I/Q pairs, or traces shorter than the feature
    /// front end's floor). Only the offending request is rejected — the
    /// server keeps serving everyone else.
    InvalidRequest(String),
    /// The request was shed without queueing: the global intake queue
    /// was full ([`ServeConfig::max_pending`]), or the tenant's own
    /// quota ([`crate::TenantSpec::max_queued_shots`]) was exhausted.
    /// `retry_after` is the server's estimate of when the backlog will
    /// have drained (from the tenant's queued shots and the measured
    /// service rate); `None` when no estimate exists — retry later, or
    /// against another shard.
    Overloaded {
        /// Estimated wait before a retry is likely to be admitted.
        retry_after: Option<Duration>,
    },
    /// The reply violated the serving contract (e.g. a response whose
    /// length does not match the request's shot count, or a malformed
    /// wire frame). Indicates a buggy or mismatched server, never a bad
    /// request.
    Protocol(String),
    /// A client-side deadline expired before the server answered (wire
    /// clients with a read timeout configured). The request may still be
    /// executing server-side; only the wait was abandoned.
    Timeout,
    /// The transport to the server was lost while the request was in
    /// flight (wire clients): the connection dropped, or reconnecting
    /// exhausted the backoff policy. The request's fate server-side is
    /// unknown — classification is pure, so resubmitting is always safe,
    /// and the blocking `classify_*` wrappers do so automatically when a
    /// reconnect policy is configured.
    Disconnected,
    /// The server is draining for shutdown: requests already in flight
    /// are answered, but no new work or connections are accepted. Retry
    /// against another shard or wait for the replacement to come up.
    Draining,
    /// The request's deadline ([`crate::RequestOptions::deadline`])
    /// expired before classification completed: the answer would have
    /// been stale, so none is produced. The request did not fail on its
    /// merits — resubmitting with a fresh deadline is always safe.
    DeadlineExceeded,
    /// The request names a [`TenantId`] outside the server's tenant
    /// table ([`crate::SchedPolicy::tenants`]). Rejected per-request —
    /// in-process at submission, over the wire with a typed error frame
    /// that leaves the connection serving.
    UnknownTenant(u32),
    /// The request deterministically panicked classification: the
    /// micro-batch it joined panicked, and so did its solo replay, so
    /// the request itself is the culprit. It is quarantined — answered
    /// with this error exactly once and never re-batched — while every
    /// other request in the batch was replayed and answered normally.
    /// Resubmitting the same shots will poison again; this is a
    /// per-request verdict, not a server condition.
    Poisoned,
    /// The request's shard is [`ShardHealth::Down`] (collector dead or
    /// stuck) or [`ShardHealth::Restarting`], and either the request
    /// did not permit failover ([`RequestOptions::allow_failover`]) or
    /// no healthy peer exists. Classification is pure, so resubmitting
    /// is always safe — after the watchdog restarts the shard, or to a
    /// peer.
    ShardDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => write!(f, "readout server is closed"),
            Self::InvalidRequest(msg) => write!(f, "invalid readout request: {msg}"),
            Self::Overloaded { retry_after: None } => {
                write!(f, "readout server overloaded: intake queue full")
            }
            Self::Overloaded {
                retry_after: Some(wait),
            } => {
                write!(
                    f,
                    "readout server overloaded: intake queue full (retry in ~{} ms)",
                    wait.as_millis().max(1)
                )
            }
            Self::Protocol(msg) => write!(f, "readout serving protocol violation: {msg}"),
            Self::Timeout => write!(f, "readout request timed out before the server answered"),
            Self::Disconnected => {
                write!(f, "connection to the readout server was lost mid-flight")
            }
            Self::Draining => write!(f, "readout server is draining for shutdown"),
            Self::DeadlineExceeded => {
                write!(f, "readout request deadline expired before classification completed")
            }
            Self::UnknownTenant(id) => {
                write!(f, "unknown tenant id {id}: not in the server's tenant table")
            }
            Self::Poisoned => {
                write!(
                    f,
                    "request poisoned its micro-batch: classification panicked on it \
                     (batch and solo) and the request was quarantined"
                )
            }
            Self::ShardDown => {
                write!(f, "the request's shard is down (restarting); retry or fail over")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Number of qubits a served system reads per shot (the width of
/// [`ShotStates`]). Per-qubit drift and canary telemetry is sized to it.
pub const NUM_QUBITS: usize = 5;

/// One shard's shared counter block: the [`ServeStats`] and per-tenant
/// atomics plus the health machine. A restart reuses the same
/// `Arc<Counters>`, so every count is monotonic over the shard's
/// lifetime by construction.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) stats: ServeAtomics,
    /// One entry per tenant in [`SchedPolicy::tenants`] — sized at
    /// server start, never resized, so clients can validate tenant ids
    /// without a lock.
    tenants: Vec<TenantAtomics>,
    /// The health machine. Transitions that count go through the
    /// `note_*`/`mark_*` methods below, which update `stats` with it.
    pub(crate) monitor: ShardMonitor,
}

impl Counters {
    /// Counters for a server running under `policy`.
    pub(crate) fn new(policy: &SchedPolicy) -> Self {
        Self {
            tenants: policy.tenants.iter().map(|_| Default::default()).collect(),
            ..Self::default()
        }
    }

    /// Records a deadline miss on the global and per-tenant counters.
    fn record_deadline_miss(&self, tenant: usize) {
        self.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        self.tenants[tenant].deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A micro-batch panic the quarantine caught.
    pub(crate) fn note_panic(&self) {
        self.stats.panics.fetch_add(1, Ordering::Relaxed);
        self.monitor.degrade();
    }

    /// A request answered [`ServeError::Poisoned`].
    fn note_poisoned(&self, tenant: usize) {
        self.stats.poisoned.fetch_add(1, Ordering::Relaxed);
        self.tenants[tenant]
            .poisoned
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A request rerouted to a healthy peer while this shard was down.
    fn note_failover(&self, tenant: usize) {
        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
        self.tenants[tenant]
            .failovers
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A request answered [`ServeError::ShardDown`].
    fn note_shard_down_rejection(&self) {
        self.stats
            .shard_down_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The watchdog (or a degraded bundle boot) declares the shard down.
    pub(crate) fn mark_down(&self) {
        self.stats.downs.fetch_add(1, Ordering::Relaxed);
        self.monitor.enter_down();
    }

    /// A fresh collector is serving: record the recovery, go `Healthy`.
    pub(crate) fn mark_recovered(&self) {
        let spell_us = self.monitor.down_for().as_micros() as u64;
        self.stats.recovery_us.store(spell_us, Ordering::Relaxed);
        self.stats.restarts.fetch_add(1, Ordering::Relaxed);
        self.monitor.enter_healthy();
    }

    /// Health, restarts and downs: the wire health query's answer.
    pub(crate) fn report(&self) -> ShardHealthReport {
        ShardHealthReport {
            health: self.monitor.health(),
            restarts: self.stats.restarts.load(Ordering::Relaxed),
            downs: self.stats.downs.load(Ordering::Relaxed),
        }
    }
}

/// How a finished request's result reaches its submitter.
///
/// A callback rather than a channel sender: the wire reactor serves
/// thousands of connections from one event loop and cannot park a
/// thread per request, so its completions are pushed straight into the
/// loop's queue by the callback. The blocking client path simply wraps
/// a channel sender in one — same coalescing, same results.
pub(crate) type ReplyFn = Box<dyn FnOnce(Result<Vec<ShotStates>, ServeError>) + Send>;

/// A reply obligation that cannot be lost. Every admitted request holds
/// exactly one; it is consumed by [`Self::send`], and if it is instead
/// *dropped* — the collector died with the request queued, mid-batch,
/// or buffered in the intake channel — the drop answers the submitter
/// typed ([`ServeError::ShardDown`], or [`ServeError::Closed`] during
/// an orderly shutdown). Zero lost responses is a structural property,
/// not a bookkeeping discipline.
pub(crate) struct Reply {
    f: Option<ReplyFn>,
    counters: Arc<Counters>,
}

impl Reply {
    fn new(f: ReplyFn, counters: Arc<Counters>) -> Self {
        Self { f: Some(f), counters }
    }

    fn send(mut self, result: Result<Vec<ShotStates>, ServeError>) {
        if let Some(f) = self.f.take() {
            f(result);
        }
    }

    /// Disarms the guard without answering — only for submissions the
    /// intake *rejected synchronously* (shed/closed), whose contract is
    /// "the completion never runs".
    fn defuse(mut self) {
        self.f = None;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(f) = self.f.take() {
            let error = if self.counters.monitor.is_stopped() {
                ServeError::Closed
            } else {
                self.counters.note_shard_down_rejection();
                ServeError::ShardDown
            };
            // This drop may run while the collector unwinds from a
            // panic; a panicking completion callback would abort the
            // process, so it is contained.
            let _ = catch_unwind(AssertUnwindSafe(move || f(Err(error))));
        }
    }
}

/// One in-flight request: the shots to classify and where to answer.
pub(crate) struct Request {
    /// The request's shots in one flat block, exactly as decoded or
    /// submitted: the collector classifies it in place.
    shots: ShotBlock,
    priority: Priority,
    tenant: TenantId,
    /// Absolute deadline (converted from the relative
    /// [`RequestOptions::deadline`] at submission).
    deadline: Option<Instant>,
    /// Calibration-lane ground truth: each shot's prepared states, which
    /// the collector scores the served states against to feed the
    /// per-qubit fidelity/confusion counters. Empty for ordinary
    /// requests.
    labels: Vec<[bool; NUM_QUBITS]>,
    reply: Reply,
}

/// Live-ops commands. They ride the same intake channel as requests, so
/// their ordering relative to traffic is the channel's FIFO order, and
/// the collector applies them strictly *between* micro-batches: a
/// command arriving mid-linger first closes the open batch on the old
/// model. That is the whole hot-swap atomicity argument — there is no
/// point in time at which one batch sees two models.
enum Control {
    /// Blue/green hot swap: replace the serving system. Acks the new
    /// model version.
    Swap {
        system: Arc<KlinqSystem>,
        ack: mpsc::Sender<Result<u64, ServeError>>,
    },
    /// Stage a candidate model on the canary lane: `fraction` of
    /// micro-batches route to it (answered by it, compared against the
    /// primary). Replaces any previously staged candidate.
    StageCanary {
        system: Arc<KlinqSystem>,
        fraction: f64,
        ack: mpsc::Sender<Result<(), ServeError>>,
    },
    /// Promote the staged candidate to primary. Acks the new model
    /// version, or an error if no candidate is staged.
    PromoteCanary {
        ack: mpsc::Sender<Result<u64, ServeError>>,
    },
    /// Drop the staged candidate. Acks whether one was staged.
    AbortCanary { ack: mpsc::Sender<bool> },
    /// Crash-fault injection: the collector aborts mid-stream — it
    /// panics the moment it dequeues this, *without* draining its
    /// queues, so requests already admitted die with the thread (their
    /// reply guards answer [`ServeError::ShardDown`]) exactly as a real
    /// mid-batch abort would. Deliberately escapes the quarantine.
    Kill,
}

/// What travels over the intake channel.
enum Msg {
    /// Boxed: a request with its shot block is several times the size of
    /// the other messages, and every channel slot is sized for the largest.
    Request(Box<Request>),
    Control(Control),
    /// Finish the batch in flight, then exit. Sent by
    /// [`ReadoutServer::shutdown`] so teardown never depends on every
    /// cloned [`ReadoutClient`] having been dropped.
    Shutdown,
}

/// The shared indirection between clients and one shard's collector.
///
/// Clients (including the wire reactor's long-lived snapshot) hold an
/// `Arc<ShardLink>`, never a raw channel sender: a shard restart swaps
/// a fresh sender into the link, and every existing handle reaches the
/// new collector with no re-wiring.
#[derive(Debug)]
pub(crate) struct ShardLink {
    tx: RwLock<SyncSender<Msg>>,
    counters: Arc<Counters>,
}

impl ShardLink {
    fn new(tx: SyncSender<Msg>, counters: Arc<Counters>) -> Self {
        Self {
            tx: RwLock::new(tx),
            counters,
        }
    }

    /// Points the link at a fresh collector (shard restart).
    fn swap_tx(&self, tx: SyncSender<Msg>) {
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        *self.tx.write().unwrap() = tx;
    }

    fn try_send(&self, msg: Msg) -> Result<(), TrySendError<Msg>> {
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        self.tx.read().unwrap().try_send(msg)
    }

    /// Blocking send for controls and shutdown (rides out a full
    /// queue; fails only when the collector is gone).
    fn send(&self, msg: Msg) -> Result<(), mpsc::SendError<Msg>> {
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        let tx = self.tx.read().unwrap().clone();
        tx.send(msg)
    }
}

/// Fleet-wide failover routing: every shard's link, so a client bound
/// to a down shard can reroute a willing request to a healthy peer.
#[derive(Debug)]
pub(crate) struct Router {
    links: Vec<Arc<ShardLink>>,
    /// Rotates the scan start so failover traffic spreads over peers
    /// instead of piling on the first healthy one.
    next: AtomicUsize,
}

impl Router {
    pub(crate) fn new(links: Vec<Arc<ShardLink>>) -> Self {
        Self {
            links,
            next: AtomicUsize::new(0),
        }
    }

    /// A serving peer of `device`, if any.
    fn healthy_peer(&self, device: usize) -> Option<Arc<ShardLink>> {
        let n = self.links.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        (0..n)
            .map(|i| (start + i) % n)
            .filter(|&i| i != device)
            .map(|i| &self.links[i])
            .find(|link| !link.counters.monitor.is_stopped() && link.counters.monitor.is_serving())
            .map(Arc::clone)
    }
}

/// A cheap cloneable handle for submitting classification requests.
///
/// Handles stay usable after the [`ReadoutServer`] value is shut down
/// only in the sense that calls fail fast with [`ServeError::Closed`].
#[derive(Debug, Clone)]
pub struct ReadoutClient {
    link: Arc<ShardLink>,
    /// Set for fleet-issued handles ([`crate::ShardedReadoutServer`]):
    /// enables health-aware failover to peer shards.
    router: Option<Arc<Router>>,
    /// This handle's device index within the router (0 for standalone
    /// servers).
    device: usize,
}

impl ReadoutClient {
    /// Classifies a batch of shots with per-request [`RequestOptions`]
    /// (scheduling lane, tenant, optional relative deadline), blocking
    /// until the coalesced result arrives. Response index `i` is always
    /// shot `i`'s states. `RequestOptions::new()` is a bulk
    /// [`Priority::Throughput`] request of the default tenant; a
    /// [`Priority::Latency`] request closes its micro-batch immediately
    /// instead of waiting out the linger window.
    ///
    /// `shots` is anything that converts into a [`ShotBlock`]: a
    /// `Vec<Shot>` or `&[Shot]` is copied into one flat block, and a
    /// block is taken as is. The collector classifies the block in
    /// place.
    ///
    /// An empty request completes immediately without a server round
    /// trip.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server shut down before
    /// answering, [`ServeError::Overloaded`] if the request was shed
    /// (intake queue full, or a tenant quota shed with a retry-after
    /// hint), [`ServeError::InvalidRequest`] if the shots cannot be
    /// classified by the serving system (the request is rejected at
    /// intake; the server keeps running), [`ServeError::UnknownTenant`]
    /// when the options name a tenant outside the server's table
    /// (rejected synchronously, nothing is queued), and
    /// [`ServeError::DeadlineExceeded`] when the deadline expires before
    /// classification completes.
    pub fn classify_shots_opts(
        &self,
        opts: RequestOptions,
        shots: impl Into<ShotBlock>,
    ) -> Result<Vec<ShotStates>, ServeError> {
        self.classify_blocking(opts, Vec::new(), shots.into())
    }

    /// Classifies calibration shots: the result is served exactly like
    /// [`Self::classify_shots_opts`] with default options, but each
    /// shot's `prepared` states are additionally treated as ground truth
    /// and scored against the served states, feeding the per-qubit
    /// running fidelity/confusion estimates in [`ServeStats`] (`calib_*`
    /// fields, [`ServeStats::confusion`],
    /// [`ServeStats::calibration_fidelity`]). Interleaving a trickle of
    /// calibration shots with production traffic is how an operator
    /// detects drift and validates a candidate model.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::classify_shots_opts`].
    pub fn classify_calibration_shots(
        &self,
        shots: Vec<Shot>,
    ) -> Result<Vec<ShotStates>, ServeError> {
        let labels = shots.iter().map(|s| s.prepared).collect();
        self.classify_blocking(RequestOptions::new(), labels, shots.into())
    }

    fn classify_blocking(
        &self,
        opts: RequestOptions,
        labels: Vec<[bool; NUM_QUBITS]>,
        shots: ShotBlock,
    ) -> Result<Vec<ShotStates>, ServeError> {
        let n_shots = shots.len();
        let (reply_tx, reply_rx) = mpsc::channel();
        self.submit(opts, labels, shots, move |result| {
            // A submitter that gave up (dropped its receiver) is not an
            // error for the batch.
            let _ = reply_tx.send(result);
        })?;
        let states = reply_rx.recv().map_err(|_| ServeError::Closed)??;
        // The scatter contract is one state row per requested shot. An
        // in-process collector upholds it by construction, but a remote
        // (wire) or buggy server might not — and a silently short reply
        // must fail typed on the *client*, never panic it.
        if states.len() != n_shots {
            return Err(ServeError::Protocol(format!(
                "reply carries {} shot states for a {n_shots}-shot request",
                states.len()
            )));
        }
        Ok(states)
    }

    /// Submits shots with per-request [`RequestOptions`] without
    /// blocking for the result: `on_complete` runs exactly once with the
    /// coalesced result (on the collector thread) once the request's
    /// micro-batch executes. This is the submission path the wire
    /// reactor uses — one event loop, thousands of requests in flight, no
    /// parked thread per request — and it threads tenant identity and
    /// deadlines through. `shots` converts into a [`ShotBlock`] as for
    /// [`Self::classify_shots_opts`]; the reactor passes the block it
    /// decoded from the frame, so wire shots are never copied again.
    ///
    /// An empty request completes immediately: `on_complete` runs with
    /// `Ok(vec![])` before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] (request shed, queue full),
    /// [`ServeError::Closed`] (server gone) or
    /// [`ServeError::UnknownTenant`] (the options name a tenant outside
    /// the server's table) **without** running `on_complete` — a
    /// rejected submission has no completion. Requests that fail later
    /// (e.g. [`ServeError::InvalidRequest`] at intake validation)
    /// deliver their error through `on_complete` instead.
    pub fn submit_opts(
        &self,
        opts: RequestOptions,
        shots: impl Into<ShotBlock>,
        on_complete: impl FnOnce(Result<Vec<ShotStates>, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.submit(opts, Vec::new(), shots.into(), on_complete)
    }

    fn submit(
        &self,
        opts: RequestOptions,
        labels: Vec<[bool; NUM_QUBITS]>,
        shots: ShotBlock,
        on_complete: impl FnOnce(Result<Vec<ShotStates>, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        // The tenant table is fixed at server start, so an unknown id is
        // rejected right here — synchronously, before anything queues.
        let tenant = opts.tenant.0 as usize;
        if tenant >= self.link.counters.tenants.len() {
            return Err(ServeError::UnknownTenant(opts.tenant.0));
        }
        if shots.is_empty() {
            on_complete(Ok(Vec::new()));
            return Ok(());
        }
        // The relative deadline becomes absolute at submission — queue
        // wait counts against it. A deadline too far out to represent
        // means "no deadline".
        let deadline = opts.deadline.and_then(|d| Instant::now().checked_add(d));
        // Health-aware routing: a down shard answers typed, or — when
        // the request permits it — hands the request to a healthy peer.
        let target = self.route_link(&opts, tenant)?;
        let reply = Reply::new(Box::new(on_complete), Arc::clone(&target.counters));
        // A bounded `try_send` is the backpressure policy: a full queue
        // means the collector is saturated, and the honest answer is an
        // immediate `Overloaded`, not an unbounded invisible wait. (No
        // retry-after hint here: the *global* queue is full, so the
        // tenant-backlog estimate does not apply.)
        match target.try_send(Msg::Request(Box::new(Request {
            shots,
            priority: opts.priority,
            tenant: opts.tenant,
            deadline,
            labels,
            reply,
        }))) {
            Ok(()) => Ok(()),
            Err(e) => {
                // A rejected submission must not run its completion —
                // disarm the returned request's reply guard first.
                let (error, msg) = match e {
                    TrySendError::Full(msg) => {
                        target.counters.stats.shed.fetch_add(1, Ordering::Relaxed);
                        target.counters.tenants[tenant].shed.fetch_add(1, Ordering::Relaxed);
                        (ServeError::Overloaded { retry_after: None }, msg)
                    }
                    TrySendError::Disconnected(msg) => {
                        // The collector died between the health check
                        // and the send. An orderly shutdown stays
                        // `Closed`; a crash is a down shard (the
                        // watchdog, if any, will restart it).
                        let error = if target.counters.monitor.is_stopped() {
                            ServeError::Closed
                        } else {
                            target.counters.note_shard_down_rejection();
                            ServeError::ShardDown
                        };
                        (error, msg)
                    }
                };
                if let Msg::Request(req) = msg {
                    req.reply.defuse();
                }
                Err(error)
            }
        }
    }

    /// Picks the link a submission rides: this handle's own shard while
    /// it serves, a healthy peer when it is down and the request allows
    /// failover, a typed [`ServeError::ShardDown`] otherwise.
    fn route_link(&self, opts: &RequestOptions, tenant: usize) -> Result<Arc<ShardLink>, ServeError> {
        let monitor = &self.link.counters.monitor;
        if monitor.is_stopped() {
            return Err(ServeError::Closed);
        }
        if monitor.is_serving() {
            return Ok(Arc::clone(&self.link));
        }
        if opts.allow_failover {
            if let Some(peer) = self.router.as_ref().and_then(|r| r.healthy_peer(self.device)) {
                // Billed to the shard the request was bound to — the
                // failover count is the down shard's story.
                self.link.counters.note_failover(tenant);
                return Ok(peer);
            }
        }
        self.link.counters.note_shard_down_rejection();
        Err(ServeError::ShardDown)
    }

    /// This handle's shard health, restart and down counts — what the
    /// wire health query reports per device.
    pub(crate) fn health_report(&self) -> crate::supervise::ShardHealthReport {
        self.link.counters.report()
    }
}

/// A running micro-batching readout server.
///
/// Dropping the server (or calling [`Self::shutdown`]) closes the intake
/// channel, lets the collector finish the batch in flight, and joins it.
#[derive(Debug)]
pub struct ReadoutServer {
    link: Arc<ShardLink>,
    collector: Option<JoinHandle<()>>,
    /// Kept for collector respawns (shard restart) — a restarted
    /// collector runs the exact configuration the shard started with —
    /// and for the tenant table behind [`Self::tenant_stats`].
    config: ServeConfig,
}

impl ReadoutServer {
    fn assert_config(config: &ServeConfig) {
        assert!(config.max_batch_shots > 0, "max_batch_shots must be non-zero");
        assert!(
            config.max_pending > 0,
            "max_pending must be non-zero (a zero-capacity intake queue would shed everything)"
        );
    }

    /// Starts the server: spawns the collector thread that owns `system`
    /// and serves requests per `config`.
    ///
    /// # Panics
    ///
    /// Panics immediately (not later on the collector thread) if the
    /// configuration is unusable: a zero `max_batch_shots`, a zero
    /// `max_pending`, or an unusable scheduling policy (no tenants, a
    /// zero weight, quantum or quota).
    pub fn start(system: Arc<KlinqSystem>, config: ServeConfig) -> Self {
        Self::assert_config(&config);
        // Built here — not on the collector thread — so an unusable
        // policy panics the caller immediately.
        let sched: Scheduler<Request> = Scheduler::new(&config.sched);
        let counters = Arc::new(Counters::new(&config.sched));
        counters.stats.model_version.store(1, Ordering::Relaxed);
        counters.monitor.beat();
        let (tx, rx) = mpsc::sync_channel(config.max_pending);
        let collector = spawn_collector(system, config.clone(), sched, rx, Arc::clone(&counters));
        Self {
            link: Arc::new(ShardLink::new(tx, counters)),
            collector: Some(collector),
            config,
        }
    }

    /// A shard slot whose device failed to load (quarantined bundle
    /// artifact): no collector, health `Down` from birth. Submissions
    /// answer [`ServeError::ShardDown`] (or fail over); the fleet
    /// watchdog keeps retrying the bundle and brings the shard up via
    /// [`Self::respawn`] once the artifact loads.
    pub(crate) fn vacant(config: ServeConfig) -> Self {
        Self::assert_config(&config);
        let _probe: Scheduler<Request> = Scheduler::new(&config.sched);
        let counters = Arc::new(Counters::new(&config.sched));
        counters.mark_down();
        // A sender whose receiver is already gone: any send fails
        // `Disconnected`, and the health gate answers before that.
        let (tx, _dead_rx) = mpsc::sync_channel(1);
        Self {
            link: Arc::new(ShardLink::new(tx, counters)),
            collector: None,
            config,
        }
    }

    /// Replaces a dead collector with a fresh one serving `system`,
    /// re-pointing every existing client handle (the link swap) at it.
    /// Counters — including model version and supervision counts — are
    /// shared and survive untouched: stats are monotonic across the
    /// restart. The caller (the watchdog) owns the health transitions.
    pub(crate) fn respawn(&mut self, system: Arc<KlinqSystem>) {
        if let Some(handle) = self.collector.take() {
            if handle.is_finished() {
                // Reap the dead collector. Its panic payload is not
                // re-raised — the restart *is* the recovery, and the
                // panic is already counted in the monitor.
                let _ = handle.join();
            }
            // A stuck-but-alive collector cannot be killed; abandoning
            // the handle detaches it. Swapping the link below drops the
            // old intake sender, so if the thread ever unsticks it sees
            // a disconnected channel and exits; requests it still owns
            // are answered by it (late) or by their reply guards.
        }
        let sched: Scheduler<Request> = Scheduler::new(&self.config.sched);
        let (tx, rx) = mpsc::sync_channel(self.config.max_pending);
        let counters = Arc::clone(&self.link.counters);
        let collector = spawn_collector(system, self.config.clone(), sched, rx, counters);
        self.link.swap_tx(tx);
        self.collector = Some(collector);
    }

    /// Whether the collector thread is gone (dead, or never started for
    /// a vacant shard).
    pub(crate) fn collector_finished(&self) -> bool {
        self.collector.as_ref().is_none_or(JoinHandle::is_finished)
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.link.counters
    }

    pub(crate) fn link(&self) -> Arc<ShardLink> {
        Arc::clone(&self.link)
    }

    /// This server's health state (standalone servers have no watchdog,
    /// so only `Healthy`/`Degraded` arise here; fleet shards see the
    /// full machine).
    pub fn health(&self) -> ShardHealth {
        self.counters().monitor.health()
    }

    /// A new client handle for this server.
    pub fn client(&self) -> ReadoutClient {
        ReadoutClient {
            link: Arc::clone(&self.link),
            router: None,
            device: 0,
        }
    }

    /// A fleet client handle: bound to this shard, but able to fail
    /// over through `router` when the shard is down.
    pub(crate) fn client_with_router(&self, router: Arc<Router>, device: usize) -> ReadoutClient {
        ReadoutClient {
            link: Arc::clone(&self.link),
            router: Some(router),
            device,
        }
    }

    /// A snapshot of the coalescing counters (the `wire_*` fields stay
    /// zero here — they belong to a wire front end's own stats).
    pub fn stats(&self) -> ServeStats {
        let health = self.counters().monitor.health();
        ServeStats {
            shards: 1,
            shards_healthy: u64::from(health == ShardHealth::Healthy),
            shards_degraded: u64::from(health == ShardHealth::Degraded),
            shards_down: u64::from(health == ShardHealth::Down),
            shards_restarting: u64::from(health == ShardHealth::Restarting),
            ..self.counters().stats.snapshot()
        }
    }

    /// Per-tenant serving counters, in tenant-table order: throughput,
    /// sheds, deadline misses, and queue-depth gauges for each tenant
    /// declared in [`SchedPolicy::tenants`].
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.config
            .sched
            .tenants
            .iter()
            .zip(&self.counters().tenants)
            .enumerate()
            .map(|(i, (spec, c))| c.snapshot(TenantId(i as u32), spec.name.clone(), spec.weight))
            .collect()
    }

    /// The model version serving right now (starts at 1, bumps on every
    /// swap or promotion).
    pub fn model_version(&self) -> u64 {
        self.counters().stats.model_version.load(Ordering::Relaxed)
    }

    /// Blue/green hot swap: atomically replaces the serving
    /// [`KlinqSystem`] between micro-batches and returns the new model
    /// version. The command queues behind traffic already admitted
    /// (channel FIFO): every request submitted before this call returns
    /// is answered by the old model, every request submitted after it
    /// completes by the new one, and no micro-batch ever mixes the two.
    /// An open batch lingering when the command arrives is closed on the
    /// old model first.
    ///
    /// A staged canary survives the swap untouched — swapping the
    /// primary under a canary is an explicit operator move, not an
    /// implicit abort.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// or [`ServeError::InvalidRequest`] if `system` does not read the
    /// same number of qubits as the serving system.
    pub fn swap_model(&self, system: Arc<KlinqSystem>) -> Result<u64, ServeError> {
        let (ack, ack_rx) = mpsc::channel();
        self.send_control(Control::Swap { system, ack })?;
        ack_rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Stages `system` as the canary candidate: from now on, `fraction`
    /// of micro-batches (by count, spread evenly via a fractional
    /// accumulator) are answered by the candidate, and each canary batch
    /// is also classified by the primary to feed the divergence report
    /// ([`ServeStats::canary_divergence`], `canary_*` fields). Batches
    /// whose shots are too short for the candidate's feature floors stay
    /// on the primary rather than panicking the candidate.
    ///
    /// Staging again replaces the previous candidate; the divergence
    /// counters keep accumulating (snapshot [`Self::stats`] before
    /// staging to scope a report to one candidate).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// or [`ServeError::InvalidRequest`] for a qubit-count mismatch or a
    /// `fraction` outside `0.0..=1.0`.
    pub fn stage_canary(
        &self,
        system: Arc<KlinqSystem>,
        fraction: f64,
    ) -> Result<(), ServeError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(ServeError::InvalidRequest(format!(
                "canary fraction {fraction} outside 0.0..=1.0"
            )));
        }
        let (ack, ack_rx) = mpsc::channel();
        self.send_control(Control::StageCanary {
            system,
            fraction,
            ack,
        })?;
        ack_rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Promotes the staged canary to primary (a hot swap with the same
    /// between-batches atomicity as [`Self::swap_model`]) and returns
    /// the new model version. The canary lane is empty afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// or [`ServeError::InvalidRequest`] if no canary is staged.
    pub fn promote_canary(&self) -> Result<u64, ServeError> {
        let (ack, ack_rx) = mpsc::channel();
        self.send_control(Control::PromoteCanary { ack })?;
        ack_rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Drops the staged canary, if any; returns whether one was staged.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down.
    pub fn abort_canary(&self) -> Result<bool, ServeError> {
        let (ack, ack_rx) = mpsc::channel();
        self.send_control(Control::AbortCanary { ack })?;
        ack_rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Queues a control command behind already-admitted traffic. The
    /// blocking `send` (like shutdown's) rides out a momentarily full
    /// intake queue instead of bouncing the command.
    fn send_control(&self, control: Control) -> Result<(), ServeError> {
        let monitor = &self.link.counters.monitor;
        self.link.send(Msg::Control(control)).map_err(|_| {
            if monitor.is_stopped() || monitor.is_serving() {
                ServeError::Closed
            } else {
                ServeError::ShardDown
            }
        })
    }

    /// Crash-fault injection: makes the collector abort mid-stream
    /// without draining its queues (see [`Control::Kill`]). Admitted
    /// requests die with the thread and are answered
    /// [`ServeError::ShardDown`] by their reply guards.
    pub(crate) fn inject_kill(&self) -> Result<(), ServeError> {
        self.send_control(Control::Kill)
    }

    /// Stops intake, drains the in-flight batch, joins the collector and
    /// returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        // Stopped-first ordering: anything failing from here on — a
        // submission racing teardown, a request buffered past the
        // sentinel — answers `Closed`, not `ShardDown`.
        self.counters().monitor.mark_stopped();
        // An explicit sentinel (rather than relying on sender
        // disconnection) lets shutdown complete even while cloned
        // `ReadoutClient` handles are still alive; the collector finishes
        // the batch in flight and exits, after which those clients fail
        // fast with `ServeError::Closed`. The blocking `send` (not
        // `try_send`) guarantees delivery through a momentarily full
        // intake queue — the collector is draining it, so space appears.
        // (A dead collector's channel errors the send immediately.)
        let _ = self.link.send(Msg::Shutdown);
        if let Some(handle) = self.collector.take() {
            if let Err(payload) = handle.join() {
                // A dead collector is a bug, not a quiet `Closed`: re-raise
                // its panic on the owner — unless it is an injected
                // chaos crash (an exercised recovery path), or teardown
                // is already unwinding, where a second panic would
                // abort.
                if !payload.is::<ChaosCrash>() && !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl Drop for ReadoutServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Spawns one collector thread. Shared by [`ReadoutServer::start`] and
/// [`ReadoutServer::respawn`] — a restarted collector is byte-for-byte
/// the same loop on the same shared counters.
fn spawn_collector(
    system: Arc<KlinqSystem>,
    config: ServeConfig,
    sched: Scheduler<Request>,
    rx: Receiver<Msg>,
    counters: Arc<Counters>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("klinq-serve-collector".into())
        .spawn(move || collector_loop(system, config, sched, &rx, &counters))
        // klinq-lint: allow(no-panic-serve) collector spawn happens once at startup; failing to start is fatal by design
        .expect("spawn readout-server collector")
}

/// Live crash-fault state on the collector (from
/// [`ServeConfig::crash`] or the `KLINQ_CHAOS_CRASH` environment knob).
struct CrashState {
    /// Stateful stream for the transient batch-panic draws.
    batch: Chaos,
    faults: CrashFaults,
}

impl CrashState {
    fn new(faults: CrashFaults) -> Self {
        Self {
            batch: Chaos::new(faults.seed),
            faults,
        }
    }

    /// Transient fault: this engine call panics, but no request in it
    /// is the culprit — every solo replay succeeds.
    fn batch_panic(&mut self) -> bool {
        self.faults.batch_panic_pct > 0 && self.batch.chance(self.faults.batch_panic_pct)
    }

    /// Poison fault: keyed on the request's *content*, so the same
    /// request draws the same verdict in the batch and in its solo
    /// replay — exactly the signature of a genuinely poisonous request.
    fn poisons(&self, shots: &ShotBlock) -> bool {
        self.faults.poison_pct > 0
            && Chaos::new(self.faults.seed ^ fingerprint(shots)).chance(self.faults.poison_pct)
    }
}

/// A cheap deterministic fingerprint of a request's shots (trace
/// shapes plus leading samples) for content-keyed fault draws.
fn fingerprint(shots: &ShotBlock) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(shots.len() as u64);
    for shot in 0..shots.len() {
        for t in 0..shots.traces_of(shot) {
            let (i, q) = shots.trace(shot, t);
            mix(i.len() as u64);
            if let (Some(&i0), Some(&q0)) = (i.first(), q.first()) {
                mix(u64::from(i0.to_bits()));
                mix(u64::from(q0.to_bits()));
            }
        }
    }
    h
}

/// One model as the collector serves it: the system plus its per-qubit
/// feature floors (each qubit's trace must carry at least that qubit's
/// averager output count — 15 for FNN-A, 100 for FNN-B; mid-circuit
/// truncation above the floor stays servable). Floors are checked at
/// intake so a malformed request is rejected with a typed error instead
/// of panicking the collector (which would kill the server for every
/// client).
struct Model {
    system: Arc<KlinqSystem>,
    min_samples: Vec<usize>,
}

impl Model {
    fn new(system: Arc<KlinqSystem>) -> Self {
        let min_samples = system
            .discriminators()
            .iter()
            .map(|d| d.student().pipeline.averager().outputs())
            .collect();
        Self {
            system,
            min_samples,
        }
    }

    /// Classifies one slice (or one request's block). The
    /// [`BatchDiscriminator`] is a borrow wrapper rebuilt per batch
    /// (construction is a handful of asserts), which is what lets the
    /// owned system swap between batches.
    fn classify<S: ShotSource + ?Sized>(&self, backend: Backend, shots: &S) -> Vec<ShotStates> {
        BatchDiscriminator::new(self.system.discriminators()).classify_shots_on(backend, shots)
    }
}

/// The staged canary lane: a candidate model plus its traffic share.
struct Canary {
    model: Model,
    fraction: f64,
    /// Fractional accumulator: `+= fraction` per micro-batch; when it
    /// crosses 1 the batch routes to the candidate. Spreads the share
    /// evenly instead of clumping (and needs no RNG, so canary routing
    /// is deterministic given the batch sequence).
    acc: f64,
}

/// Rejects invalid requests at admission; returns an admitted request.
fn admit(req: Request, min_samples: &[usize]) -> Option<Request> {
    match validate_shots(&req.shots, min_samples) {
        Ok(()) => Some(req),
        Err(msg) => {
            req.reply.send(Err(ServeError::InvalidRequest(msg)));
            None
        }
    }
}

/// Installs `system` as the new primary: the blue/green swap itself.
/// Runs strictly between micro-batches (see [`Control`]).
fn install(
    system: Arc<KlinqSystem>,
    active: &mut Model,
    counters: &Counters,
) -> Result<u64, ServeError> {
    if system.discriminators().len() != active.min_samples.len() {
        return Err(ServeError::InvalidRequest(format!(
            "candidate system reads {} qubits, the serving system reads {}",
            system.discriminators().len(),
            active.min_samples.len()
        )));
    }
    *active = Model::new(system);
    counters.stats.model_swaps.fetch_add(1, Ordering::Relaxed);
    Ok(counters.stats.model_version.fetch_add(1, Ordering::Relaxed) + 1)
}

/// Applies one live-ops command. Called only between micro-batches.
fn apply_control(
    control: Control,
    active: &mut Model,
    canary: &mut Option<Canary>,
    counters: &Counters,
) {
    // A receiver that gave up (dropped its ack) doesn't undo the
    // command — the control was queued and is applied regardless.
    match control {
        Control::Swap { system, ack } => {
            let _ = ack.send(install(system, active, counters));
        }
        Control::StageCanary {
            system,
            fraction,
            ack,
        } => {
            if system.discriminators().len() != active.min_samples.len() {
                let _ = ack.send(Err(ServeError::InvalidRequest(format!(
                    "canary system reads {} qubits, the serving system reads {}",
                    system.discriminators().len(),
                    active.min_samples.len()
                ))));
            } else {
                *canary = Some(Canary {
                    model: Model::new(system),
                    fraction,
                    acc: 0.0,
                });
                let _ = ack.send(Ok(()));
            }
        }
        Control::PromoteCanary { ack } => match canary.take() {
            Some(c) => {
                let _ = ack.send(install(c.model.system, active, counters));
            }
            None => {
                let _ = ack.send(Err(ServeError::InvalidRequest(
                    "no canary model is staged".into(),
                )));
            }
        },
        Control::AbortCanary { ack } => {
            let _ = ack.send(canary.take().is_some());
        }
        // Kill aborts at *receipt* (see `intercept_kill`) — it must not
        // wait its turn behind a queue drain.
        // klinq-lint: allow(no-panic-serve) Kill is intercepted at receipt and never reaches queue dispatch
        Control::Kill => unreachable!("Control::Kill is intercepted at receipt"),
    }
}

/// Crash-fault injection: a [`Control::Kill`] aborts the collector the
/// moment it is dequeued — the thread dies by panic *without* draining
/// its queues, so everything it owns unwinds exactly like a real
/// mid-batch abort (reply guards answer [`ServeError::ShardDown`]).
/// Every receive site passes controls through here.
fn intercept_kill(control: Control) -> Control {
    if matches!(control, Control::Kill) {
        std::panic::resume_unwind(Box::new(ChaosCrash));
    }
    control
}

/// Routes one intake message into the scheduler: validates, checks the
/// deadline, and admits to the tenant's queue — or answers typed right
/// here (invalid / expired / over-quota).
fn route(req: Request, sched: &mut Scheduler<Request>, active: &Model, counters: &Counters) {
    // Tenant ids are validated at submission against the same table, so
    // this is a defensive re-check (a bug upstream must not index out
    // of bounds), not a second policy decision.
    let tenant = req.tenant.0 as usize;
    if tenant >= sched.n_tenants() {
        let id = req.tenant.0;
        req.reply.send(Err(ServeError::UnknownTenant(id)));
        return;
    }
    let Some(req) = admit(req, &active.min_samples) else {
        return;
    };
    if req.deadline.is_some_and(|d| d <= Instant::now()) {
        counters.record_deadline_miss(tenant);
        req.reply.send(Err(ServeError::DeadlineExceeded));
        return;
    }
    let item = QueuedItem {
        cost: req.shots.len(),
        deadline: req.deadline,
        latency: req.priority == Priority::Latency,
        payload: req,
    };
    match sched.admit(tenant, item) {
        Ok(()) => {
            let (queued, queued_shots) = sched.tenant_depth(tenant);
            let t = &counters.tenants[tenant];
            t.queued_requests.store(queued as u64, Ordering::Relaxed);
            t.peak_queued_shots.fetch_max(queued_shots as u64, Ordering::Relaxed);
        }
        Err(item) => {
            // The tenant's own quota is exhausted — everyone else keeps
            // flowing. Unlike the global-queue shed, a backlog estimate
            // exists, so the hint rides along.
            counters.stats.shed.fetch_add(1, Ordering::Relaxed);
            counters.tenants[tenant].shed.fetch_add(1, Ordering::Relaxed);
            let retry_after = sched.retry_after(tenant);
            item.payload.reply.send(Err(ServeError::Overloaded { retry_after }));
        }
    }
}

/// Refreshes the per-tenant queue-depth gauges after dequeues.
fn sync_gauges(sched: &Scheduler<Request>, counters: &Counters) {
    for (tenant, c) in counters.tenants.iter().enumerate() {
        let (queued, _) = sched.tenant_depth(tenant);
        c.queued_requests.store(queued as u64, Ordering::Relaxed);
    }
}

/// One request of an executing slice, after its block moved into the
/// slice's list of blocks.
struct BatchEntry {
    reply: Reply,
    count: usize,
    /// Calibration ground truth (see [`Request`]); empty otherwise.
    labels: Vec<[bool; NUM_QUBITS]>,
    tenant: usize,
    deadline: Option<Instant>,
}

/// Telemetry for one executed engine call (a slice or a solo replay):
/// the shots served plus the drift monitor's running per-qubit excited
/// fractions over the states actually served (whichever model produced
/// them). The counts per close are taken in [`Collector::open`].
fn note_served(counters: &Counters, states: &[ShotStates]) {
    let stats = &counters.stats;
    let shots = states.len() as u64;
    stats.shots.fetch_add(shots, Ordering::Relaxed);
    stats.drift_shots.fetch_add(shots, Ordering::Relaxed);
    let mut excited = [0u64; NUM_QUBITS];
    for row in states {
        for qb in 0..NUM_QUBITS {
            excited[qb] += u64::from(row[qb]);
        }
    }
    for (counter, &n) in stats.drift_excited.iter().zip(&excited) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Delivers one request's share of an executed slice: delivery-time
/// deadline check, calibration scoring, per-tenant and global counters,
/// then the reply. `offset` indexes the request's states inside
/// `states` (0 for a solo replay).
fn settle_one(entry: BatchEntry, states: &[ShotStates], offset: usize, counters: &Counters) {
    let BatchEntry {
        reply,
        count,
        labels,
        tenant,
        deadline,
    } = entry;
    let states = &states[offset..offset + count];
    // Delivery-time deadline check: the slice may have executed
    // past a request's deadline (e.g. behind a long backlog). The
    // states exist but are stale by contract — answering typed here
    // is what makes "an expired request never gets states" exact.
    if deadline.is_some_and(|d| d <= Instant::now()) {
        counters.record_deadline_miss(tenant);
        reply.send(Err(ServeError::DeadlineExceeded));
        return;
    }
    if !labels.is_empty() {
        // Calibration lane: each shot's prepared states score the
        // served states.
        let stats = &counters.stats;
        stats.calib_shots.fetch_add(count as u64, Ordering::Relaxed);
        let mut prep_excited = [0u64; NUM_QUBITS];
        let mut false_excited = [0u64; NUM_QUBITS];
        let mut false_ground = [0u64; NUM_QUBITS];
        for (prepared, got) in labels.iter().zip(states) {
            for qb in 0..NUM_QUBITS {
                if prepared[qb] {
                    prep_excited[qb] += 1;
                    false_ground[qb] += u64::from(!got[qb]);
                } else {
                    false_excited[qb] += u64::from(got[qb]);
                }
            }
        }
        for qb in 0..NUM_QUBITS {
            stats.calib_prepared_excited[qb].fetch_add(prep_excited[qb], Ordering::Relaxed);
            stats.calib_false_excited[qb].fetch_add(false_excited[qb], Ordering::Relaxed);
            stats.calib_false_ground[qb].fetch_add(false_ground[qb], Ordering::Relaxed);
        }
    }
    let t = &counters.tenants[tenant];
    t.requests.fetch_add(1, Ordering::Relaxed);
    t.shots.fetch_add(count as u64, Ordering::Relaxed);
    // Counted before the reply lands: a client that sees its answer
    // must also see it in the stats.
    counters.stats.requests.fetch_add(1, Ordering::Relaxed);
    reply.send(Ok(states.to_vec()));
}

/// The quarantine path after a slice panicked: replay each of its
/// requests *solo*. The batched engine is bitwise-identical for any
/// batch composition, so a solo replay produces exactly the states the
/// slice would have — survivors lose nothing. A request whose solo
/// replay panics again (or that the crash-fault model marks poisonous —
/// its draw is content-keyed, so the solo pass is known doomed and
/// skipped) is the culprit: answered [`ServeError::Poisoned`], never
/// re-batched.
fn replay_solo(
    entries: Vec<BatchEntry>,
    blocks: &[ShotBlock],
    poison: &[bool],
    active: &Model,
    backend: Backend,
    counters: &Counters,
) {
    for ((entry, block), &poisoned) in entries.into_iter().zip(blocks).zip(poison) {
        let solo = if poisoned {
            None
        } else {
            match catch_unwind(AssertUnwindSafe(|| active.classify(backend, block))) {
                Ok(states) => Some(states),
                Err(_) => {
                    counters.note_panic();
                    None
                }
            }
        };
        match solo {
            Some(states) => {
                counters.monitor.note_clean_batch();
                note_served(counters, &states);
                settle_one(entry, &states, 0, counters);
            }
            None => {
                counters.note_poisoned(entry.tenant);
                entry.reply.send(Err(ServeError::Poisoned));
            }
        }
    }
}

/// Requests as the scheduler dequeues them, each with its tenant index.
type Dequeued = Vec<(usize, QueuedItem<Request>)>;

/// Shot floor of one throughput slice of a close that holds a latency
/// request. A slice ends at the first request boundary at or past the
/// floor, so no request is split, and a request larger than the floor
/// is a slice of its own. Between two slices the collector serves the
/// latency requests admitted meanwhile (a cut-in), so a latency request
/// that arrives mid-close waits for one slice, not for the whole close.
/// A close without a latency request is one slice.
///
/// Measured on a 2-vCPU host by classifying 1024 test-set shots per
/// round in engine calls of 64 to 1024 shots (medians of 40 interleaved
/// rounds): the Q16.16 engine spent 3.36–3.49 ms per 1024 shots at
/// every call size, while float calls of 512, 256, 128 and 64 shots
/// cost 2%, 6%, 14% and 33% more per shot than one 1024-shot call. At
/// 128 each 256-shot bulk request of perfbench's `mixed` workload is a
/// slice of its own. Only closes that hold a latency request pay for
/// the smaller calls, so bulk-only traffic never does.
const SLICE_FLOOR_SHOTS: usize = 128;

/// One engine call of a close: whole requests, and the close's canary
/// routing, which every slice of the close follows.
struct Slice {
    items: Dequeued,
    canary: bool,
}

/// Engine time and shots of the clean engine calls of one close and its
/// cut-ins: one sample of the service rate behind retry-after hints.
#[derive(Default)]
struct Service {
    engine: Duration,
    shots: usize,
}

/// The collector: route → coalesce (DRR over tenant queues) → classify
/// → scatter, until disconnect. It owns the serving model, the
/// scheduler and the intake receiver. Live-ops commands apply strictly
/// between closes — and only after every request admitted before them
/// has been answered, by every slice and cut-in of the closes before
/// them — so every request is classified by exactly one model version,
/// and the swap boundary stays exact in submission order.
struct Collector<'a> {
    config: ServeConfig,
    counters: &'a Counters,
    rx: &'a Receiver<Msg>,
    sched: Scheduler<Request>,
    active: Model,
    canary: Option<Canary>,
    crash: Option<CrashState>,
    /// A control read from intake. Intake stops at it: it applies once
    /// the queues have drained, and requests behind it belong to the
    /// post-command model.
    pending_control: Option<Control>,
    /// Shutdown read from intake: answer everything queued, then exit.
    shutting_down: bool,
}

fn collector_loop(
    system: Arc<KlinqSystem>,
    config: ServeConfig,
    sched: Scheduler<Request>,
    rx: &Receiver<Msg>,
    counters: &Counters,
) {
    // How often a blocked collector wakes to stamp its heartbeat. Far
    // below any sane `SuperviseConfig::heartbeat_timeout`, so a live
    // collector is never mistaken for a stuck one.
    const HEARTBEAT_TICK: Duration = Duration::from_millis(25);
    let mut c = Collector {
        crash: config.crash.or_else(chaos::env_crash).map(CrashState::new),
        config,
        counters,
        rx,
        sched,
        active: Model::new(system),
        canary: None,
        pending_control: None,
        shutting_down: false,
    };
    loop {
        // Idle: nothing queued, so controls apply immediately and the
        // collector costs (almost) nothing blocking on `recv_timeout` —
        // it wakes only to stamp the heartbeat the watchdog reads.
        while c.sched.is_empty() {
            if c.shutting_down {
                return;
            }
            counters.monitor.beat();
            match rx.recv_timeout(HEARTBEAT_TICK) {
                Ok(Msg::Request(req)) => route(*req, &mut c.sched, &c.active, counters),
                Ok(Msg::Control(ctl)) => {
                    apply_control(intercept_kill(ctl), &mut c.active, &mut c.canary, counters);
                }
                Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // Linger: admit traffic until a close condition — the shot
        // budget fills, a latency request arrives, the linger window or
        // the oldest queued deadline (minus slack) expires, or a
        // control/shutdown needs the queues drained first.
        //
        // Soak up everything already queued *before* consulting the
        // close conditions, without waiting. A backlog one batch deep
        // would otherwise skip the linger loop entirely and starve
        // intake until it drained — a flooded server would stop
        // admitting (and stop seeing latency-class closes) exactly when
        // fair scheduling matters most.
        c.drain_intake();
        // `checked_add` because huge lingers (`Duration::MAX` as "wait
        // until the budget fills") overflow `Instant` arithmetic; `None`
        // means "no linger deadline".
        let linger_close = Instant::now().checked_add(c.config.max_linger);
        while !c.shutting_down
            && c.pending_control.is_none()
            && !c.sched.has_latency()
            && c.sched.queued_shots() < c.config.max_batch_shots
        {
            let now = Instant::now();
            // The batch closes `deadline_slack` ahead of the oldest
            // queued deadline, so classification lands before the
            // deadline rather than at it. (`unwrap_or(now)`: a slack
            // larger than the remaining wait means "close now".)
            let deadline_close = c
                .sched
                .earliest_deadline()
                .map(|d| d.checked_sub(c.config.sched.deadline_slack).unwrap_or(now));
            let close_at = match (linger_close, deadline_close) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            // `recv_timeout` drains already-queued messages even with a
            // zero remaining budget, so an expired linger still soaks
            // up whatever arrived meanwhile — it just never *waits*.
            // The wait is capped at `HEARTBEAT_TICK` so a lingering
            // collector (even one lingering forever on
            // `Duration::MAX`) keeps stamping its heartbeat.
            let remaining = close_at
                .map_or(HEARTBEAT_TICK, |at| {
                    at.saturating_duration_since(now).min(HEARTBEAT_TICK)
                });
            match rx.recv_timeout(remaining) {
                Ok(Msg::Request(req)) => route(*req, &mut c.sched, &c.active, counters),
                Ok(Msg::Control(ctl)) => {
                    // A control arriving mid-linger closes the open
                    // batch — everything admitted before it is answered
                    // by the pre-command model — and applies after the
                    // queues drain.
                    c.pending_control = Some(intercept_kill(ctl));
                }
                Ok(Msg::Shutdown) => {
                    // Answer everything queued, then exit.
                    c.shutting_down = true;
                }
                Err(RecvTimeoutError::Timeout) => {
                    counters.monitor.beat();
                    // A heartbeat wakeup is not a close condition: only
                    // an actually-expired close deadline ends the
                    // linger.
                    if close_at.is_some_and(|at| Instant::now() >= at) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Close: fail expired requests typed, then execute — one close
        // per linger epoch normally, a drain to empty ahead of a
        // control or shutdown (the FIFO boundary of live-ops commands
        // is exact: every request admitted before the command is
        // answered by the pre-command model).
        loop {
            counters.monitor.beat();
            c.fail_expired();
            let close = c.sched.assemble(c.config.max_batch_shots);
            if !close.is_empty() {
                c.execute(close);
            }
            if (c.pending_control.is_none() && !c.shutting_down) || c.sched.is_empty() {
                break;
            }
        }
        sync_gauges(&c.sched, counters);
        if let Some(ctl) = c.pending_control.take() {
            apply_control(ctl, &mut c.active, &mut c.canary, counters);
        }
        if c.shutting_down && c.sched.is_empty() {
            return;
        }
    }
}

impl Collector<'_> {
    /// Routes whatever intake already holds, without waiting. Stops at a
    /// control or shutdown: requests behind a control belong to the
    /// post-command model.
    fn drain_intake(&mut self) {
        while self.pending_control.is_none() && !self.shutting_down {
            match self.rx.try_recv() {
                Ok(Msg::Request(req)) => route(*req, &mut self.sched, &self.active, self.counters),
                Ok(Msg::Control(c)) => self.pending_control = Some(intercept_kill(c)),
                Ok(Msg::Shutdown) => self.shutting_down = true,
                // Disconnected: the queued work still gets answered;
                // the idle loop observes the hangup once drained.
                Err(_) => break,
            }
        }
    }

    /// Answers every queued request whose deadline has passed with
    /// [`ServeError::DeadlineExceeded`].
    fn fail_expired(&mut self) {
        for (tenant, item) in self.sched.take_expired(Instant::now()) {
            self.counters.record_deadline_miss(tenant);
            item.payload.reply.send(Err(ServeError::DeadlineExceeded));
        }
    }

    /// Executes one close to its end. Its latency requests are answered
    /// first, in one engine call of their own; its throughput requests
    /// then run in whole-request slices. Between two slices the
    /// collector drains intake without waiting, and when a latency
    /// request is queued it fails expired requests typed and serves a
    /// cut-in — the latency requests with the same-tenant predecessors
    /// [`Scheduler::take_latency`] brings along, a close of its own —
    /// before the next slice. The service-rate estimate gets one sample
    /// for the close, its cut-ins included.
    fn execute(&mut self, close: Dequeued) {
        // The slices still to run, the next one last: a cut-in's slices
        // go on top, so they run before the rest of the close it cut.
        let mut pending = Vec::new();
        let mut service = Service::default();
        self.open(close, &mut pending, &mut service);
        while let Some(slice) = pending.pop() {
            self.run_slice(slice, &mut service);
            if pending.is_empty() {
                break;
            }
            self.counters.monitor.beat();
            self.drain_intake();
            if self.sched.has_latency() {
                self.fail_expired();
                let cut_in = self.sched.take_latency();
                if !cut_in.is_empty() {
                    self.open(cut_in, &mut pending, &mut service);
                }
            }
        }
        if service.shots > 0 {
            let ns_per_shot = service.engine.as_nanos() as f64 / service.shots as f64;
            self.sched.observe_service(ns_per_shot);
        }
    }

    /// Opens one close (an assembled batch or a cut-in): counts it,
    /// decides its canary routing, answers its latency requests in one
    /// engine call, and puts its throughput requests on top of `pending`
    /// as whole-request slices — of at least [`SLICE_FLOOR_SHOTS`] when
    /// the close holds a latency request, else one slice.
    fn open(&mut self, close: Dequeued, pending: &mut Vec<Slice>, service: &mut Service) {
        let stats = &self.counters.stats;
        let latency = close.iter().filter(|(_, item)| item.latency).count();
        let shots: usize = close.iter().map(|(_, item)| item.cost).sum();
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats
            .largest_batch
            .fetch_max(shots as u64, Ordering::Relaxed);
        if latency > 0 {
            stats
                .latency_requests
                .fetch_add(latency as u64, Ordering::Relaxed);
            stats.expedited_batches.fetch_add(1, Ordering::Relaxed);
        }
        // Canary routing, once per close, so every response is one
        // model's work. A close whose shots undercut the candidate's
        // feature floors stays on the primary (a shorter-trace candidate
        // must not panic on still-valid production traffic).
        let mut canary = false;
        if let Some(c) = self.canary.as_mut() {
            let servable = close
                .iter()
                .all(|(_, item)| validate_shots(&item.payload.shots, &c.model.min_samples).is_ok());
            if servable {
                c.acc += c.fraction;
                if c.acc >= 1.0 {
                    c.acc -= 1.0;
                    canary = true;
                    stats.canary_batches.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let (first, mut rest): (Dequeued, Dequeued) =
            close.into_iter().partition(|(_, item)| item.latency);
        if !first.is_empty() {
            self.run_slice(
                Slice {
                    items: first,
                    canary,
                },
                service,
            );
        }
        // Each slice ends at the first request boundary at or past the
        // floor; with no latency request the floor is never reached.
        let floor = if latency > 0 {
            SLICE_FLOOR_SHOTS
        } else {
            usize::MAX
        };
        let mut slices = Vec::new();
        while !rest.is_empty() {
            let mut shots = 0;
            let end = rest
                .iter()
                .position(|(_, item)| {
                    shots += item.cost;
                    shots >= floor
                })
                .map_or(rest.len(), |i| i + 1);
            let tail = rest.split_off(end);
            slices.push(Slice {
                items: std::mem::replace(&mut rest, tail),
                canary,
            });
        }
        pending.extend(slices.into_iter().rev());
    }

    /// Runs one slice as one engine call, under the panic quarantine and
    /// on the model its close was routed to, then answers its requests.
    /// A slice that panics replays only its own requests solo
    /// ([`replay_solo`]): requests that earlier slices answered are never
    /// classified or answered again. Requests whose deadline expired
    /// while the slice executed are answered
    /// [`ServeError::DeadlineExceeded`] — an expired request never
    /// receives states.
    fn run_slice(&mut self, slice: Slice, service: &mut Service) {
        let counters = self.counters;
        let backend = self.config.backend;
        // Each request keeps its own block; the engine reads them back to
        // back as one batch, so no shot is copied or moved shot by shot.
        let mut blocks = Vec::with_capacity(slice.items.len());
        let mut entries = Vec::with_capacity(slice.items.len());
        for (tenant, item) in slice.items {
            let req = item.payload;
            entries.push(BatchEntry {
                reply: req.reply,
                count: req.shots.len(),
                labels: req.labels,
                tenant,
                deadline: item.deadline,
            });
            blocks.push(req.shots);
        }
        let shots = BlockBatch::new(&blocks);

        // Crash-fault draws — pure decisions, taken before the unwind
        // boundary. Poison is content-keyed per request; the transient
        // draw consumes its stream once per engine call.
        let poison: Vec<bool> = match self.crash.as_ref() {
            Some(cr) => blocks.iter().map(|b| cr.poisons(b)).collect(),
            None => vec![false; blocks.len()],
        };
        let injected =
            poison.iter().any(|&p| p) || self.crash.as_mut().is_some_and(CrashState::batch_panic);
        let active = &self.active;
        let candidate = self
            .canary
            .as_ref()
            .filter(|_| slice.canary)
            .map(|c| &c.model);

        let started = Instant::now();
        // The quarantine boundary: a panicking slice — injected or
        // genuine — must cost one slice's replay, never the collector.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                // `resume_unwind`, not `panic!`: injected crashes skip the
                // default panic hook, so an exercised recovery path prints
                // no backtrace. Genuine panics stay loud.
                std::panic::resume_unwind(Box::new(ChaosCrash));
            }
            // A canary slice serves the candidate's answer and keeps the
            // primary's for the divergence report.
            let canary_states = candidate.map(|model| model.classify(backend, &shots));
            (canary_states, active.classify(backend, &shots))
        }));
        let (canary_states, primary_states) = match outcome {
            Ok(classified) => classified,
            Err(_) => {
                counters.note_panic();
                replay_solo(entries, &blocks, &poison, active, backend, counters);
                return;
            }
        };
        counters.monitor.note_clean_batch();
        // The measured service rate drives retry-after hints; canary
        // double-classification is real work the backlog waits behind, so
        // it counts.
        let n_shots = shots.shot_count();
        service.engine += started.elapsed();
        service.shots += n_shots;
        let stats = &counters.stats;
        let states = match &canary_states {
            Some(cs) => {
                stats
                    .canary_requests
                    .fetch_add(entries.len() as u64, Ordering::Relaxed);
                stats
                    .canary_shots
                    .fetch_add(n_shots as u64, Ordering::Relaxed);
                let mut divergent = 0u64;
                let mut disagreements = [0u64; NUM_QUBITS];
                for (c_row, p_row) in cs.iter().zip(&primary_states) {
                    let mut any = false;
                    for qb in 0..NUM_QUBITS {
                        if c_row[qb] != p_row[qb] {
                            disagreements[qb] += 1;
                            any = true;
                        }
                    }
                    divergent += u64::from(any);
                }
                stats
                    .canary_divergent_shots
                    .fetch_add(divergent, Ordering::Relaxed);
                for (counter, &n) in stats.canary_disagreements.iter().zip(&disagreements) {
                    counter.fetch_add(n, Ordering::Relaxed);
                }
                cs
            }
            None => &primary_states,
        };

        note_served(counters, states);

        let mut offset = 0;
        for entry in entries {
            let count = entry.count;
            settle_one(entry, states, offset, counters);
            offset += count;
        }
    }
}

/// Checks a request's shots against the serving system's front-end
/// requirements: one trace per qubit, paired I/Q lengths, and at least
/// that qubit's own averager floor per channel (`min_samples[qb]`).
fn validate_shots(shots: &ShotBlock, min_samples: &[usize]) -> Result<(), String> {
    for idx in 0..shots.len() {
        let traces = shots.traces_of(idx);
        if traces != min_samples.len() {
            return Err(format!(
                "shot {idx} carries {traces} traces, expected {}",
                min_samples.len()
            ));
        }
        for (qb, &floor) in min_samples.iter().enumerate() {
            let (i, q) = shots.trace(idx, qb);
            if i.len() != q.len() {
                return Err(format!(
                    "shot {idx} qubit {qb}: I has {} samples but Q has {}",
                    i.len(),
                    q.len()
                ));
            }
            if i.len() < floor {
                return Err(format!(
                    "shot {idx} qubit {qb}: {} samples per channel, \
                     its feature front end needs at least {floor}",
                    i.len()
                ));
            }
        }
    }
    Ok(())
}
