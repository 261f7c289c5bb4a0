//! Multi-tenant QoS scheduling: weighted fair intake with quotas and
//! deadlines.
//!
//! FIFO intake has a fairness hole: one greedy client saturating the
//! queue starves every other tenant behind it. This module closes it
//! with **deficit round-robin (DRR) weighted fair queueing** — the
//! layer between the wire and the micro-batcher:
//!
//! - Every request carries a [`TenantId`] (see [`RequestOptions`])
//!   naming a tenant declared in [`SchedPolicy::tenants`].
//! - Each tenant owns a **bounded queue**: admitting a request past the
//!   tenant's [`TenantSpec::max_queued_shots`] quota sheds it with
//!   [`crate::ServeError::Overloaded`] carrying a retry-after hint
//!   (estimated from the tenant's backlog and the measured service
//!   rate), while every other tenant keeps flowing.
//! - Micro-batches are assembled by **DRR**: each round, a tenant's
//!   deficit grows by `quantum_shots × weight` and it may dequeue
//!   requests until the deficit is spent. Over time every backlogged
//!   tenant receives a throughput share proportional to its weight, no
//!   matter how aggressively another tenant floods.
//! - Closing is **deadline-aware**: a batch closes early when the
//!   oldest queued request's deadline (minus
//!   [`SchedPolicy::deadline_slack`]) nears, and a request whose
//!   deadline has already passed is answered with
//!   [`crate::ServeError::DeadlineExceeded`] instead of stale work —
//!   at admission, while queued, and again at delivery, so an expired
//!   request never yields an `Ok`.
//!
//! Batches may mix tenants freely: the batched engine's results are
//! bitwise-identical for every batch composition, so fairness
//! scheduling never changes what any request's answer *is*, only when
//! it arrives.
//!
//! # Examples
//!
//! Declaring a policy — a paying tenant with 4× the weight of two
//! best-effort tenants, each best-effort tenant capped at 4096 queued
//! shots:
//!
//! ```
//! use klinq_serve::{SchedPolicy, TenantSpec};
//!
//! let policy = SchedPolicy::new(vec![
//!     TenantSpec::new("paid", 4),
//!     TenantSpec::new("best-effort-a", 1).with_quota(4096),
//!     TenantSpec::new("best-effort-b", 1).with_quota(4096),
//! ]);
//! assert_eq!(policy.tenants.len(), 3);
//! ```
//!
//! Serving under it — tenants are addressed by their index in the
//! policy via [`RequestOptions`]:
//!
//! ```no_run
//! use klinq_serve::{
//!     ReadoutServer, RequestOptions, SchedPolicy, ServeConfig, TenantId, TenantSpec,
//! };
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn system() -> Arc<klinq_core::KlinqSystem> { unimplemented!() }
//! let config = ServeConfig {
//!     sched: SchedPolicy::new(vec![
//!         TenantSpec::new("paid", 4),
//!         TenantSpec::new("best-effort", 1).with_quota(4096),
//!     ]),
//!     ..ServeConfig::default()
//! };
//! let server = ReadoutServer::start(system(), config);
//! let client = server.client();
//! let opts = RequestOptions::new()
//!     .tenant(TenantId(1))
//!     .deadline(Duration::from_millis(5));
//! let shots: Vec<klinq_serve::Shot> = vec![/* shots */];
//! let states = client.classify_shots_opts(opts, shots)?;
//! for tenant in server.tenant_stats() {
//!     println!("{}: {} shots, {} shed", tenant.name, tenant.shots, tenant.shed);
//! }
//! # Ok::<(), klinq_serve::ServeError>(())
//! ```

pub use crate::metrics::TenantStats;
use crate::server::Priority;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Identifies a tenant: an index into [`SchedPolicy::tenants`].
///
/// Tenant ids travel the wire verbatim in every request frame, so they
/// are plain `u32`s rather than handles — an unknown id is rejected with
/// a typed [`crate::ServeError::UnknownTenant`] at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant (index 0) — the whole story for single-tenant
    /// deployments, which is why [`RequestOptions::default`] uses it.
    pub const DEFAULT: TenantId = TenantId(0);
}

/// One tenant's share contract: its scheduling weight and intake quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Operator-facing name, surfaced in [`TenantStats`].
    pub name: String,
    /// Relative throughput share under contention: a weight-4 tenant
    /// receives 4× the shots of a weight-1 tenant while both are
    /// backlogged. Must be ≥ 1.
    pub weight: u32,
    /// Quota on queued shots: a request that would push the tenant's
    /// backlog past this bound is shed with
    /// [`crate::ServeError::Overloaded`] (retry-after hint included)
    /// instead of queued. `usize::MAX` means "no per-tenant bound" —
    /// the global [`crate::ServeConfig::max_pending`] still applies.
    pub max_queued_shots: usize,
}

impl TenantSpec {
    /// A tenant with the given name and weight, and no per-tenant quota.
    pub fn new(name: &str, weight: u32) -> Self {
        Self {
            name: name.to_string(),
            weight,
            max_queued_shots: usize::MAX,
        }
    }

    /// Caps the tenant's backlog at `max_queued_shots` queued shots.
    #[must_use]
    pub fn with_quota(mut self, max_queued_shots: usize) -> Self {
        self.max_queued_shots = max_queued_shots;
        self
    }
}

/// The scheduling policy of a server: its tenant table and the DRR /
/// deadline tuning knobs. Part of [`crate::ServeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedPolicy {
    /// The tenant table. [`TenantId`] `n` is `tenants[n]`; requests
    /// naming an id outside the table fail typed with
    /// [`crate::ServeError::UnknownTenant`].
    pub tenants: Vec<TenantSpec>,
    /// DRR quantum, in shots: how much deficit a weight-1 tenant earns
    /// per scheduling round. Smaller quanta interleave tenants more
    /// finely; the default (64) keeps scheduling overhead negligible
    /// against classification cost.
    pub quantum_shots: usize,
    /// How far ahead of the oldest queued deadline a lingering batch
    /// closes — budget for the classification itself, so the answer
    /// lands *before* the deadline, not at it.
    pub deadline_slack: Duration,
}

impl SchedPolicy {
    /// A policy over the given tenants with default tuning.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self {
            tenants,
            ..Self::default()
        }
    }
}

impl Default for SchedPolicy {
    /// A single unconstrained tenant named `default` — byte-for-byte
    /// the pre-QoS FIFO behaviour.
    fn default() -> Self {
        Self {
            tenants: vec![TenantSpec::new("default", 1)],
            quantum_shots: 64,
            deadline_slack: Duration::from_micros(200),
        }
    }
}

/// Per-request submission options: scheduling lane, tenant, deadline.
///
/// `Default` is a [`Priority::Throughput`] request on the default
/// tenant with no deadline — exactly what the plain `classify_shots`
/// entry points submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestOptions {
    /// Scheduling lane (see [`Priority`]).
    pub priority: Priority,
    /// The tenant this request bills to.
    pub tenant: TenantId,
    /// Relative deadline: how long after submission the answer is still
    /// useful. Expired requests are answered with
    /// [`crate::ServeError::DeadlineExceeded`], never with stale
    /// states, and the oldest queued deadline pulls batch closing
    /// forward. `None` means "no deadline".
    pub deadline: Option<Duration>,
    /// Permit health-aware failover: when the request's shard is `Down`
    /// or `Restarting`, route it to a healthy peer shard instead of
    /// answering [`crate::ServeError::ShardDown`]. Off by default —
    /// failing over is only correct when every shard serves an
    /// equivalent model (e.g. replicas of one device), and only the
    /// caller knows that.
    pub allow_failover: bool,
}

impl RequestOptions {
    /// The default options (throughput lane, default tenant, no
    /// deadline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scheduling lane.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets a relative deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Permits routing this request to a healthy peer shard when its
    /// own shard is down (see [`Self::allow_failover`]).
    #[must_use]
    pub fn failover(mut self, allow: bool) -> Self {
        self.allow_failover = allow;
        self
    }
}

// ---------------------------------------------------------------------
// The DRR scheduler proper (collector-side, single-threaded).
// ---------------------------------------------------------------------

/// One queued request as the scheduler sees it: its shot cost, timing
/// class, and an opaque payload (the serve layer's request; unit tests
/// use plain markers).
#[derive(Debug)]
pub(crate) struct QueuedItem<T> {
    /// Shots this request contributes to a batch.
    pub cost: usize,
    /// Absolute deadline, if the request carries one.
    pub deadline: Option<Instant>,
    /// [`Priority::Latency`] — closes the batch it joins immediately,
    /// and is answered ahead of that batch's throughput requests.
    pub latency: bool,
    pub payload: T,
}

struct TenantQueue<T> {
    weight: u64,
    quota: usize,
    queue: VecDeque<QueuedItem<T>>,
    queued_shots: usize,
    /// DRR deficit, in shots. Signed: a tenant may overdraw to dequeue
    /// a request bigger than its remaining deficit (requests are never
    /// split), paying the debt back over later rounds.
    deficit: i64,
}

/// Deficit-round-robin weighted fair queues, one per tenant.
///
/// Single-threaded by design: the collector thread owns it outright, so
/// admission, expiry and batch assembly need no locks.
pub(crate) struct Scheduler<T> {
    tenants: Vec<TenantQueue<T>>,
    /// Next tenant the DRR scan starts from, so service resumes where
    /// the previous batch left off instead of favouring tenant 0.
    cursor: usize,
    /// The cursor tenant's visit is still open: the batch filled while
    /// it held deficit. The next batch resumes its service *without*
    /// granting a fresh quantum — otherwise a tenant whose weighted
    /// quantum exceeds the batch budget would restart a full visit
    /// every batch and starve everyone behind it.
    mid_visit: bool,
    quantum: u64,
    queued_requests: usize,
    queued_shots: usize,
    latency_queued: usize,
    /// EWMA of observed service cost, for retry-after hints. 0 until
    /// the first batch completes.
    ewma_ns_per_shot: f64,
}

impl<T> Scheduler<T> {
    pub fn new(policy: &SchedPolicy) -> Self {
        assert!(!policy.tenants.is_empty(), "sched policy declares no tenants");
        assert!(policy.quantum_shots > 0, "sched quantum_shots must be non-zero");
        for spec in &policy.tenants {
            assert!(spec.weight > 0, "tenant `{}` has zero weight", spec.name);
            assert!(
                spec.max_queued_shots > 0,
                "tenant `{}` has a zero shot quota (it could never receive a request)",
                spec.name
            );
        }
        Self {
            tenants: policy
                .tenants
                .iter()
                .map(|spec| TenantQueue {
                    weight: u64::from(spec.weight),
                    quota: spec.max_queued_shots,
                    queue: VecDeque::new(),
                    queued_shots: 0,
                    deficit: 0,
                })
                .collect(),
            cursor: 0,
            mid_visit: false,
            quantum: policy.quantum_shots as u64,
            queued_requests: 0,
            queued_shots: 0,
            latency_queued: 0,
            ewma_ns_per_shot: 0.0,
        }
    }

    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queued_requests == 0
    }

    pub fn queued_shots(&self) -> usize {
        self.queued_shots
    }

    /// Queued requests and shots of one tenant (gauge snapshots).
    pub fn tenant_depth(&self, tenant: usize) -> (usize, usize) {
        let t = &self.tenants[tenant];
        (t.queue.len(), t.queued_shots)
    }

    /// Whether any queued request rides the latency lane (the batch
    /// must close now).
    pub fn has_latency(&self) -> bool {
        self.latency_queued > 0
    }

    /// Admits a request to its tenant's queue, or hands it back when
    /// the tenant's quota is exhausted (the caller sheds it typed).
    pub fn admit(&mut self, tenant: usize, item: QueuedItem<T>) -> Result<(), QueuedItem<T>> {
        let t = &mut self.tenants[tenant];
        // `saturating_add`: a quota of usize::MAX must admit regardless
        // of the incoming cost.
        if t.queued_shots.saturating_add(item.cost) > t.quota {
            return Err(item);
        }
        t.queued_shots += item.cost;
        self.queued_requests += 1;
        self.queued_shots += item.cost;
        self.latency_queued += usize::from(item.latency);
        t.queue.push_back(item);
        Ok(())
    }

    /// The earliest deadline among all queued requests, if any carries
    /// one. Linear in the backlog — bounded by the intake queue, and
    /// paid once per collector wakeup, not per request.
    pub fn earliest_deadline(&self) -> Option<Instant> {
        self.tenants
            .iter()
            .flat_map(|t| t.queue.iter())
            .filter_map(|item| item.deadline)
            .min()
    }

    /// Removes every queued request whose deadline is at or before
    /// `now`, returning them (with their tenant index) for the caller
    /// to answer with [`crate::ServeError::DeadlineExceeded`].
    pub fn take_expired(&mut self, now: Instant) -> Vec<(usize, QueuedItem<T>)> {
        let mut expired = Vec::new();
        for (ti, t) in self.tenants.iter_mut().enumerate() {
            if t.queue.iter().all(|item| item.deadline.is_none_or(|d| d > now)) {
                continue;
            }
            // Rotate through the queue once, keeping live requests in
            // order and extracting expired ones.
            for _ in 0..t.queue.len() {
                // klinq-lint: allow(no-panic-serve) the loop is bounded by queue.len(), so pop_front cannot fail
                let item = t.queue.pop_front().expect("length-bounded loop");
                if item.deadline.is_some_and(|d| d <= now) {
                    t.queued_shots -= item.cost;
                    self.queued_requests -= 1;
                    self.queued_shots -= item.cost;
                    self.latency_queued -= usize::from(item.latency);
                    expired.push((ti, item));
                } else {
                    t.queue.push_back(item);
                }
            }
        }
        expired
    }

    /// Assembles one micro-batch of at least `budget` shots (or until
    /// the queues drain): DRR over the tenant queues, FIFO within each.
    /// A request is never split, so the batch may overshoot the budget
    /// by at most one request.
    ///
    /// When latency-lane requests are queued, they — and their
    /// same-tenant FIFO predecessors — are force-included first
    /// ([`Self::take_latency`]), then DRR fills the remaining budget.
    pub fn assemble(&mut self, budget: usize) -> Vec<(usize, QueuedItem<T>)> {
        let mut out = self.take_latency();
        let mut shots: usize = out.iter().map(|(_, item)| item.cost).sum();
        let n = self.tenants.len();
        while shots < budget && self.queued_requests > 0 {
            // Skip to the next backlogged tenant. Terminates:
            // `queued_requests > 0` guarantees one exists. Classic DRR:
            // an idle tenant forfeits its deficit (and any debt)
            // instead of hoarding service.
            while self.tenants[self.cursor].queue.is_empty() {
                self.tenants[self.cursor].deficit = 0;
                self.mid_visit = false;
                self.cursor = (self.cursor + 1) % n;
            }
            let ti = self.cursor;
            // One quantum per *visit*, not per batch: a visit paused by
            // a full batch resumes on its remaining deficit.
            if !self.mid_visit {
                self.tenants[ti].deficit += (self.quantum * self.tenants[ti].weight) as i64;
                self.mid_visit = true;
            }
            while self.tenants[ti].deficit > 0 && shots < budget {
                let Some(item) = self.pop_front(ti) else { break };
                shots += item.cost;
                out.push((ti, item));
            }
            if self.tenants[ti].deficit <= 0 || self.tenants[ti].queue.is_empty() {
                // The visit ended on its own terms (deficit spent, or
                // queue drained — which forfeits leftover deficit);
                // move on. A batch-full pause leaves the visit open.
                if self.tenants[ti].queue.is_empty() {
                    self.tenants[ti].deficit = 0;
                }
                self.mid_visit = false;
                self.cursor = (self.cursor + 1) % n;
            }
        }
        out
    }

    /// Dequeues every queued latency-lane request together with its
    /// same-tenant FIFO predecessors, tenant by tenant, and nothing
    /// else. The predecessors ride along because each tenant's queue is
    /// FIFO; every request is still charged against its tenant's
    /// deficit, so the latency lane is not a fairness bypass. This is
    /// the head of every [`Self::assemble`], and the whole of a cut-in
    /// that the collector serves between two slices of a running close.
    pub fn take_latency(&mut self) -> Vec<(usize, QueuedItem<T>)> {
        let mut out = Vec::new();
        if self.latency_queued > 0 {
            for ti in 0..self.tenants.len() {
                while self.tenant_has_latency(ti) {
                    // klinq-lint: allow(no-panic-serve) tenant_has_latency just confirmed a queued latency request
                    let item = self.pop_front(ti).expect("latency request is queued");
                    out.push((ti, item));
                }
            }
        }
        out
    }

    fn tenant_has_latency(&self, tenant: usize) -> bool {
        self.tenants[tenant].queue.iter().any(|item| item.latency)
    }

    /// Pops a tenant's oldest request, charging its cost to the
    /// tenant's deficit and the global gauges.
    fn pop_front(&mut self, tenant: usize) -> Option<QueuedItem<T>> {
        let t = &mut self.tenants[tenant];
        let item = t.queue.pop_front()?;
        t.deficit -= item.cost as i64;
        t.queued_shots -= item.cost;
        self.queued_requests -= 1;
        self.queued_shots -= item.cost;
        self.latency_queued -= usize::from(item.latency);
        Some(item)
    }

    /// Feeds one batch's measured service cost into the retry-after
    /// estimator.
    pub fn observe_service(&mut self, ns_per_shot: f64) {
        if !ns_per_shot.is_finite() || ns_per_shot <= 0.0 {
            return;
        }
        self.ewma_ns_per_shot = if self.ewma_ns_per_shot == 0.0 {
            ns_per_shot
        } else {
            0.8 * self.ewma_ns_per_shot + 0.2 * ns_per_shot
        };
    }

    /// How long a shed client should wait before retrying: the time to
    /// serve the tenant's current backlog at the measured service rate,
    /// clamped to a sane band. `None` before the first batch completed
    /// (no estimate is more honest than a guess).
    pub fn retry_after(&self, tenant: usize) -> Option<Duration> {
        if self.ewma_ns_per_shot == 0.0 {
            return None;
        }
        let backlog = self.tenants[tenant].queued_shots.max(1) as f64;
        let ns = (backlog * self.ewma_ns_per_shot).min(5e9);
        Some(Duration::from_nanos(ns as u64).max(Duration::from_micros(100)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(cost: usize) -> QueuedItem<u32> {
        QueuedItem {
            cost,
            deadline: None,
            latency: false,
            payload: 0,
        }
    }

    fn policy(specs: &[(&str, u32, usize)]) -> SchedPolicy {
        SchedPolicy::new(
            specs
                .iter()
                .map(|&(name, weight, quota)| TenantSpec::new(name, weight).with_quota(quota))
                .collect(),
        )
    }

    #[test]
    fn default_policy_is_one_unbounded_tenant() {
        let p = SchedPolicy::default();
        assert_eq!(p.tenants.len(), 1);
        assert_eq!(p.tenants[0].max_queued_shots, usize::MAX);
        assert_eq!(p.tenants[0].weight, 1);
    }

    #[test]
    fn single_tenant_preserves_fifo_order() {
        let mut s = Scheduler::new(&SchedPolicy::default());
        for i in 0..5u32 {
            let mut it = item(10);
            it.payload = i;
            s.admit(0, it).unwrap();
        }
        let batch = s.assemble(usize::MAX);
        let order: Vec<u32> = batch.iter().map(|(_, it)| it.payload).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn quota_hands_the_request_back() {
        let mut s = Scheduler::new(&policy(&[("a", 1, 25)]));
        s.admit(0, item(20)).unwrap();
        let bounced = s.admit(0, item(10)).unwrap_err();
        assert_eq!(bounced.cost, 10);
        // Draining the queue frees the quota again.
        let drained = s.assemble(usize::MAX);
        assert_eq!(drained.len(), 1);
        s.admit(0, item(10)).unwrap();
    }

    #[test]
    fn weights_shape_shares_under_backlog() {
        // Two backlogged tenants, weight 3 vs 1: over a long run the
        // dequeued shot shares must approach 3:1.
        let mut s = Scheduler::new(&policy(&[
            ("heavy", 3, usize::MAX),
            ("light", 1, usize::MAX),
        ]));
        let mut served = [0usize; 2];
        for _round in 0..200 {
            for ti in 0..2 {
                while s.tenant_depth(ti).0 < 32 {
                    s.admit(ti, item(8)).unwrap();
                }
            }
            for (ti, it) in s.assemble(128) {
                served[ti] += it.cost;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "weight-3 tenant served {}, weight-1 served {} (ratio {ratio:.2}, want ~3)",
            served[0],
            served[1]
        );
    }

    #[test]
    fn equal_weights_split_evenly_regardless_of_request_size() {
        // Tenant 0 sends big requests, tenant 1 small ones; equal
        // weights must still serve roughly equal shot totals.
        let mut s = Scheduler::new(&policy(&[("big", 1, usize::MAX), ("small", 1, usize::MAX)]));
        let mut served = [0usize; 2];
        for _round in 0..300 {
            while s.tenant_depth(0).1 < 1000 {
                s.admit(0, item(100)).unwrap();
            }
            while s.tenant_depth(1).1 < 1000 {
                s.admit(1, item(3)).unwrap();
            }
            for (ti, it) in s.assemble(128) {
                served[ti] += it.cost;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "equal-weight tenants served {} vs {} shots (ratio {ratio:.2})",
            served[0],
            served[1]
        );
    }

    #[test]
    fn oversized_request_is_dequeued_whole() {
        let mut s = Scheduler::new(&SchedPolicy::default());
        s.admit(0, item(10_000)).unwrap();
        let batch = s.assemble(64);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].1.cost, 10_000);
    }

    #[test]
    fn latency_requests_are_force_included() {
        // Small budget, two tenants; tenant 1's queue ends in a latency
        // request. Assembly must include it (and its predecessor) even
        // though DRR would have stopped at the budget inside tenant 0.
        let mut s = Scheduler::new(&policy(&[("bulk", 1, usize::MAX), ("rt", 1, usize::MAX)]));
        for _ in 0..8 {
            s.admit(0, item(64)).unwrap();
        }
        s.admit(1, item(4)).unwrap();
        let mut rt = item(1);
        rt.latency = true;
        s.admit(1, rt).unwrap();
        assert!(s.has_latency());
        let batch = s.assemble(64);
        assert!(
            batch.iter().any(|(ti, it)| *ti == 1 && it.latency),
            "latency request missing from the expedited batch"
        );
        assert!(!s.has_latency());
    }

    #[test]
    fn take_latency_dequeues_latency_requests_and_their_predecessors_only() {
        // Tenant 0 queues bulk work only; tenant 1 queues bulk, a latency
        // request, then more bulk. The cut-in takes tenant 1's head up to
        // and including its latency request, charged to its deficit, and
        // leaves everything else queued in order.
        let mut s = Scheduler::new(&policy(&[("bulk", 1, usize::MAX), ("rt", 1, usize::MAX)]));
        let queued = [(0, 64, 1), (0, 64, 2), (1, 4, 3), (1, 1, 4), (1, 8, 5)];
        for (tenant, cost, payload) in queued {
            let mut it = item(cost);
            it.payload = payload;
            it.latency = payload == 4;
            s.admit(tenant, it).unwrap();
        }
        let cut_in = s.take_latency();
        let taken: Vec<(usize, u32)> = cut_in.iter().map(|(ti, it)| (*ti, it.payload)).collect();
        assert_eq!(taken, vec![(1, 3), (1, 4)]);
        assert!(!s.has_latency());
        assert_eq!(s.tenants[1].deficit, -5);
        assert_eq!(s.queued_shots(), 64 + 64 + 8);
        assert!(
            s.take_latency().is_empty(),
            "no latency request left to take"
        );
        // DRR serves what is left, FIFO within each tenant.
        let rest: Vec<(usize, u32)> = s
            .assemble(usize::MAX)
            .iter()
            .map(|(ti, it)| (*ti, it.payload))
            .collect();
        assert_eq!(rest, vec![(0, 1), (1, 5), (0, 2)]);
    }

    #[test]
    fn expired_requests_are_extracted_in_order() {
        let mut s = Scheduler::new(&SchedPolicy::default());
        let now = Instant::now();
        let mut dead = item(5);
        dead.deadline = Some(now - Duration::from_millis(1));
        dead.payload = 7;
        let mut live = item(5);
        live.deadline = Some(now + Duration::from_secs(60));
        s.admit(0, item(5)).unwrap();
        s.admit(0, dead).unwrap();
        s.admit(0, live).unwrap();
        assert_eq!(s.earliest_deadline(), Some(now - Duration::from_millis(1)));
        let expired = s.take_expired(now);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1.payload, 7);
        // Survivors keep FIFO order and the gauges stay consistent.
        assert_eq!(s.queued_shots(), 10);
        let batch = s.assemble(usize::MAX);
        assert_eq!(batch.len(), 2);
        assert_eq!(s.queued_shots(), 0);
    }

    #[test]
    fn idle_tenant_forfeits_its_deficit() {
        let mut s = Scheduler::new(&policy(&[("a", 1, usize::MAX), ("b", 1, usize::MAX)]));
        // Tenant 1 idles while tenant 0 drains many rounds; when tenant
        // 1 wakes it must not have hoarded hundreds of quanta.
        for _ in 0..100 {
            s.admit(0, item(64)).unwrap();
            let _ = s.assemble(64);
        }
        s.admit(0, item(64)).unwrap();
        s.admit(1, item(64)).unwrap();
        let batch = s.assemble(10_000);
        assert_eq!(batch.len(), 2, "both tenants drain in one generous batch");
    }

    #[test]
    fn retry_after_tracks_backlog_and_service_rate() {
        let mut s = Scheduler::new(&SchedPolicy::default());
        assert_eq!(s.retry_after(0), None, "no hint before the first batch");
        s.observe_service(1000.0); // 1 µs per shot
        s.admit(0, item(10_000)).unwrap();
        let hint = s.retry_after(0).expect("estimate available");
        // 10_000 shots × 1 µs = 10 ms.
        assert!(
            hint >= Duration::from_millis(5) && hint <= Duration::from_millis(20),
            "hint {hint:?} should be near 10 ms"
        );
    }
}
