//! Every serve metric, declared once.
//!
//! A `metrics!` table row is one metric: its doc comment, name, type
//! (`u64`, or `[u64; NUM_QUBITS]` per qubit) and fleet-merge rule
//! (`sum` or `max`). From one table the macro generates the public
//! snapshot struct, a crate-private block of one atomic per field (the
//! serve path updates it with plain `fetch_add`/`fetch_max`/`store`;
//! `snapshot()` loads it), and the snapshot's `merge`. Adding a metric
//! is one row plus the lines that update it.

use crate::sched::TenantId;
use crate::server::NUM_QUBITS;
use std::sync::atomic::{AtomicU64, Ordering};
// Named only by the field docs' links.
#[cfg(doc)]
use crate::server::{Priority, ReadoutClient, ReadoutServer, ServeError};
#[cfg(doc)]
use crate::{
    sched::{RequestOptions, SchedPolicy, TenantSpec},
    supervise::ShardHealth,
};

/// A metric's value type: its atomic slot, and the merge rules a table
/// row names (element-wise for per-qubit arrays).
pub(crate) trait Metric: Copy {
    type Atomic: Default + std::fmt::Debug;
    fn load(slot: &Self::Atomic) -> Self;
    fn sum(self, other: Self) -> Self;
    fn max(self, other: Self) -> Self;
}

impl Metric for u64 {
    type Atomic = AtomicU64;
    fn load(slot: &AtomicU64) -> Self {
        slot.load(Ordering::Relaxed)
    }
    fn sum(self, other: Self) -> Self {
        self + other
    }
    fn max(self, other: Self) -> Self {
        Ord::max(self, other)
    }
}

impl Metric for [u64; NUM_QUBITS] {
    type Atomic = [AtomicU64; NUM_QUBITS];
    fn load(slot: &Self::Atomic) -> Self {
        std::array::from_fn(|qb| slot[qb].load(Ordering::Relaxed))
    }
    fn sum(self, other: Self) -> Self {
        std::array::from_fn(|qb| self[qb] + other[qb])
    }
    fn max(self, other: Self) -> Self {
        std::array::from_fn(|qb| Ord::max(self[qb], other[qb]))
    }
}

/// Declares a snapshot struct and its atomics from one table. Leading
/// `pub` fields identify the subject (they are not metrics):
/// `snapshot()` takes them as arguments, and `merge` copies them from
/// `self` after running the optional guard on `(self, other)`.
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        pub struct $Stats:ident in $Atomics:ident {
            $( $(#[doc = $kdoc:literal])* pub $key:ident: $kty:ty, )*
            metrics {
                $( $(#[doc = $doc:literal])* $name:ident: $ty:ty = $rule:ident, )*
            }
        }
        $( $(#[doc = $mdoc:literal])* merge($a:pat, $b:pat) $guard:block )?
    ) => {
        $(#[$meta])*
        pub struct $Stats {
            $( $(#[doc = $kdoc])* pub $key: $kty, )*
            $(
                $(#[doc = $doc])*
                #[doc = ""]
                #[doc = concat!("Fleet merge: `", stringify!($rule), "`.")]
                pub $name: $ty,
            )*
        }

        impl $Stats {
            /// Aggregates another shard's snapshot into a fleet view, each
            /// field by the merge rule its doc states (`sum` adds,
            /// element-wise for per-qubit arrays; `max` keeps the larger).
            $( $(#[doc = $mdoc])* )?
            pub fn merge(&self, other: &Self) -> Self {
                $( let ($a, $b) = (self, other); $guard )?
                Self {
                    $( $key: Clone::clone(&self.$key), )*
                    $( $name: <$ty as Metric>::$rule(self.$name, other.$name), )*
                }
            }
        }

        #[doc = concat!("[`", stringify!($Stats), "`] as live atomics, one per field.")]
        #[derive(Debug, Default)]
        pub(crate) struct $Atomics {
            $( pub(crate) $name: <$ty as Metric>::Atomic, )*
        }

        impl $Atomics {
            #[doc = concat!("Loads every field into a [`", stringify!($Stats), "`].")]
            pub(crate) fn snapshot(&self, $($key: $kty),*) -> $Stats {
                $Stats {
                    $($key,)*
                    $( $name: Metric::load(&self.$name), )*
                }
            }
        }
    };
}

metrics! {
    /// A point-in-time snapshot of a server's coalescing behaviour.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ServeStats in ServeAtomics {
        metrics {
            /// Requests answered.
            requests: u64 = sum,
            /// Shots classified.
            shots: u64 = sum,
            /// Micro-batches executed (closes), each counted once however
            /// many engine calls it ran in. A latency cut-in served between
            /// two slices of a close is a close of its own.
            batches: u64 = sum,
            /// Largest micro-batch, in shots.
            largest_batch: u64 = max,
            /// Requests shed with [`ServeError::Overloaded`] because the intake
            /// queue was full.
            shed: u64 = sum,
            /// Answered requests that carried [`Priority::Latency`].
            latency_requests: u64 = sum,
            /// Micro-batches that closed early — skipping the linger window —
            /// because they contained a [`Priority::Latency`] request.
            expedited_batches: u64 = sum,
            /// Requests answered with [`ServeError::DeadlineExceeded`] because
            /// their deadline expired before classification completed (summed
            /// over all tenants; [`ReadoutServer::tenant_stats`] splits it).
            deadline_misses: u64 = sum,
            /// TCP connections a wire front end accepted over its lifetime
            /// (0 for a purely in-process server).
            wire_accepted: u64 = sum,
            /// Wire connections reaped for exceeding the idle timeout.
            wire_reaped: u64 = sum,
            /// Wire connections open right now.
            wire_open: u64 = sum,
            /// High-water mark of simultaneously open wire connections.
            wire_peak_open: u64 = max,
            /// The model version serving right now. Starts at 1 and bumps on
            /// every hot swap or canary promotion. In a merged fleet view this is
            /// the max across shards (shards version independently).
            model_version: u64 = max,
            /// Hot model swaps applied (including canary promotions).
            model_swaps: u64 = sum,
            /// Requests answered by the canary (candidate) model.
            canary_requests: u64 = sum,
            /// Shots classified by the canary model.
            canary_shots: u64 = sum,
            /// Micro-batches routed to the canary model.
            canary_batches: u64 = sum,
            /// Canary shots on which the candidate and primary disagreed on at
            /// least one qubit. `canary_divergent_shots / canary_shots` is the
            /// divergence rate an operator checks before promoting.
            canary_divergent_shots: u64 = sum,
            /// Per-qubit count of canary shots where candidate and primary
            /// disagreed on that qubit's state.
            canary_disagreements: [u64; NUM_QUBITS] = sum,
            /// Shots feeding the drift monitor: every shot the server answered
            /// (served states, whichever model produced them).
            drift_shots: u64 = sum,
            /// Per-qubit count of served shots read as excited. The running
            /// excited fraction ([`Self::excited_fraction`]) drifting away from
            /// its commissioning value is the label-free drift signal.
            drift_excited: [u64; NUM_QUBITS] = sum,
            /// Calibration shots answered (requests submitted through
            /// [`ReadoutClient::classify_calibration_shots`], which carry their
            /// prepared states as ground truth).
            calib_shots: u64 = sum,
            /// Per-qubit count of calibration shots prepared excited.
            calib_prepared_excited: [u64; NUM_QUBITS] = sum,
            /// Per-qubit count of calibration shots prepared ground but read
            /// excited (the `P(1|0)` confusion numerator).
            calib_false_excited: [u64; NUM_QUBITS] = sum,
            /// Per-qubit count of calibration shots prepared excited but read
            /// ground (the `P(0|1)` confusion numerator).
            calib_false_ground: [u64; NUM_QUBITS] = sum,
            // Health gauges: never stored, `ReadoutServer::stats` computes them.
            /// Shards in this view (1 for a single server; summed in a fleet
            /// merge, so the `shards_*` gauges below read as "out of N").
            shards: u64 = sum,
            /// Shards currently [`ShardHealth::Healthy`].
            shards_healthy: u64 = sum,
            /// Shards currently [`ShardHealth::Degraded`] (still serving).
            shards_degraded: u64 = sum,
            /// Shards currently [`ShardHealth::Down`].
            shards_down: u64 = sum,
            /// Shards currently [`ShardHealth::Restarting`].
            shards_restarting: u64 = sum,
            /// Micro-batch panics the quarantine caught (monotonic).
            panics: u64 = sum,
            /// Requests answered [`ServeError::Poisoned`] (monotonic).
            poisoned: u64 = sum,
            /// Transitions into [`ShardHealth::Down`] (monotonic — with
            /// [`Self::restarts`], the observable trace of every
            /// `Down → Restarting → Healthy` recovery).
            downs: u64 = sum,
            /// Completed shard restarts (monotonic).
            restarts: u64 = sum,
            /// Requests rerouted to a healthy peer while their shard was down
            /// ([`RequestOptions::allow_failover`]).
            failovers: u64 = sum,
            /// Requests answered [`ServeError::ShardDown`].
            shard_down_rejections: u64 = sum,
            /// Duration of the most recent `Down → Healthy` recovery, in µs
            /// (max across shards in a fleet merge; 0 before any restart).
            recovery_us: u64 = max,
        }
    }
}

impl ServeStats {
    /// Mean shots per executed micro-batch (0 when nothing ran yet).
    pub fn mean_batch_shots(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.shots as f64 / self.batches as f64
        }
    }

    /// Running fraction of served shots read as excited on one qubit
    /// (`None` until anything was served). Tracked label-free over every
    /// answered shot; a sustained move away from the value observed at
    /// commissioning is the cheapest drift alarm.
    pub fn excited_fraction(&self, qb: usize) -> Option<f64> {
        (self.drift_shots > 0).then(|| self.drift_excited[qb] as f64 / self.drift_shots as f64)
    }

    /// Running assignment fidelity on one qubit over the calibration
    /// lane (`None` until calibration shots were served): the fraction
    /// of calibration shots whose served state matched the prepared
    /// state.
    pub fn calibration_fidelity(&self, qb: usize) -> Option<f64> {
        (self.calib_shots > 0).then(|| {
            let errors = self.calib_false_excited[qb] + self.calib_false_ground[qb];
            1.0 - errors as f64 / self.calib_shots as f64
        })
    }

    /// Running confusion estimates on one qubit over the calibration
    /// lane: `(P(read 1 | prepared 0), P(read 0 | prepared 1))`. Either
    /// side is `None` until its prepared class has been observed.
    pub fn confusion(&self, qb: usize) -> (Option<f64>, Option<f64>) {
        let prep_excited = self.calib_prepared_excited[qb];
        let prep_ground = self.calib_shots - prep_excited;
        (
            (prep_ground > 0).then(|| self.calib_false_excited[qb] as f64 / prep_ground as f64),
            (prep_excited > 0).then(|| self.calib_false_ground[qb] as f64 / prep_excited as f64),
        )
    }

    /// Fraction of canary shots where the candidate disagreed with the
    /// primary on at least one qubit (`None` until the canary served).
    /// The number an operator checks before
    /// [`ReadoutServer::promote_canary`].
    pub fn canary_divergence(&self) -> Option<f64> {
        (self.canary_shots > 0)
            .then(|| self.canary_divergent_shots as f64 / self.canary_shots as f64)
    }
}

metrics! {
    /// A point-in-time snapshot of one tenant's serving counters.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TenantStats in TenantAtomics {
        /// The tenant's id (its index in [`SchedPolicy::tenants`]).
        pub id: TenantId,
        /// The tenant's name from its [`TenantSpec`].
        pub name: String,
        /// The tenant's scheduling weight.
        pub weight: u32,
        metrics {
            /// Requests answered with states.
            requests: u64 = sum,
            /// Shots answered with states.
            shots: u64 = sum,
            /// Requests shed with [`crate::ServeError::Overloaded`] — the
            /// tenant's quota or the global intake bound.
            shed: u64 = sum,
            /// Requests answered with [`crate::ServeError::DeadlineExceeded`].
            deadline_misses: u64 = sum,
            /// Requests answered with [`crate::ServeError::Poisoned`] — they
            /// deterministically panicked classification and were quarantined.
            poisoned: u64 = sum,
            /// Requests this tenant submitted to a down shard that were routed
            /// to a healthy peer ([`RequestOptions::allow_failover`]). Counted
            /// on the shard the request was originally bound to.
            failovers: u64 = sum,
            /// Requests queued right now (a gauge; summed across shards in the
            /// fleet view).
            queued_requests: u64 = sum,
            /// High-water mark of the tenant's queued shots.
            peak_queued_shots: u64 = max,
        }
    }
    ///
    /// The identity fields (`id`, `name`, `weight`) come from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` describes a different tenant — merging across
    /// tenant tables is a caller bug.
    merge(this, other) {
        assert_eq!(this.id, other.id, "merging stats of different tenants");
    }
}

#[cfg(test)]
mod tests {
    use crate::{ServeStats, TenantId, TenantStats};

    /// Expands rows `field: a, b => merged;` into the struct literals
    /// `(a, b, merged)`, each led by its own fixed (non-metric) fields.
    macro_rules! rows {
        (
            $S:ident { $($a0:tt)* } { $($b0:tt)* } { $($m0:tt)* }
            $($f:ident: $a:expr, $b:expr => $m:expr;)*
        ) => {
            (
                $S { $($a0)* $($f: $a,)* },
                $S { $($b0)* $($f: $b,)* },
                $S { $($m0)* $($f: $m,)* },
            )
        };
    }

    /// The fleet-merge oracle, written out by hand: `largest_batch`,
    /// `wire_peak_open`, `model_version` and `recovery_us` take the max
    /// (the larger side alternates, so "keep self" or "keep other"
    /// fails), every other field adds, per-qubit arrays element-wise.
    #[test]
    fn merge_takes_the_max_of_peaks_and_sums_everything_else() {
        let (a, b, merged) = rows!(ServeStats {} {} {}
            requests: 1, 101 => 102;
            shots: 2, 202 => 204;
            batches: 3, 303 => 306;
            largest_batch: 4, 404 => 404;
            shed: 5, 505 => 510;
            latency_requests: 6, 606 => 612;
            expedited_batches: 7, 707 => 714;
            deadline_misses: 8, 808 => 816;
            wire_accepted: 9, 909 => 918;
            wire_reaped: 10, 1010 => 1020;
            wire_open: 11, 1111 => 1122;
            wire_peak_open: 1212, 12 => 1212;
            model_version: 13, 1313 => 1313;
            model_swaps: 14, 1414 => 1428;
            canary_requests: 15, 1515 => 1530;
            canary_shots: 16, 1616 => 1632;
            canary_batches: 17, 1717 => 1734;
            canary_divergent_shots: 18, 1818 => 1836;
            canary_disagreements: [19, 20, 21, 22, 23], [1900, 2000, 2100, 2200, 2300]
                => [1919, 2020, 2121, 2222, 2323];
            drift_shots: 24, 2424 => 2448;
            drift_excited: [25, 26, 27, 28, 29], [2500, 2600, 2700, 2800, 2900]
                => [2525, 2626, 2727, 2828, 2929];
            calib_shots: 30, 3030 => 3060;
            calib_prepared_excited: [31, 32, 33, 34, 35], [3100, 3200, 3300, 3400, 3500]
                => [3131, 3232, 3333, 3434, 3535];
            calib_false_excited: [36, 37, 38, 39, 40], [3600, 3700, 3800, 3900, 4000]
                => [3636, 3737, 3838, 3939, 4040];
            calib_false_ground: [41, 42, 43, 44, 45], [4100, 4200, 4300, 4400, 4500]
                => [4141, 4242, 4343, 4444, 4545];
            shards: 46, 4646 => 4692;
            shards_healthy: 47, 4747 => 4794;
            shards_degraded: 48, 4848 => 4896;
            shards_down: 49, 4949 => 4998;
            shards_restarting: 50, 5050 => 5100;
            panics: 51, 5151 => 5202;
            poisoned: 52, 5252 => 5304;
            downs: 53, 5353 => 5406;
            restarts: 54, 5454 => 5508;
            failovers: 55, 5555 => 5610;
            shard_down_rejections: 56, 5656 => 5712;
            recovery_us: 5757, 57 => 5757;
        );
        assert_eq!(a.merge(&b), merged);
        assert_eq!(b.merge(&a), merged, "the fleet merge is symmetric");
    }

    /// `(a, b, merged)` for one tenant on two shards: counters add, the
    /// queue peak takes the max, and the identity fields come from
    /// `self` (`b` carries another name and weight to show it).
    fn tenant_rows() -> (TenantStats, TenantStats, TenantStats) {
        rows!(TenantStats
            { id: TenantId(2), name: "qec".into(), weight: 4, }
            { id: TenantId(2), name: "qec-b".into(), weight: 9, }
            { id: TenantId(2), name: "qec".into(), weight: 4, }
            requests: 1, 101 => 102;
            shots: 2, 202 => 204;
            shed: 3, 303 => 306;
            deadline_misses: 4, 404 => 408;
            poisoned: 5, 505 => 510;
            failovers: 6, 606 => 612;
            queued_requests: 7, 707 => 714;
            peak_queued_shots: 808, 8 => 808;
        )
    }

    #[test]
    fn tenant_merge_takes_the_peak_and_sums_the_counters() {
        let (a, b, merged) = tenant_rows();
        assert_eq!(a.merge(&b), merged);
    }

    #[test]
    #[should_panic(expected = "merging stats of different tenants")]
    fn tenant_merge_refuses_a_different_tenant() {
        let (a, mut b, _) = tenant_rows();
        b.id = TenantId(3);
        let _ = a.merge(&b);
    }
}
