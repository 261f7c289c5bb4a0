//! Shard supervision: health states, heartbeat watchdog, restart.
//!
//! A production fleet treats a dead shard as a routine, observable,
//! recoverable event — never a process-wide failure. This module is the
//! machinery behind that contract:
//!
//! - **Panic quarantine** (in the collector, [`crate::ReadoutServer`]):
//!   micro-batch classification runs under `catch_unwind`. When a batch
//!   panics, every request in it replays *solo* — the batched engine is
//!   bitwise-identical for any batch composition, so solo replays
//!   produce exactly the states the batch would have. A request whose
//!   solo replay panics again is the culprit: it is answered with a
//!   typed [`crate::ServeError::Poisoned`] and never re-batched, while
//!   everyone else gets their states. One hostile request costs one
//!   extra classification pass, not the server.
//! - **Health state machine** ([`ShardHealth`]): every shard is
//!   `Healthy`, `Degraded` (a recent caught panic; serving normally,
//!   promoted back to `Healthy` after a run of clean batches), `Down`
//!   (collector dead or its heartbeat stale), or `Restarting`.
//! - **Heartbeat watchdog** (the crate-internal `Supervisor`): the
//!   collector stamps a
//!   heartbeat on every scheduling wakeup; a fleet-level watchdog
//!   thread detects dead collectors (thread finished) immediately and
//!   stuck ones (stale heartbeat) within
//!   [`SuperviseConfig::heartbeat_timeout`], marks the shard `Down`,
//!   and restarts it after [`SuperviseConfig::restart_backoff`]: the
//!   device's [`KlinqSystem`] is reloaded from the deploy bundle (or
//!   the retained in-memory system when the fleet was started from
//!   systems, or has hot-swapped since deploy) and a fresh collector
//!   resumes on the *same* counters — [`crate::ServeStats`] is
//!   monotonic over the shard's lifetime, never reset by a restart.
//! - **Health-aware intake** (in [`crate::ReadoutClient`]): submitting
//!   to a `Down`/`Restarting` shard answers a typed
//!   [`crate::ServeError::ShardDown`], or — when the request opts in
//!   with [`crate::RequestOptions::allow_failover`] — routes to a
//!   healthy peer shard.
//!
//! Nothing here is speculative recovery: in-flight requests owned by a
//! dead collector are answered `ShardDown` (the reply guard fires when
//! the collector's queues unwind), never silently dropped and never
//! resubmitted by the server — classification is pure, so *callers*
//! retry safely, and the wire client surfaces the typed error for
//! exactly that purpose.

use crate::server::ReadoutServer;
use klinq_core::{persist, KlinqSystem};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One shard's position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Serving, but a micro-batch panicked recently (the quarantine
    /// caught it). Promoted back to [`Self::Healthy`] after a run of
    /// clean batches. Requests still route here.
    Degraded,
    /// The collector is dead (thread exited) or stuck (heartbeat older
    /// than [`SuperviseConfig::heartbeat_timeout`]). Requests answer
    /// [`crate::ServeError::ShardDown`] or fail over.
    Down,
    /// The watchdog is bringing a fresh collector up. Routes like
    /// [`Self::Down`]; the window is typically sub-millisecond.
    Restarting,
}

impl ShardHealth {
    /// Wire encoding (see [`crate::wire`]'s health query).
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            Self::Healthy => 0,
            Self::Degraded => 1,
            Self::Down => 2,
            Self::Restarting => 3,
        }
    }

    /// Decodes the wire byte; `None` for an unknown value.
    pub(crate) fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::Healthy),
            1 => Some(Self::Degraded),
            2 => Some(Self::Down),
            3 => Some(Self::Restarting),
            _ => None,
        }
    }
}

/// Supervision tuning (part of [`crate::ServeConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// How stale a collector's heartbeat may grow before the watchdog
    /// declares the shard [`ShardHealth::Down`]. Must comfortably
    /// exceed the longest single micro-batch classification; the
    /// default is conservative. Dead collectors (thread exited) are
    /// detected immediately regardless.
    pub heartbeat_timeout: Duration,
    /// How often the watchdog sweeps the fleet.
    pub watchdog_interval: Duration,
    /// How long a shard stays [`ShardHealth::Down`] before a restart
    /// attempt — and between failed attempts (a crash-looping shard
    /// must not spin the watchdog). Tests widen this to observe the
    /// `Down` window deterministically.
    pub restart_backoff: Duration,
}

impl Default for SuperviseConfig {
    /// 5 s heartbeat timeout, 25 ms watchdog sweep, 100 ms restart
    /// backoff.
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(5),
            watchdog_interval: Duration::from_millis(25),
            restart_backoff: Duration::from_millis(100),
        }
    }
}

/// One shard's health as reported over the wire health query
/// ([`crate::WireClient::fleet_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// The shard's current health state.
    pub health: ShardHealth,
    /// Completed restarts over the shard's lifetime (monotonic).
    pub restarts: u64,
    /// Transitions into [`ShardHealth::Down`] over the shard's lifetime
    /// (monotonic).
    pub downs: u64,
}

/// Panic payload for injected crashes ([`crate::chaos::CrashFaults`]
/// and [`crate::ShardedReadoutServer::kill_shard`]). Teardown swallows
/// panics carrying this marker — an injected crash is an exercised
/// recovery path, not a bug to re-raise on the owner.
pub(crate) struct ChaosCrash;

/// Consecutive clean micro-batches that promote a [`ShardHealth::Degraded`]
/// shard back to [`ShardHealth::Healthy`].
const DEGRADED_CLEAN_BATCHES: u64 = 32;

const STATE_HEALTHY: u8 = 0;
const STATE_DEGRADED: u8 = 1;
const STATE_DOWN: u8 = 2;
const STATE_RESTARTING: u8 = 3;

/// One shard's health state machine: state, heartbeat, `Down` spell
/// and clean-batch run. Lives inside the shard's shared counter block
/// (whose `note_*`/`mark_*` methods count the events that drive it), so
/// it survives collector restarts by construction.
#[derive(Debug)]
pub(crate) struct ShardMonitor {
    state: AtomicU8,
    /// Orderly shutdown: submissions answer `Closed`, not `ShardDown`,
    /// and the watchdog leaves the shard alone.
    stopped: AtomicBool,
    /// Time zero for the `*_us` stamps below.
    epoch: Instant,
    heartbeat_us: AtomicU64,
    down_since_us: AtomicU64,
    clean_batches: AtomicU64,
}

impl Default for ShardMonitor {
    fn default() -> Self {
        Self {
            state: AtomicU8::new(STATE_HEALTHY),
            stopped: AtomicBool::new(false),
            epoch: Instant::now(),
            heartbeat_us: AtomicU64::new(0),
            down_since_us: AtomicU64::new(0),
            clean_batches: AtomicU64::new(0),
        }
    }
}

impl ShardMonitor {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub(crate) fn health(&self) -> ShardHealth {
        match self.state.load(Ordering::Relaxed) {
            STATE_DEGRADED => ShardHealth::Degraded,
            STATE_DOWN => ShardHealth::Down,
            STATE_RESTARTING => ShardHealth::Restarting,
            _ => ShardHealth::Healthy,
        }
    }

    /// Routes here — `Healthy` or `Degraded` shards still serve.
    pub(crate) fn is_serving(&self) -> bool {
        matches!(self.health(), ShardHealth::Healthy | ShardHealth::Degraded)
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    pub(crate) fn mark_stopped(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// The collector stamps this on every scheduling wakeup.
    pub(crate) fn beat(&self) {
        self.heartbeat_us.store(self.now_us(), Ordering::Relaxed);
    }

    pub(crate) fn heartbeat_age(&self) -> Duration {
        Duration::from_micros(
            self.now_us().saturating_sub(self.heartbeat_us.load(Ordering::Relaxed)),
        )
    }

    /// How long the shard has been in its current `Down` spell.
    pub(crate) fn down_for(&self) -> Duration {
        Duration::from_micros(
            self.now_us().saturating_sub(self.down_since_us.load(Ordering::Relaxed)),
        )
    }

    /// A caught micro-batch panic: restart the clean run and degrade a
    /// healthy shard. A run of clean batches promotes it back.
    pub(crate) fn degrade(&self) {
        self.clean_batches.store(0, Ordering::Relaxed);
        let _ = self.state.compare_exchange(
            STATE_HEALTHY,
            STATE_DEGRADED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// A micro-batch that classified without a panic.
    pub(crate) fn note_clean_batch(&self) {
        if self.state.load(Ordering::Relaxed) != STATE_DEGRADED {
            return;
        }
        if self.clean_batches.fetch_add(1, Ordering::Relaxed) + 1 >= DEGRADED_CLEAN_BATCHES {
            let _ = self.state.compare_exchange(
                STATE_DEGRADED,
                STATE_HEALTHY,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Starts a `Down` spell.
    pub(crate) fn enter_down(&self) {
        self.down_since_us.store(self.now_us(), Ordering::Relaxed);
        self.state.store(STATE_DOWN, Ordering::Relaxed);
    }

    pub(crate) fn mark_restarting(&self) {
        self.state.store(STATE_RESTARTING, Ordering::Relaxed);
    }

    /// A restart attempt that could not produce a system: back to
    /// `Down` (same spell — `downs` counts transitions, not attempts).
    pub(crate) fn restart_failed(&self) {
        self.state.store(STATE_DOWN, Ordering::Relaxed);
    }

    /// A fresh collector is serving: end the spell and go `Healthy`.
    pub(crate) fn enter_healthy(&self) {
        self.clean_batches.store(0, Ordering::Relaxed);
        self.beat();
        self.state.store(STATE_HEALTHY, Ordering::Relaxed);
    }
}

/// Where a restart gets the shard's [`KlinqSystem`].
///
/// A bundle-deployed shard that has never hot-swapped reloads from the
/// bundle artifact (a true cold reload, through the checksum-verified
/// persistence path). A shard started from an in-memory system — or one
/// that has hot-swapped since deploy — restarts from the retained
/// in-memory system, which tracks every applied swap/promotion.
#[derive(Debug)]
pub(crate) struct RestartSource {
    retained: Mutex<Option<Arc<KlinqSystem>>>,
    bundle: Option<PathBuf>,
    device: usize,
    /// A hot swap or canary promotion happened: the bundle no longer
    /// describes what this shard serves.
    swapped: AtomicBool,
}

impl RestartSource {
    pub(crate) fn from_system(system: Arc<KlinqSystem>) -> Self {
        Self {
            retained: Mutex::new(Some(system)),
            bundle: None,
            device: 0,
            swapped: AtomicBool::new(false),
        }
    }

    /// `system` is `None` for a device whose artifact was quarantined
    /// at load — the shard boots `Down` and the watchdog keeps retrying
    /// the bundle.
    pub(crate) fn from_bundle(
        bundle: PathBuf,
        device: usize,
        system: Option<Arc<KlinqSystem>>,
    ) -> Self {
        Self {
            retained: Mutex::new(system),
            bundle: Some(bundle),
            device,
            swapped: AtomicBool::new(false),
        }
    }

    /// Records a hot swap/promotion: future restarts resume from this
    /// system, not the (now stale) bundle.
    pub(crate) fn retain_swapped(&self, system: Arc<KlinqSystem>) {
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        *self.retained.lock().unwrap() = Some(system);
        self.swapped.store(true, Ordering::Relaxed);
    }

    /// The system a restart should serve, or `None` when no source is
    /// currently loadable (stays `Down`, retried next backoff).
    fn resolve(&self) -> Option<Arc<KlinqSystem>> {
        if let Some(path) = &self.bundle {
            if !self.swapped.load(Ordering::Relaxed) {
                if let Ok(system) = persist::load_bundle_device(path, self.device) {
                    let system = Arc::new(system);
                    // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
                    *self.retained.lock().unwrap() = Some(Arc::clone(&system));
                    return Some(system);
                }
            }
        }
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        self.retained.lock().unwrap().clone()
    }
}

/// The fleet watchdog: one thread sweeping every shard's health.
#[derive(Debug)]
pub(crate) struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    pub(crate) fn spawn(
        shards: Arc<Vec<Mutex<ReadoutServer>>>,
        sources: Arc<Vec<RestartSource>>,
        config: SuperviseConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("klinq-supervise-watchdog".into())
            .spawn(move || watchdog_loop(&shards, &sources, config, &flag))
            // klinq-lint: allow(no-panic-serve) watchdog spawn happens once at startup; failing to start is fatal by design
            .expect("spawn supervision watchdog");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sweep and joins the watchdog. Called before shard
    /// teardown so no restart races a shutdown.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn watchdog_loop(
    shards: &[Mutex<ReadoutServer>],
    sources: &[RestartSource],
    config: SuperviseConfig,
    stop: &AtomicBool,
) {
    let mut last_attempt: Vec<Option<Instant>> = vec![None; shards.len()];
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(config.watchdog_interval);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        for (device, slot) in shards.iter().enumerate() {
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            let mut shard = slot.lock().unwrap();
            if shard.counters().monitor.is_stopped() {
                continue;
            }
            match shard.counters().monitor.health() {
                ShardHealth::Healthy | ShardHealth::Degraded => {
                    if shard.collector_finished()
                        || shard.counters().monitor.heartbeat_age() > config.heartbeat_timeout
                    {
                        shard.counters().mark_down();
                        last_attempt[device] = None;
                    }
                }
                ShardHealth::Down => {
                    let due = match last_attempt[device] {
                        Some(at) => at.elapsed() >= config.restart_backoff,
                        None => shard.counters().monitor.down_for() >= config.restart_backoff,
                    };
                    if due {
                        last_attempt[device] = Some(Instant::now());
                        shard.counters().monitor.mark_restarting();
                        match sources[device].resolve() {
                            Some(system) => {
                                shard.respawn(system);
                                shard.counters().mark_recovered();
                            }
                            None => shard.counters().monitor.restart_failed(),
                        }
                    }
                }
                // Only this thread sets `Restarting`, and only
                // transiently under the slot lock.
                ShardHealth::Restarting => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedPolicy;
    use crate::server::Counters;

    fn counters() -> Counters {
        Counters::new(&SchedPolicy::default())
    }

    #[test]
    fn degraded_promotes_back_after_clean_batches() {
        let c = counters();
        let m = &c.monitor;
        assert_eq!(m.health(), ShardHealth::Healthy);
        c.note_panic();
        assert_eq!(m.health(), ShardHealth::Degraded);
        for _ in 0..DEGRADED_CLEAN_BATCHES - 1 {
            m.note_clean_batch();
            assert_eq!(m.health(), ShardHealth::Degraded);
        }
        m.note_clean_batch();
        assert_eq!(m.health(), ShardHealth::Healthy);
        assert_eq!(c.stats.snapshot().panics, 1);
    }

    #[test]
    fn a_panic_resets_the_clean_run() {
        let c = counters();
        let m = &c.monitor;
        c.note_panic();
        for _ in 0..DEGRADED_CLEAN_BATCHES - 1 {
            m.note_clean_batch();
        }
        c.note_panic();
        m.note_clean_batch();
        assert_eq!(m.health(), ShardHealth::Degraded, "clean run must restart after a panic");
    }

    #[test]
    fn down_restart_recovery_counts_are_monotonic() {
        let c = counters();
        let m = &c.monitor;
        c.mark_down();
        assert_eq!(m.health(), ShardHealth::Down);
        m.mark_restarting();
        assert_eq!(m.health(), ShardHealth::Restarting);
        m.restart_failed();
        assert_eq!(m.health(), ShardHealth::Down);
        assert_eq!(
            c.stats.snapshot().downs,
            1,
            "a failed attempt is the same Down spell"
        );
        m.mark_restarting();
        c.mark_recovered();
        assert_eq!(m.health(), ShardHealth::Healthy);
        assert_eq!(c.stats.snapshot().restarts, 1);
        assert_eq!(c.report().downs, 1);
    }

    #[test]
    fn health_wire_round_trip() {
        for h in [
            ShardHealth::Healthy,
            ShardHealth::Degraded,
            ShardHealth::Down,
            ShardHealth::Restarting,
        ] {
            assert_eq!(ShardHealth::from_wire(h.to_wire()), Some(h));
        }
        assert_eq!(ShardHealth::from_wire(250), None);
    }
}
