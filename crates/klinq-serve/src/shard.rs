//! Multi-device sharding: several [`KlinqSystem`]s behind one intake.
//!
//! One readout service rarely fronts one device: a dilution fridge hosts
//! several 5-qubit chips, each with its own trained discriminator fleet.
//! [`ShardedReadoutServer`] owns one coalescing collector per device
//! (each an ordinary [`ReadoutServer`], so every per-server guarantee —
//! bitwise-identical coalescing, backpressure, priority lanes — holds
//! per shard) and routes each request to its device's collector **at
//! intake**: [`ShardedReadoutServer::client`] hands out a plain
//! [`ReadoutClient`] bound to the chosen device, so the request path
//! after routing is exactly the single-server path and sharding adds
//! zero per-request overhead.
//!
//! # Self-healing supervision
//!
//! The fleet runs under a [`supervise`](crate::supervise) watchdog: a
//! shard whose collector dies (panic) or stalls (missed heartbeats) is
//! marked `Down`, its in-flight requests answer typed
//! [`ServeError::ShardDown`](crate::server::ServeError::ShardDown)
//! through their reply guards, and the watchdog restarts the collector
//! from the shard's restart source — the retained in-memory system
//! (tracking every hot swap and canary promotion), or a cold reload of
//! the deployment bundle through the checksum-verified persistence
//! path. Counters are shared across the restart, so every
//! [`ServeStats`] field stays monotonic: a restart never resets a
//! number.
//!
//! While a shard is down, client handles from [`Self::client`] route
//! health-aware: a request whose
//! [`RequestOptions::failover`](crate::sched::RequestOptions::failover)
//! permits it fails over to a healthy peer shard; one that does not
//! answers `ShardDown` immediately instead of queueing into a dead
//! collector.
//!
//! Fleets deploy from a single multi-device artifact
//! ([`klinq_core::persist::save_device_bundle`]) via
//! [`ShardedReadoutServer::load_bundle`]. A bundle whose artifacts are
//! *partially* corrupt boots **degraded**: every loadable device serves
//! normally, each quarantined device's shard starts `Down` (visible in
//! [`Self::shard_health`]), and the watchdog keeps retrying its
//! artifact — replacing the file on disk heals the shard without a
//! fleet restart.

use crate::metrics::ServeStats;
use crate::server::{ReadoutClient, ReadoutServer, Router, ServeConfig, ServeError};
use crate::supervise::{RestartSource, ShardHealth, ShardHealthReport, Supervisor};
use klinq_core::{persist, KlinqError, KlinqSystem};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// A fleet of per-device coalescing servers behind one handle, under a
/// supervision watchdog.
///
/// Shutting the fleet down (explicitly or by drop) stops the watchdog
/// first — no restart races teardown — then shuts every shard down; a
/// *genuine* panic on any shard's collector (one the watchdog had not
/// already recovered) is re-raised on the owner, exactly like a single
/// [`ReadoutServer`].
#[derive(Debug)]
pub struct ShardedReadoutServer {
    /// Shared with the watchdog thread, which needs `&mut` access to a
    /// shard to respawn its collector — hence the per-slot `Mutex`.
    /// Request traffic does not touch these locks: clients talk to the
    /// shard's [`ShardLink`](crate::server) directly.
    shards: Arc<Vec<Mutex<ReadoutServer>>>,
    /// Health-aware failover routing table, shared by every client
    /// handle this fleet hands out.
    router: Arc<Router>,
    /// Where each shard restarts from, kept current across hot swaps
    /// and canary promotions.
    sources: Arc<Vec<RestartSource>>,
    /// The canary candidate staged on each shard, if any — retained so
    /// a *promotion* can update the shard's restart source with the
    /// exact promoted system.
    staged: Vec<Mutex<Option<Arc<KlinqSystem>>>>,
    supervisor: Supervisor,
}

impl ShardedReadoutServer {
    /// Starts one collector per system; `systems[i]` serves device `i`.
    /// Every shard runs the same `config` (backend, batching, intake
    /// bound, supervision).
    ///
    /// # Panics
    ///
    /// Panics if `systems` is empty or the configuration is unusable
    /// (same contract as [`ReadoutServer::start`]).
    pub fn start(systems: Vec<Arc<KlinqSystem>>, config: ServeConfig) -> Self {
        assert!(!systems.is_empty(), "a sharded server needs at least one device");
        let mut shards = Vec::with_capacity(systems.len());
        let mut sources = Vec::with_capacity(systems.len());
        for system in systems {
            sources.push(RestartSource::from_system(Arc::clone(&system)));
            shards.push(ReadoutServer::start(system, config.clone()));
        }
        Self::assemble(shards, sources, &config)
    }

    /// Loads a device fleet from a multi-device bundle artifact (see
    /// [`klinq_core::persist::load_device_bundle`]) and starts one shard
    /// per stored device, in bundle order.
    ///
    /// Per-device integrity is enforced per device: a corrupt artifact
    /// quarantines *its* device — the shard boots `Down` and the
    /// watchdog retries the bundle — while every intact device serves.
    /// Only a bundle with **no** loadable device (or an unreadable /
    /// malformed envelope) is a load error.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`KlinqError`] if the bundle cannot be
    /// read, its envelope fails validation, or every stored device is
    /// corrupt.
    pub fn load_bundle(path: &Path, config: ServeConfig) -> Result<Self, KlinqError> {
        let devices = persist::load_device_bundle_quarantined(path)?;
        if let Some(first_err) = devices.iter().find_map(|d| d.as_ref().err()) {
            if devices.iter().all(Result::is_err) {
                return Err(KlinqError::Artifact(format!(
                    "no loadable device in bundle {}: {first_err}",
                    path.display()
                )));
            }
        }
        let mut shards = Vec::with_capacity(devices.len());
        let mut sources = Vec::with_capacity(devices.len());
        for (device, loaded) in devices.into_iter().enumerate() {
            match loaded {
                Ok(system) => {
                    let system = Arc::new(system);
                    sources.push(RestartSource::from_bundle(
                        path.to_path_buf(),
                        device,
                        Some(Arc::clone(&system)),
                    ));
                    shards.push(ReadoutServer::start(system, config.clone()));
                }
                Err(_) => {
                    sources.push(RestartSource::from_bundle(path.to_path_buf(), device, None));
                    shards.push(ReadoutServer::vacant(config.clone()));
                }
            }
        }
        Ok(Self::assemble(shards, sources, &config))
    }

    fn assemble(
        shards: Vec<ReadoutServer>,
        sources: Vec<RestartSource>,
        config: &ServeConfig,
    ) -> Self {
        let staged = shards.iter().map(|_| Mutex::new(None)).collect();
        let router = Arc::new(Router::new(shards.iter().map(ReadoutServer::link).collect()));
        let shards = Arc::new(shards.into_iter().map(Mutex::new).collect::<Vec<_>>());
        let sources = Arc::new(sources);
        let supervisor =
            Supervisor::spawn(Arc::clone(&shards), Arc::clone(&sources), config.supervise);
        Self {
            shards,
            router,
            sources,
            staged,
            supervisor,
        }
    }

    /// Number of device shards.
    pub fn devices(&self) -> usize {
        self.shards.len()
    }

    /// A client handle bound to `device`'s shard — the routing decision.
    /// The returned handle is an ordinary [`ReadoutClient`]; everything
    /// downstream of intake is the single-server path, except that a
    /// request submitted while the shard is `Down` fails over to a
    /// healthy peer when
    /// [`RequestOptions::failover`](crate::sched::RequestOptions::failover)
    /// permits it (and answers [`ServeError::ShardDown`] otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`: binding a handle to a
    /// device that does not exist is a deployment bug, not a runtime
    /// condition (the wire front end validates device ids from
    /// untrusted requests before calling this).
    pub fn client(&self, device: usize) -> ReadoutClient {
        self.shard(device).client_with_router(Arc::clone(&self.router), device)
    }

    /// One shard's current health state.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    pub fn health(&self, device: usize) -> ShardHealth {
        self.shard(device).health()
    }

    /// Per-shard health, restart and down counts, in device order —
    /// the same report the wire health query serves.
    pub fn shard_health(&self) -> Vec<ShardHealthReport> {
        self.shards
            .iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.lock().unwrap().counters().report())
            .collect()
    }

    /// Crash-fault injection: makes `device`'s collector abort
    /// mid-stream without draining its queues, exactly as a genuine
    /// panic would. Admitted requests on that shard die with the thread
    /// and answer [`ServeError::ShardDown`] through their reply guards;
    /// the watchdog then restarts the shard. Chaos harnesses use this
    /// to exercise the full `Down → Restarting → Healthy` cycle under
    /// live traffic.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the shard already shut down,
    /// or [`ServeError::ShardDown`] if its collector is already dead.
    pub fn kill_shard(&self, device: usize) -> Result<(), ServeError> {
        self.shard(device).inject_kill()
    }

    /// Blue/green hot swap on one shard: atomically replaces `device`'s
    /// serving [`KlinqSystem`] between micro-batches and returns the
    /// shard's new model version. Other shards are untouched — a fleet
    /// rolls a new model device by device, watching each shard's canary
    /// report before moving on. Same guarantees as
    /// [`ReadoutServer::swap_model`]; the shard's restart source tracks
    /// the swap, so a later crash restarts the *new* model.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()` (same contract as
    /// [`Self::client`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`ReadoutServer::swap_model`].
    pub fn swap_model(
        &self,
        device: usize,
        system: Arc<KlinqSystem>,
    ) -> Result<u64, ServeError> {
        let version = self.shard(device).swap_model(Arc::clone(&system))?;
        self.sources[device].retain_swapped(system);
        Ok(version)
    }

    /// Stages a canary candidate on one shard (see
    /// [`ReadoutServer::stage_canary`]).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReadoutServer::stage_canary`].
    pub fn stage_canary(
        &self,
        device: usize,
        system: Arc<KlinqSystem>,
        fraction: f64,
    ) -> Result<(), ServeError> {
        self.shard(device).stage_canary(Arc::clone(&system), fraction)?;
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        *self.staged[device].lock().unwrap() = Some(system);
        Ok(())
    }

    /// Promotes one shard's staged canary to primary (see
    /// [`ReadoutServer::promote_canary`]). The shard's restart source
    /// tracks the promotion, so a later crash restarts the promoted
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReadoutServer::promote_canary`].
    pub fn promote_canary(&self, device: usize) -> Result<u64, ServeError> {
        let version = self.shard(device).promote_canary()?;
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        if let Some(system) = self.staged[device].lock().unwrap().take() {
            self.sources[device].retain_swapped(system);
        }
        Ok(version)
    }

    /// Drops one shard's staged canary, if any (see
    /// [`ReadoutServer::abort_canary`]).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReadoutServer::abort_canary`].
    pub fn abort_canary(&self, device: usize) -> Result<bool, ServeError> {
        let aborted = self.shard(device).abort_canary()?;
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        *self.staged[device].lock().unwrap() = None;
        Ok(aborted)
    }

    /// One shard's serving model version.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    pub fn model_version(&self, device: usize) -> u64 {
        self.shard(device).model_version()
    }

    fn shard(&self, device: usize) -> MutexGuard<'_, ReadoutServer> {
        assert!(
            device < self.shards.len(),
            "device {device} out of range: this fleet serves {} devices",
            self.shards.len()
        );
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        self.shards[device].lock().unwrap()
    }

    /// Per-device counter snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards
            .iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.lock().unwrap().stats())
            .collect()
    }

    /// Fleet-wide counters: per-shard stats folded by
    /// [`ServeStats::merge`], each field under the merge rule its doc
    /// states. The health gauges aggregate — `shards_healthy +
    /// shards_degraded + shards_down + shards_restarting == shards`.
    pub fn stats(&self) -> ServeStats {
        self.shard_stats()
            .iter()
            .fold(ServeStats::default(), |acc, s| acc.merge(s))
    }

    /// Fleet-wide per-tenant counters: each shard's
    /// [`ReadoutServer::tenant_stats`] merged positionally (every shard
    /// runs the same [`SchedPolicy`](crate::sched::SchedPolicy), so
    /// tenant `i` is the same tenant on every shard).
    pub fn tenant_stats(&self) -> Vec<crate::sched::TenantStats> {
        self.shards
            .iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.lock().unwrap().tenant_stats())
            .reduce(|acc, stats| acc.iter().zip(&stats).map(|(a, s)| a.merge(s)).collect())
            .unwrap_or_default()
    }

    /// Shuts the fleet down: stops the supervision watchdog first (so
    /// no restart races teardown), then shuts every shard down
    /// (draining each in-flight batch) and returns the final fleet-wide
    /// counters.
    pub fn shutdown(self) -> ServeStats {
        let Self {
            shards,
            router: _router,
            sources: _sources,
            staged: _staged,
            mut supervisor,
        } = self;
        supervisor.stop();
        // The joined watchdog was the only other owner of the shard
        // vector, so unwrapping the `Arc` cannot fail.
        let shards = Arc::try_unwrap(shards)
            // klinq-lint: allow(no-panic-serve) the joined watchdog released the only other shard-vector handle
            .expect("the stopped watchdog released the only other shard-vector handle");
        shards
            .into_iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.into_inner().unwrap().shutdown())
            .fold(ServeStats::default(), |acc, s| acc.merge(&s))
    }
}
