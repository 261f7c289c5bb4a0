//! Micro-batching readout serving: many concurrent clients, one batched
//! discriminator per device shard.
//!
//! The per-shot API ([`klinq_core::KlinqSystem::measure_on`]) is built
//! for mid-circuit latency; a readout *service* instead sees throughput —
//! many independent clients each holding a few shots, while the batched
//! engine ([`klinq_core::BatchDiscriminator`]) is fastest when it gets
//! thousands of shots at once. [`ReadoutServer`] bridges the two: it
//! accepts single-shot and multi-shot requests over channels from any
//! number of threads, **coalesces** them into micro-batches (bounded by a
//! configurable shot budget and linger time), classifies each batch in
//! one [`classify_shots_on`](klinq_core::BatchDiscriminator::classify_shots_on)
//! call on the persistent worker pool, and routes each request's
//! [`ShotStates`] back to its sender.
//!
//! Because the batched engine is bitwise-identical to sequential
//! per-shot measurement for any batch composition, coalescing is
//! invisible to clients: every response is exactly what a direct
//! [`measure_on`](klinq_core::KlinqDiscriminator::measure_on) loop would
//! have produced, on either [`Backend`].
//!
//! Each client operation has one entry point, taking per-request
//! [`RequestOptions`] (lane, tenant, deadline, failover;
//! `RequestOptions::new()` is a plain bulk request):
//! [`ReadoutClient::classify_shots_opts`] blocks for the result and
//! [`ReadoutClient::submit_opts`] delivers it to a callback. The wire
//! client mirrors them: [`WireClient::classify_shots_opts`] blocks, and
//! [`WireClient::submit_opts`] / [`WireClient::recv_response`] pipeline.
//!
//! Serving at scale adds three layers on the coalescing core:
//!
//! - **Scheduling policies**: the intake queue is bounded
//!   ([`ServeConfig::max_pending`]) — a saturated server sheds with
//!   [`ServeError::Overloaded`] instead of queueing unboundedly — and
//!   [`Priority::Latency`] requests close their micro-batch immediately
//!   instead of waiting out the linger window tuned for throughput
//!   traffic, and are answered ahead of its throughput requests; one
//!   that arrives while those run cuts in at the next slice boundary.
//! - **Multi-tenant QoS** ([`sched`]): requests carry a [`TenantId`];
//!   intake is per-tenant bounded queues drained by deficit-round-robin
//!   weighted fair queueing ([`SchedPolicy`]), per-tenant quotas shed as
//!   typed [`ServeError::Overloaded`] with a retry-after hint, and
//!   micro-batch closing is deadline-aware — requests whose
//!   [`RequestOptions::deadline`] expires get a typed
//!   [`ServeError::DeadlineExceeded`] instead of stale states.
//! - **Multi-device sharding**: [`ShardedReadoutServer`]
//!   runs one collector per [`KlinqSystem`](klinq_core::KlinqSystem)
//!   (e.g. one per chip in the fridge), deployable from a single
//!   multi-device artifact bundle, routing each request to its device's
//!   collector at intake.
//! - **Self-healing supervision** ([`supervise`]): collectors run under
//!   a panic quarantine (a request that panics its micro-batch is
//!   answered typed [`ServeError::Poisoned`] and never re-batched; the
//!   rest of the batch replays solo, bitwise-identically), every shard
//!   carries a `Healthy → Degraded → Down → Restarting` health state
//!   machine driven by a heartbeat watchdog, a dead shard restarts
//!   automatically from its retained system (or bundle artifact) with
//!   monotonic stats, and intake can fail over from a `Down` shard to a
//!   healthy peer when [`RequestOptions::allow_failover`] permits.
//! - **A wire protocol** ([`wire`]): a length-prefixed binary codec over
//!   plain TCP ([`WireServer`]/[`WireClient`], std threads only) so
//!   out-of-process clients reach the very same coalescing path,
//!   bitwise-identically to in-process calls. The server side is an
//!   epoll reactor, compiled on Linux only: one event-loop thread
//!   multiplexes thousands of connections under a configurable budget
//!   ([`WireConfig`]), and the protocol's per-frame request ids let each
//!   connection **pipeline** many requests with out-of-order completion.
//!
//! # Example
//!
//! ```no_run
//! use klinq_core::experiments::ExperimentConfig;
//! use klinq_core::KlinqSystem;
//! use klinq_serve::{ReadoutServer, RequestOptions, ServeConfig};
//! use std::sync::Arc;
//!
//! let system = Arc::new(KlinqSystem::train(&ExperimentConfig::smoke())?);
//! let shots = system.test_data().shots().to_vec();
//! let server = ReadoutServer::start(system, ServeConfig::default());
//! let client = server.client();
//! let states = client
//!     .classify_shots_opts(RequestOptions::new(), shots)
//!     .expect("server alive");
//! println!("first shot: {:?}", states[0]);
//! server.shutdown();
//! # Ok::<(), klinq_core::KlinqError>(())
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
mod metrics;
pub mod sched;
mod server;
mod shard;
pub mod supervise;
pub mod wire;

pub use chaos::CrashFaults;
pub use sched::{RequestOptions, SchedPolicy, TenantId, TenantSpec, TenantStats};
pub use metrics::ServeStats;
pub use server::{Priority, ReadoutClient, ReadoutServer, ServeConfig, ServeError, NUM_QUBITS};
pub use shard::ShardedReadoutServer;
pub use supervise::{ShardHealth, ShardHealthReport, SuperviseConfig};
pub use wire::{ReconnectPolicy, WireClient, WireError, WireMessage};
#[cfg(target_os = "linux")]
pub use wire::{WireConfig, WireServer};

// Re-exported so downstream code can name the request/response types
// without depending on klinq-core / klinq-sim directly.
pub use klinq_core::{Backend, ShotBlock, ShotStates};
pub use klinq_sim::Shot;
