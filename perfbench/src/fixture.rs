//! Untimed fixtures: the workload table, the seeded shot pool and
//! request plan, the smoke model, and the correctness oracle.

use klinq_core::{testkit, Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::wire::codec;
use klinq_serve::{Priority, SchedPolicy, ServeConfig, TenantSpec};
use klinq_sim::{FiveQubitDevice, ReadoutDataset, Shot, SimConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Shots in the pool every request draws from. At ~5.9 KB of samples per
/// 300 ns shot this is ~24 MB, well past L2, so bulk traffic streams from
/// memory instead of re-reading one cache-resident test set.
pub const POOL_SHOTS: usize = 4096;
/// Shots per bulk request. Bulk requests are the pool's 16 disjoint
/// 256-shot slices.
pub const BULK_SHOTS: usize = 256;
/// Request id of bulk slice `k` is `BULK_ID_BASE + k`; mid requests
/// count up from 1 and never reach it.
pub const BULK_ID_BASE: u64 = 1 << 40;
/// Trace duration of the pool's shots (the smoke model's own).
const TRACE_NS: f64 = 300.0;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Midcircuit,
    Bulk,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Midcircuit, Workload::Bulk, Workload::Mixed];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Midcircuit => "midcircuit",
            Workload::Bulk => "bulk",
            Workload::Mixed => "mixed",
        }
    }

    /// What the workload sends, and which serving fields it changes.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Midcircuit => Spec {
                backend: Backend::Float,
                mid_rate: Some(2000.0),
                bulk_window: None,
                tenants: false,
            },
            Workload::Bulk => Spec {
                backend: Backend::Float,
                mid_rate: None,
                bulk_window: Some(4),
                tenants: false,
            },
            // The qec stream runs at the midcircuit rate; with the bulk
            // stream beside it, batches average ~420 shots, ~96% of them
            // expedited (the probe behind this workload saw ~390 and 95%).
            Workload::Mixed => Spec {
                backend: Backend::Hardware,
                mid_rate: Some(2000.0),
                bulk_window: Some(4),
                tenants: true,
            },
        }
    }
}

/// One workload's traffic: an open-loop stream of 1-shot latency-lane
/// requests (`mid_rate`, requests/s, fixed rate with seeded jitter) and/or a
/// closed-loop stream of [`BULK_SHOTS`]-shot throughput requests with
/// `bulk_window` in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub backend: Backend,
    pub mid_rate: Option<f64>,
    pub bulk_window: Option<usize>,
    /// Tenants `qec` (weight 4, the mid stream) and `bulk` (weight 1).
    pub tenants: bool,
}

impl Spec {
    /// `ServeConfig::default()` except the fields the workload names.
    pub fn serve_config(&self) -> ServeConfig {
        let mut config = ServeConfig {
            backend: self.backend,
            ..ServeConfig::default()
        };
        if self.tenants {
            config.sched =
                SchedPolicy::new(vec![TenantSpec::new("qec", 4), TenantSpec::new("bulk", 1)]);
        }
        config
    }
}

/// SplitMix64: a small seeded stream for schedules and shot choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Gap to the next arrival of a fixed-rate stream at `rate`/s, with
    /// a seeded ±25% jitter: the schedule differs per seed, and no two
    /// arrivals come closer than 75% of the mean gap.
    pub fn jittered_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64((0.75 + 0.5 * self.unit()) / rate)
    }
}

/// Salts separating the seeded streams derived from one CLI seed.
pub const POOL_SALT: u64 = 0x6b6c_696e_715f_706f;
pub const PLAN_SALT: u64 = 0x6b6c_696e_715f_706c;
pub const WARMUP_SALT: u64 = 0x6b6c_696e_715f_7775;

/// Seed of the shot pool for a CLI seed. The smoke model's training and
/// test data use seeds 11–13; the pool never does.
pub fn pool_seed(seed: u64) -> u64 {
    let s = seed ^ POOL_SALT;
    if (11..=13).contains(&s) {
        s + 100
    } else {
        s
    }
}

/// Everything a run needs before its first timed step.
pub struct Fixture {
    /// The trained (or cached) smoke system: the oracle's and the
    /// replays' model.
    pub system: Arc<KlinqSystem>,
    /// The saved artifact every setup loads.
    pub artifact: PathBuf,
    pub pool: Vec<Shot>,
    /// Direct `classify_shots_on` of every pool shot on the workload's
    /// backend: the expected answer of every request.
    pub oracle: Vec<ShotStates>,
    /// Wire frame of every bulk slice, encoded once: the generator's
    /// own encoding would otherwise compete with the server for the CPU.
    pub bulk_frames: Vec<Vec<u8>>,
    /// Where caches and traces live (inside the build directory).
    pub dir: PathBuf,
}

impl Fixture {
    /// Trains or reuses the smoke model, saves its artifact, generates
    /// the seeded pool and precomputes the oracle. `corrupt` flips one
    /// expected bit in every 64th row, to prove the check fires.
    pub fn obtain(seed: u64, spec: &Spec, corrupt: bool) -> Result<Self, String> {
        let dir = work_dir()?;
        let system = Arc::new(testkit::cached_smoke_system(&dir.join("model-cache")));
        let artifact = dir.join("perfbench-model.json");
        system.save(&artifact).map_err(|e| e.to_string())?;
        let pool = ReadoutDataset::generate(
            &FiveQubitDevice::paper(),
            &SimConfig::with_duration_ns(TRACE_NS),
            POOL_SHOTS,
            pool_seed(seed),
        )
        .shots()
        .to_vec();
        let mut oracle =
            BatchDiscriminator::new(system.discriminators()).classify_shots_on(spec.backend, &pool);
        if corrupt {
            for row in oracle.iter_mut().step_by(64) {
                row[0] = !row[0];
            }
        }
        let tenant = u32::from(spec.tenants);
        let bulk_frames = pool
            .chunks_exact(BULK_SHOTS)
            .zip(BULK_ID_BASE..)
            .map(|(slice, id)| {
                codec::frame(&codec::encode_request_opts(
                    id,
                    0,
                    Priority::Throughput,
                    tenant,
                    0,
                    false,
                    slice,
                ))
            })
            .collect();
        Ok(Self {
            system,
            artifact,
            pool,
            oracle,
            bulk_frames,
            dir,
        })
    }

    /// Whether served `states` are exactly the oracle's for the pool
    /// slice `start..start + count`, in length and in every bit.
    pub fn matches(&self, start: usize, count: usize, states: &[ShotStates]) -> bool {
        states.len() == count && states == &self.oracle[start..start + count]
    }
}

/// The benchmark's work directory, next to its own executable (so
/// inside the build directory of the checkout it was built in).
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
