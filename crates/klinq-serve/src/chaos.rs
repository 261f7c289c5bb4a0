//! Deterministic fault injection for the wire serving stack.
//!
//! A reactor that has only ever seen clean peers and full-size reads is
//! not production-ready: real networks deliver one byte at a time, stall
//! sockets mid-frame, hang up halfway through a request, and wake event
//! loops late. This module injects exactly those faults — *inside* the
//! reactor and codec paths, where the state machines live — from a
//! seeded deterministic PRNG, so a failing soak run reproduces from its
//! seed.
//!
//! Enable injection server-side with [`crate::WireConfig::chaos_seed`]
//! or, fleet-wide (CI does this), with the
//! `KLINQ_CHAOS_SEED` environment variable. Every fault is
//! **correctness-transparent**: short reads and writes are legal
//! outcomes of non-blocking I/O, a skipped readiness event is re-fired
//! by level-triggered readiness, and a deferred completion drain
//! re-wakes itself — so the entire test suite must pass unchanged with
//! chaos enabled. What injection buys is *coverage*: frame reassembly
//! across arbitrary split points, partial flushes under `EPOLLOUT`
//! re-arming, and completion delivery racing connection close.
//!
//! [`Chaos`] is public so tests can drive *peer-side* faults from the
//! same deterministic stream: byte-dribbling writers, mid-frame
//! hang-ups, stalled readers.
//!
//! Beyond I/O faults, [`CrashFaults`] injects *crash* faults into the
//! collector itself — seeded transient batch panics and content-keyed
//! poisoned requests — exercising the panic quarantine and shard
//! supervision machinery in [`crate::supervise`]. Transient panics are
//! correctness-transparent (the replay answers every request) and are
//! enabled fleet-wide in CI with `KLINQ_CHAOS_CRASH=<pct>`.

/// A deterministic fault stream (SplitMix64 — tiny, seedable, and good
/// enough to decorrelate fault sites; this is not a statistics-grade
/// generator and does not need to be).
#[derive(Debug, Clone)]
pub struct Chaos {
    state: u64,
}

impl Chaos {
    /// A fault stream from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Self {
            // Scramble so small seeds (0, 1, 2…) still start far apart.
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// A decorrelated child stream (e.g. one per connection, salted by
    /// its token) so every connection sees its own fault schedule.
    pub fn derive(&self, salt: u64) -> Self {
        let mut child = Self::new(self.state ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
        child.next_u64();
        child
    }

    /// The next raw 64-bit draw (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    /// A draw in `0..bound` (`0` when `bound` is 0).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// Skip this readable event entirely (a stalled read). Safe because
    /// readiness is level-triggered: the bytes are still reported next
    /// iteration.
    pub(crate) fn stall_read(&mut self) -> bool {
        self.chance(10)
    }

    /// Shrinks a read request: sometimes to a single byte (the classic
    /// frame-boundary torture), sometimes to a small random chunk.
    pub(crate) fn clamp_read(&mut self, want: usize) -> usize {
        if want <= 1 {
            return want;
        }
        if self.chance(20) {
            1
        } else if self.chance(25) {
            1 + self.below(want - 1)
        } else {
            want
        }
    }

    /// Caps one readable event's total budget, simulating data that
    /// simply hasn't arrived yet (mid-frame stalls).
    pub(crate) fn read_budget(&mut self, budget: usize) -> usize {
        if self.chance(15) {
            1 + self.below(64.min(budget))
        } else {
            budget
        }
    }

    /// Skip this flush opportunity (a stalled write): `EPOLLOUT`
    /// interest (or the next sweep) retries it.
    pub(crate) fn stall_write(&mut self) -> bool {
        self.chance(10)
    }

    /// Shrinks a write, forcing short writes through the outbound
    /// buffer's resume path. Never returns 0 — a zero-length write is
    /// indistinguishable from a dead socket.
    pub(crate) fn clamp_write(&mut self, want: usize) -> usize {
        if want <= 1 {
            return want;
        }
        if self.chance(20) {
            1
        } else if self.chance(25) {
            1 + self.below(want - 1)
        } else {
            want
        }
    }

    /// Defer this completion drain one loop iteration (a delayed
    /// wakeup). The caller must re-arm its own wake so the deferral is a
    /// delay, never a hang.
    pub(crate) fn defer_completions(&mut self) -> bool {
        self.chance(12)
    }
}

/// Crash-fault injection for the collector thread (the supervision
/// story's test hook — see [`crate::supervise`]).
///
/// Two fault classes, both deterministic from the seed:
///
/// - **Transient batch panics** (`batch_panic_pct`): a fraction of
///   micro-batches panic mid-classification as if the collector hit a
///   transient bug. No request caused the panic, so the per-request
///   replay answers everyone — these faults are correctness-transparent
///   and safe to enable suite-wide (CI does, via `KLINQ_CHAOS_CRASH`).
/// - **Poisoned requests** (`poison_pct`): a fraction of requests —
///   chosen by a content-keyed draw, so the *same request* panics every
///   time it is classified — deterministically panic the batch they
///   join. The quarantine answers them [`crate::ServeError::Poisoned`]
///   and replays the rest of the batch. Not correctness-transparent
///   (the poisoned request never gets states), so it is a per-server
///   config knob only, never an environment default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFaults {
    /// Seed for the fault schedule. Equal seeds reproduce equal fault
    /// sequences for the same traffic.
    pub seed: u64,
    /// Percentage (0–100) of micro-batches hit by a transient panic.
    pub batch_panic_pct: u64,
    /// Percentage (0–100) of requests that deterministically panic
    /// classification (content-keyed, so replays re-panic and the
    /// request is quarantined).
    pub poison_pct: u64,
}

impl CrashFaults {
    /// No faults, from a seed; enable classes with the builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            batch_panic_pct: 0,
            poison_pct: 0,
        }
    }

    /// Sets the transient batch-panic rate (percent of micro-batches).
    #[must_use]
    pub fn batch_panics(mut self, pct: u64) -> Self {
        self.batch_panic_pct = pct;
        self
    }

    /// Sets the poisoned-request rate (percent of requests,
    /// content-keyed).
    #[must_use]
    pub fn poison(mut self, pct: u64) -> Self {
        self.poison_pct = pct;
        self
    }
}

/// The fleet-wide injection seed from `KLINQ_CHAOS_SEED`, if set and
/// parseable as `u64`. An unparseable value is ignored (chaos off)
/// rather than failing server startup.
pub(crate) fn env_seed() -> Option<u64> {
    std::env::var("KLINQ_CHAOS_SEED").ok()?.trim().parse().ok()
}

/// Fleet-wide transient crash faults from `KLINQ_CHAOS_CRASH` (a
/// percentage of micro-batches), seeded from `KLINQ_CHAOS_SEED` (or a
/// fixed default). Only the correctness-transparent transient class is
/// reachable from the environment — poisoned-request injection changes
/// observable results, so it stays an explicit [`CrashFaults`] config.
pub(crate) fn env_crash() -> Option<CrashFaults> {
    let pct: u64 = std::env::var("KLINQ_CHAOS_CRASH").ok()?.trim().parse().ok()?;
    if pct == 0 {
        return None;
    }
    Some(CrashFaults::new(env_seed().unwrap_or(0x006b_6c69_6e71)).batch_panics(pct.min(100)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_reproduce_the_stream() {
        let mut a = Chaos::new(42);
        let mut b = Chaos::new(42);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ_from_parent_and_siblings() {
        let parent = Chaos::new(7);
        let mut kids: Vec<u64> = (0..8).map(|salt| parent.derive(salt).next_u64()).collect();
        kids.sort_unstable();
        kids.dedup();
        assert_eq!(kids.len(), 8, "sibling streams collide");
    }

    #[test]
    fn clamps_stay_in_bounds_and_nonzero() {
        let mut ch = Chaos::new(3);
        for want in [1usize, 2, 7, 64 * 1024] {
            for _ in 0..200 {
                let r = ch.clamp_read(want);
                assert!(r >= 1 && r <= want, "clamp_read({want}) = {r}");
                let w = ch.clamp_write(want);
                assert!(w >= 1 && w <= want, "clamp_write({want}) = {w}");
                let b = ch.read_budget(want);
                assert!(b >= 1 && b <= want, "read_budget({want}) = {b}");
            }
        }
    }
}
