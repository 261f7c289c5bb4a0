//! One benchmark run: set up the serving stack, drive it, and reduce what
//! was observed to the end-to-end metrics (untraced) or the per-layer
//! metrics (traced).

use crate::fixture::{Fixture, Spec, Workload, BULK_SHOTS, PLAN_SALT, POOL_SHOTS, WARMUP_SALT};
use crate::gen::{self, Kind, Records, Stop};
use crate::layers;
use crate::stats::{median, percentile, us, Metric};
use crate::trace::Tracer;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem};
use klinq_serve::{ServeStats, ShardedReadoutServer, WireServer};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Length of one session of the measured window (see [`sessions`]).
const SESSION: Duration = Duration::from_secs(3);
/// Warm-up traffic of every setup: the workload's own streams.
const WARMUP: Stop = Stop::Count { mid: 200, bulk: 16 };

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The figures the final JSON carries.
    pub metrics: Vec<Metric>,
    /// Figures printed with the others but kept out of the JSON.
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
}

/// A wire front end over the fleet and the generator's connection to it.
struct Session {
    wire: WireServer,
    stream: TcpStream,
}

impl Session {
    fn open(fleet: &ShardedReadoutServer) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let wire = WireServer::start(fleet, listener).map_err(|e| e.to_string())?;
        let stream = TcpStream::connect(wire.local_addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self { wire, stream })
    }

    fn close(self) {
        drop(self.stream);
        self.wire.shutdown();
    }
}

/// The serving stack under test.
struct Stack {
    fleet: ShardedReadoutServer,
    session: Option<Session>,
}

impl Stack {
    fn shutdown(self) {
        if let Some(session) = self.session {
            session.close();
        }
        self.fleet.shutdown();
    }
}

struct Setup {
    total_s: Vec<f64>,
    load_s: Vec<f64>,
    start_s: Vec<f64>,
}

/// Brings the stack up [`SETUP_REPS`] times, timing each from artifact
/// load to a warmed connection; keeps the last one.
fn setup(fx: &Fixture, spec: &Spec, seed: u64) -> Result<(Stack, Setup), String> {
    let mut times = Setup {
        total_s: Vec::new(),
        load_s: Vec::new(),
        start_s: Vec::new(),
    };
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let system = KlinqSystem::load(&fx.artifact).map_err(|e| format!("load: {e}"))?;
        let t1 = Instant::now();
        let fleet = ShardedReadoutServer::start(vec![Arc::new(system)], spec.serve_config());
        let session = Session::open(&fleet)?;
        let t2 = Instant::now();
        let warm = gen::wire_phase(&session.stream, fx, spec, seed ^ WARMUP_SALT, WARMUP, false)?;
        let t3 = Instant::now();
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.errors));
        }
        times.load_s.push((t1 - t0).as_secs_f64());
        times.start_s.push((t2 - t1).as_secs_f64());
        times.total_s.push((t3 - t0).as_secs_f64());
        let stack = Stack {
            fleet,
            session: Some(session),
        };
        if rep + 1 == SETUP_REPS {
            return Ok((stack, times));
        }
        stack.shutdown();
    }
    unreachable!("SETUP_REPS is non-zero")
}

/// The latency-lane stream's figures come from the mid stream, the
/// throughput stream's from the bulk stream; a workload without one of
/// them reports its only stream in both places.
struct Streams<'a> {
    mid_us: &'a [f64],
    bulk_us: &'a [f64],
    bulk_shots: u64,
}

fn streams<'a>(spec: &Spec, rec: &'a Records) -> Streams<'a> {
    let mid_us = if spec.mid_rate.is_some() {
        &rec.mid_us
    } else {
        &rec.bulk_us
    };
    let (bulk_us, bulk_shots) = if spec.bulk_window.is_some() {
        (&rec.bulk_us[..], rec.bulk_shots_by_end)
    } else {
        (&rec.mid_us[..], rec.mid_shots_by_end)
    };
    Streams {
        mid_us,
        bulk_us,
        bulk_shots,
    }
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("no samples for {what}"))
}

fn fidelity(rec: &Records) -> f64 {
    let shots = rec.fid_shots.max(1) as f64;
    rec.fid_hits.iter().map(|&h| h as f64 / shots).sum::<f64>() / 5.0
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// Host facts every run records.
pub fn host_line() -> String {
    let nproc = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:").map(cpu_count))
        })
        .map_or("unknown".to_string(), |n| n.to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let transport = match std::env::var("KLINQ_WIRE_TRANSPORT").as_deref() {
        Ok("epoll") => "epoll",
        Ok(_) => "poll-loop",
        Err(_) if cfg!(target_os = "linux") => "epoll",
        Err(_) => "poll-loop",
    };
    format!(
        "host: nproc={nproc} available_parallelism={parallelism} rayon_threads={} wire_transport={transport}",
        rayon::current_num_threads()
    )
}

/// CPUs in a list such as `0-3,6`.
fn cpu_count(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('-') {
            Some((a, b)) => {
                b.trim().parse::<usize>().unwrap_or(0) + 1 - a.trim().parse::<usize>().unwrap_or(0)
            }
            None => 1,
        })
        .sum()
}

/// Runs one workload end to end. `corrupt` flips one expected bit (the
/// self-test's proof that the oracle fires).
pub fn run(args: &Args, corrupt: bool) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let fx = Fixture::obtain(args.seed, &spec, corrupt)?;
    let (stack, times) = setup(&fx, &spec, args.seed)?;
    let secs = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced(args, &spec, &fx, stack, &times, secs)
    } else {
        untraced(args, &spec, &fx, stack, &times, secs)
    }
}

/// Plan seed of session `k`.
fn plan_seed(seed: u64, k: usize) -> u64 {
    (seed ^ PLAN_SALT).wrapping_add(k as u64)
}

/// Sessions of about [`SESSION`] in `total`.
fn session_count(total: Duration) -> usize {
    (total.as_secs_f64() / SESSION.as_secs_f64())
        .round()
        .max(1.0) as usize
}

/// Measures `total` wall clock as `count` equal sessions, each on a
/// fresh `WireServer` over the same warm fleet and a fresh connection
/// (the first reuses the warmed one). The reactor can lose a completion
/// wakeup and then deliver answers only on the next socket event or its
/// 250 ms reap tick, for the rest of its life; restarting it every
/// session bounds how long one such event degrades the run, so a
/// long-lived reactor would fare worse than these figures show. Every
/// stall of a degraded session counts, in the pooled figures and in
/// `wire.stalls`.
fn sessions(
    stack: &mut Stack,
    fx: &Fixture,
    spec: &Spec,
    seed: u64,
    total: Duration,
    count: usize,
    traced: bool,
) -> Result<Vec<Records>, String> {
    let each = total / count as u32;
    let mut recs = Vec::with_capacity(count);
    for k in 0..count {
        let session = match stack.session.take() {
            Some(s) => s,
            None => Session::open(&stack.fleet)?,
        };
        let end = Instant::now() + each;
        let rec = gen::wire_phase(
            &session.stream,
            fx,
            spec,
            plan_seed(seed, k),
            Stop::At(end),
            traced,
        );
        session.close();
        recs.push(rec?);
    }
    Ok(recs)
}

/// How many sessions had at least one stall.
fn stalled_sessions(recs: &[Records]) -> usize {
    recs.iter().filter(|r| r.stalls > 0).count()
}

/// Where a run's stalls fell.
fn session_note(rec: &Records, count: usize, stalled: usize) -> String {
    format!(
        "wire.stalls: {} of {} counted requests, in {stalled} of {count} sessions (a fresh WireServer every {} s)",
        rec.stalls,
        rec.attempted,
        SESSION.as_secs()
    )
}

/// Session records pooled into one (counts summed, samples joined).
fn pooled(recs: Vec<Records>) -> Records {
    let mut all = Records::default();
    for r in recs {
        all.mid_us.extend(r.mid_us);
        all.bulk_us.extend(r.bulk_us);
        all.late_us.extend(r.late_us);
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.mismatches += r.mismatches;
        for e in r.errors {
            all.note(e);
        }
        all.offered += r.offered;
        all.offered_answered += r.offered_answered;
        all.mid_shots_by_end += r.mid_shots_by_end;
        all.bulk_shots_by_end += r.bulk_shots_by_end;
        for qb in 0..5 {
            all.fid_hits[qb] += r.fid_hits[qb];
        }
        all.fid_shots += r.fid_shots;
        all.stalls += r.stalls;
        all.done.extend(r.done);
        all.sends.extend(r.sends);
        all.window += r.window;
    }
    all
}

/// The end-to-end latency and throughput figures of pooled records:
/// percentiles over every counted request of every session, throughput
/// over the sessions' summed windows.
struct Figures {
    mid_p50: f64,
    mid_p99: f64,
    bulk_tput: f64,
    bulk_p99: f64,
}

fn figures(spec: &Spec, rec: &Records) -> Result<Figures, String> {
    let s = streams(spec, rec);
    Ok(Figures {
        mid_p50: need(median(s.mid_us), "mid_p50_us")?,
        mid_p99: need(percentile(s.mid_us, 0.99), "mid_p99_us")?,
        bulk_tput: s.bulk_shots as f64 / rec.window.as_secs_f64(),
        bulk_p99: need(percentile(s.bulk_us, 0.99), "bulk_p99_us")?,
    })
}

fn base_outcome(recs: &[&Records]) -> (bool, u64, u64, Vec<String>) {
    let mismatches: u64 = recs.iter().map(|r| r.mismatches).sum();
    let attempted = recs.iter().map(|r| r.attempted).sum();
    let failed = recs.iter().map(|r| r.failed).sum();
    let notes = recs.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    (mismatches == 0, attempted, failed, notes)
}

fn untraced(
    args: &Args,
    spec: &Spec,
    fx: &Fixture,
    mut stack: Stack,
    times: &Setup,
    secs: Duration,
) -> Result<Outcome, String> {
    let recs = sessions(
        &mut stack,
        fx,
        spec,
        args.seed,
        secs,
        session_count(secs),
        false,
    )?;
    stack.shutdown();
    let (count, stalled) = (recs.len(), stalled_sessions(&recs));
    let rec = pooled(recs);
    let f = figures(spec, &rec)?;
    let s = streams(spec, &rec);
    let metrics = vec![
        Metric::new(
            "setup_s",
            need(median(&times.total_s), "setup_s")?,
            "s",
            times.total_s.len(),
        ),
        Metric::new("rss_peak_mib", rss_peak_mib()?, "MiB", 1),
        Metric::new(
            "fidelity",
            fidelity(&rec),
            "fraction",
            rec.fid_shots as usize,
        ),
        Metric::new("mid_p50_us", f.mid_p50, "us", s.mid_us.len()),
        Metric::new("mid_p99_us", f.mid_p99, "us", s.mid_us.len()),
        Metric::new(
            "bulk_shots_per_s",
            f.bulk_tput,
            "shots/s",
            s.bulk_shots as usize,
        ),
        Metric::new("bulk_p99_us", f.bulk_p99, "us", s.bulk_us.len()),
    ];
    let (correct, attempted, failed, mut notes) = base_outcome(&[&rec]);
    notes.push(session_note(&rec, count, stalled));
    notes.push(format!(
        "setup_s over {} setups: min {:.4} s, max {:.4} s",
        times.total_s.len(),
        times.total_s.iter().copied().fold(f64::INFINITY, f64::min),
        times.total_s.iter().copied().fold(0.0, f64::max),
    ));
    let extra = vec![
        Metric::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
            attempted as usize,
        ),
        Metric::new(
            "wire.stalls",
            rec.stalls as f64,
            "count",
            rec.attempted as usize,
        ),
        Metric::new(
            "gen.late_p99_us",
            percentile(&rec.late_us, 0.99).unwrap_or(0.0),
            "us",
            rec.late_us.len(),
        ),
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra,
        notes,
    })
}

/// The traced run: untraced wire sessions (the baseline, half the
/// time), one traced wire session and the in-process twin (a quarter
/// each), then the layer replays.
fn traced(
    args: &Args,
    spec: &Spec,
    fx: &Fixture,
    mut stack: Stack,
    times: &Setup,
    secs: Duration,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(Instant::now());
    let before = stack.fleet.stats();
    let base = sessions(
        &mut stack,
        fx,
        spec,
        args.seed,
        secs / 2,
        session_count(secs / 2),
        false,
    )?;
    let after = stack.fleet.stats();
    let tenants = stack.fleet.tenant_stats();
    // One traced session, on the plan the twin replays.
    let wired = pooled(sessions(
        &mut stack,
        fx,
        spec,
        args.seed,
        secs / 4,
        1,
        true,
    )?);
    let client = stack.fleet.client(0);
    let twin = gen::twin_phase(
        &client,
        fx,
        spec,
        plan_seed(args.seed, 0),
        Instant::now() + secs / 4,
    )?;
    drop(client);
    stack.shutdown();

    let primary = if spec.mid_rate.is_some() {
        Kind::Mid
    } else {
        Kind::Bulk
    };
    let base = pooled(base);
    let base_f = figures(spec, &base)?;
    let base_s = streams(spec, &base);
    let wire_p50 = base_f.mid_p50;
    let traced_p50 = need(median(streams(spec, &wired).mid_us), "traced wire p50")?;
    let twin_s = streams(spec, &twin);
    let inproc_p50 = need(median(twin_s.mid_us), "in-process p50")?;
    let inproc_p99 = need(percentile(twin_s.mid_us, 0.99), "in-process p99")?;
    let complete_us: Vec<f64> = twin
        .done
        .iter()
        .filter(|(r, _, _)| r.kind == primary)
        .filter_map(|(r, cb, _)| cb.map(|cb| us(cb - r.sent)))
        .collect();
    let complete_p50 = need(median(&complete_us), "submit-to-callback p50")?;

    let batches = (after.batches - before.batches).max(1) as f64;
    let batch_mean = (after.shots - before.shots) as f64 / batches;
    let batch = batch_mean.round().max(1.0) as usize;

    // The codec replays the traced session's first requests, up to about
    // one pool's worth of shots.
    let sample: Vec<(Kind, usize, usize)> = {
        let mut shots = 0;
        wired
            .done
            .iter()
            .map(|(r, _, _)| (r.kind, r.start, r.count))
            .take_while(|s| {
                shots += s.2;
                shots <= POOL_SHOTS + BULK_SHOTS
            })
            .take(512)
            .collect()
    };
    let codec = layers::codec(fx, &sample, spec.tenants, &mut tracer);
    let engine = layers::engine(fx, spec.backend, batch, args.seed, &mut tracer);
    let kernels = layers::kernels(fx, batch, args.seed, &mut tracer);
    // The engine spreads a batch's chunks over the pool; the kernel
    // replays ran on one thread.
    let chunk = BatchDiscriminator::new(fx.system.discriminators()).chunk_size_for(batch);
    let parallel = batch
        .div_ceil(chunk)
        .min(rayon::current_num_threads())
        .max(1);
    let kernel_us = kernels.batch_us(spec.backend, batch) / parallel as f64;

    record_requests(&mut tracer, &wired, &twin);
    let (wire_self, serve_self, engine_self) =
        self_times(&wired, &twin, primary, engine.batch_us, kernel_us);
    let trace_path = fx.dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let tenant_peak = |name: &str| {
        tenants
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.peak_queued_shots as f64)
    };
    let (qec_peak, bulk_peak) = if spec.tenants {
        (tenant_peak("qec"), tenant_peak("bulk"))
    } else if spec.mid_rate.is_some() {
        (tenant_peak("default"), 0.0)
    } else {
        (0.0, tenant_peak("default"))
    };
    let d = |f: fn(&ServeStats) -> u64| (f(&after) - f(&before)) as f64;
    let bulk_tput = base_f.bulk_tput;
    let n_base = base.attempted as usize;
    let metrics = vec![
        Metric::new(
            "gen.late_p99_us",
            percentile(&base.late_us, 0.99).unwrap_or(0.0),
            "us",
            base.late_us.len(),
        ),
        Metric::new(
            "gen.answered_per_offered",
            base.offered_answered as f64 / base.offered.max(1) as f64,
            "fraction",
            base.offered as usize,
        ),
        Metric::new(
            "wire.codec.req_encode_ns_per_shot",
            codec.req_encode_ns_per_shot,
            "ns/shot",
            sample.len(),
        ),
        Metric::new(
            "wire.codec.req_decode_ns_per_shot",
            codec.req_decode_ns_per_shot,
            "ns/shot",
            sample.len(),
        ),
        Metric::new("wire.codec.resp_ns", codec.resp_ns, "ns", sample.len()),
        Metric::new(
            "wire.tax_p50_us",
            wire_p50 - inproc_p50,
            "us",
            base_s.mid_us.len(),
        ),
        Metric::new("wire.stalls", base.stalls as f64, "count", n_base),
        Metric::new("wire.self_us", wire_self, "us", complete_us.len()),
        Metric::new("serve.inproc_p50_us", inproc_p50, "us", twin_s.mid_us.len()),
        Metric::new("serve.inproc_p99_us", inproc_p99, "us", twin_s.mid_us.len()),
        Metric::new(
            "serve.complete_p50_us",
            complete_p50,
            "us",
            complete_us.len(),
        ),
        Metric::new(
            "serve.tax_p50_us",
            complete_p50 - engine.batch_us,
            "us",
            complete_us.len(),
        ),
        Metric::new("serve.self_us", serve_self, "us", complete_us.len()),
        Metric::new(
            "serve.batch_shots_mean",
            batch_mean,
            "shots",
            batches as usize,
        ),
        Metric::new(
            "serve.requests_per_batch",
            d(|s| s.requests) / batches,
            "requests",
            batches as usize,
        ),
        Metric::new(
            "serve.expedited_frac",
            d(|s| s.expedited_batches) / batches,
            "fraction",
            batches as usize,
        ),
        Metric::new(
            "serve.largest_batch",
            after.largest_batch as f64,
            "shots",
            batches as usize,
        ),
        Metric::new("serve.shed", d(|s| s.shed), "count", n_base),
        Metric::new(
            "serve.deadline_misses",
            d(|s| s.deadline_misses),
            "count",
            n_base,
        ),
        Metric::new("serve.qec.peak_queued_shots", qec_peak, "shots", 1),
        Metric::new("serve.bulk.peak_queued_shots", bulk_peak, "shots", 1),
        Metric::new("engine.shots_per_s", engine.shots_per_s, "shots/s", batch),
        Metric::new("engine.batch_us", engine.batch_us, "us", batch),
        Metric::new(
            "engine.serve_frac",
            bulk_tput / engine.shots_per_s,
            "fraction",
            base_s.bulk_shots as usize,
        ),
        Metric::new("engine.pool_speedup", engine.pool_speedup, "x", batch),
        Metric::new("engine.self_us", engine_self, "us", complete_us.len()),
        Metric::new(
            "dsp.gather_ns_per_block",
            kernels.gather_ns_per_block,
            "ns/block",
            256,
        ),
        Metric::new(
            "dsp.extract_batch_fnn_a_ns",
            kernels.extract_batch_fnn_a_ns,
            "ns/block",
            256,
        ),
        Metric::new(
            "dsp.extract_batch_fnn_b_ns",
            kernels.extract_batch_fnn_b_ns,
            "ns/block",
            256,
        ),
        Metric::new("dsp.extract_ns", kernels.extract_ns, "ns/shot", 1024),
        Metric::new(
            "nn.logits_batch_fnn_a_ns",
            kernels.logits_batch_fnn_a_ns,
            "ns/shot",
            batch,
        ),
        Metric::new(
            "nn.logits_batch_fnn_b_ns",
            kernels.logits_batch_fnn_b_ns,
            "ns/shot",
            batch,
        ),
        Metric::new(
            "fpga.infer_batch_ns",
            kernels.infer_batch_ns,
            "ns/block",
            256,
        ),
        Metric::new("fpga.infer_ns", kernels.infer_ns, "ns/shot", 1024),
        Metric::new(
            "setup.load_s",
            need(median(&times.load_s), "setup.load_s")?,
            "s",
            times.load_s.len(),
        ),
        Metric::new(
            "setup.start_s",
            need(median(&times.start_s), "setup.start_s")?,
            "s",
            times.start_s.len(),
        ),
        Metric::new(
            "trace.overhead_frac",
            (traced_p50 - wire_p50) / wire_p50,
            "fraction",
            wired.done.len(),
        ),
    ];
    let (correct, attempted, failed, mut notes) = base_outcome(&[&base, &wired, &twin]);
    let mut selfs = [
        ("wire", wire_self),
        ("serve", serve_self),
        ("engine", engine_self),
    ];
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "largest self times per {} request: {} {:.1} us, {} {:.1} us (then {} {:.1} us); engine.serve_frac {:.3} = {:.0} served / {:.0} direct shots/s at {} shots per batch",
        if primary == Kind::Mid { "mid" } else { "bulk" },
        selfs[0].0, selfs[0].1, selfs[1].0, selfs[1].1, selfs[2].0, selfs[2].1,
        bulk_tput / engine.shots_per_s, bulk_tput, engine.shots_per_s, batch
    ));
    notes.push(format!(
        "trace: {} spans written to {}",
        tracer.spans.len(),
        trace_path.display()
    ));
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra: Vec::new(),
        notes,
    })
}

/// Request id of a stream position: spans of one request share it.
fn req_id(kind: Kind, seq: u64) -> u64 {
    (match kind {
        Kind::Mid => 1u64,
        Kind::Bulk => 2,
    } << 40)
        | seq
}

/// Spans recorded around the generator's calls: `gen.send` inside
/// `wire.rtt` per wire request; `twin.submit`, `serve.complete` (submit
/// to callback) and `twin.wake` (callback to the waiting thread) inside
/// `twin.request` per in-process request.
fn record_requests(tracer: &mut Tracer, wired: &Records, twin: &Records) {
    let sends = |rec: &Records| {
        rec.sends
            .iter()
            .map(|&(k, s, sent, written)| (req_id(k, s), (sent, written)))
            .collect::<HashMap<_, _>>()
    };
    let wire_sends = sends(wired);
    for (r, _, at) in &wired.done {
        let id = req_id(r.kind, r.seq);
        let root = tracer.span(None, "wire.rtt", id, tracer.at(r.sent), tracer.at(*at));
        if let Some(&(s, w)) = wire_sends.get(&id) {
            tracer.span(Some(root), "gen.send", id, tracer.at(s), tracer.at(w));
        }
    }
    let twin_sends = sends(twin);
    for (r, cb, at) in &twin.done {
        let id = req_id(r.kind, r.seq);
        let root = tracer.span(None, "twin.request", id, tracer.at(r.sent), tracer.at(*at));
        if let Some(&(s, w)) = twin_sends.get(&id) {
            tracer.span(Some(root), "twin.submit", id, tracer.at(s), tracer.at(w));
        }
        if let Some(cb) = cb {
            tracer.span(
                Some(root),
                "serve.complete",
                id,
                tracer.at(r.sent),
                tracer.at(*cb),
            );
            tracer.span(Some(root), "twin.wake", id, tracer.at(*cb), tracer.at(*at));
        }
    }
}

/// The outside-in breakdown of the primary stream: median self times
/// (µs) of wire, serve and engine. The layers nest. A wire request's
/// round trip holds its send and the in-process twin's submit-to-callback
/// time at the same stream position (serve); that holds one engine call
/// at the observed mean batch (`engine_us`); that holds the kernel
/// replays scaled to the batch (`kernel_us`). A layer's self time is its
/// time minus what the layers inside it cover, never below zero.
fn self_times(
    wired: &Records,
    twin: &Records,
    primary: Kind,
    engine_us: f64,
    kernel_us: f64,
) -> (f64, f64, f64) {
    let serve: HashMap<u64, f64> = twin
        .done
        .iter()
        .filter(|(r, _, _)| r.kind == primary)
        .filter_map(|(r, cb, _)| cb.map(|cb| (r.seq, us(cb - r.sent))))
        .collect();
    let send: HashMap<u64, f64> = wired
        .sends
        .iter()
        .filter(|s| s.0 == primary)
        .map(|&(_, seq, sent, written)| (seq, us(written - sent)))
        .collect();
    let (mut wire, mut srv) = (Vec::new(), Vec::new());
    for (r, _, at) in wired.done.iter().filter(|(r, _, _)| r.kind == primary) {
        if let (Some(&serve_us), Some(&send_us)) = (serve.get(&r.seq), send.get(&r.seq)) {
            wire.push((us(*at - r.sent) - send_us - serve_us).max(0.0));
            srv.push((serve_us - engine_us).max(0.0));
        }
    }
    (
        median(&wire).unwrap_or(0.0),
        median(&srv).unwrap_or(0.0),
        (engine_us - kernel_us).max(0.0),
    )
}

/// Whether a backend name matches (for the human-readable header).
pub fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Float => "float",
        Backend::Hardware => "hardware (Q16.16)",
    }
}
