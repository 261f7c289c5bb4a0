//! Serving-path benchmarks: coalesced micro-batch throughput through
//! `klinq_serve::ReadoutServer`, next to the direct engine figures.
//!
//! The interesting number is the *overhead of serving*: how much of the
//! direct `batched_inference/testset_parallel` throughput survives once
//! shots arrive as concurrent client requests that must be coalesced,
//! classified and scattered back. These results are therefore merged
//! into `BENCH_inference.json` (see `write_json_report_as`) so the
//! serving and direct figures sit in one trajectory file; the serving
//! targets are expected to hold at least ~50% of the direct figure.

use criterion::{criterion_group, Criterion, Throughput};
use klinq_core::testkit;
use klinq_core::{Backend, KlinqSystem};
use klinq_serve::{
    ReadoutServer, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer, SuperviseConfig,
    WireClient, WireConfig, WireServer,
};
use klinq_sim::Shot;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One trained smoke system shared by every benchmark in this binary
/// (disk-cached across the workspace's test/bench binaries).
fn system() -> Arc<KlinqSystem> {
    static SYS: OnceLock<Arc<KlinqSystem>> = OnceLock::new();
    Arc::clone(SYS.get_or_init(|| {
        Arc::new(testkit::cached_smoke_system(Path::new(env!(
            "CARGO_TARGET_TMPDIR"
        ))))
    }))
}

/// Drives `clients` concurrent client threads through one request each
/// covering the whole test set, and waits for every response.
fn serve_round(server: &ReadoutServer, shots: &[Shot], clients: usize) {
    let per_client = shots.len().div_ceil(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shots
            .chunks(per_client)
            .map(|chunk| {
                let client = server.client();
                scope.spawn(move || {
                    client
                        .classify_shots_opts(RequestOptions::new(), chunk.to_vec())
                        .expect("server alive")
                })
            })
            .collect();
        for handle in handles {
            black_box(handle.join().expect("client thread").len());
        }
    });
}

/// Coalesced serving throughput (shots/sec across all five qubits), for
/// one and four concurrent clients on both backends.
fn bench_serving(c: &mut Criterion) {
    // Stamp the pool size onto every entry (see `tools/benchdiff`).
    criterion::set_worker_threads(rayon::current_num_threads());
    let system = system();
    let shots: Vec<Shot> = system.test_data().shots().to_vec();

    let mut group = c.benchmark_group("serving");
    group.throughput(Throughput::Elements(shots.len() as u64));
    for (name, clients, backend) in [
        ("testset_1_client", 1, Backend::Float),
        ("testset_4_clients", 4, Backend::Float),
        ("testset_4_clients_hw", 4, Backend::Hardware),
    ] {
        group.bench_function(name, |b| {
            let server = ReadoutServer::start(
                Arc::clone(&system),
                ServeConfig {
                    backend,
                    // The whole test set closes one batch, so the linger
                    // only ever waits for the remaining clients' sends.
                    max_batch_shots: shots.len(),
                    max_linger: Duration::from_millis(5),
                    ..ServeConfig::default()
                },
            );
            b.iter(|| serve_round(&server, &shots, clients));
            server.shutdown();
        });
    }

    // Sharded fleet: two device shards (the same trained system twice —
    // shard-routing overhead is what's being measured), two clients per
    // device, each client covering half the test set. One iteration
    // classifies the test set once per device.
    group.throughput(Throughput::Elements(2 * shots.len() as u64));
    group.bench_function("sharded_2dev_4_clients", |b| {
        let fleet = ShardedReadoutServer::start(
            vec![Arc::clone(&system), Arc::clone(&system)],
            ServeConfig {
                max_batch_shots: shots.len(),
                max_linger: Duration::from_millis(5),
                ..ServeConfig::default()
            },
        );
        b.iter(|| {
            let per_client = shots.len().div_ceil(2);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for device in 0..fleet.devices() {
                    for chunk in shots.chunks(per_client) {
                        let client = fleet.client(device);
                        handles.push(scope.spawn(move || {
                            client
                                .classify_shots_opts(RequestOptions::new(), chunk.to_vec())
                                .expect("fleet alive")
                                .len()
                        }));
                    }
                }
                for handle in handles {
                    black_box(handle.join().expect("client thread"));
                }
            });
        });
        fleet.shutdown();
    });

    // Wire protocol: the whole test set per request over localhost TCP —
    // the out-of-process serving figure next to the in-process one
    // (framing + loopback round trip is the measured overhead).
    group.throughput(Throughput::Elements(shots.len() as u64));
    group.bench_function("wire_testset", |b| {
        let fleet = ShardedReadoutServer::start(
            vec![Arc::clone(&system)],
            ServeConfig {
                max_batch_shots: shots.len(),
                max_linger: Duration::from_millis(5),
                ..ServeConfig::default()
            },
        );
        let server = WireServer::start(
            &fleet,
            TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
        )
        .expect("start wire server");
        let mut client =
            WireClient::connect(server.local_addr(), 0).expect("connect loopback");
        b.iter(|| {
            black_box(
                client.classify_shots_opts(RequestOptions::new(), &shots).expect("served").len(),
            )
        });
        drop(client);
        server.shutdown();
        fleet.shutdown();
    });
    group.finish();
}

/// Shots per pipelined wire request in the concurrency sweep.
const SWEEP_SLICE: usize = 4;
/// Wall clock per measured concurrency level.
const SWEEP_MEASURE_TIME: Duration = Duration::from_secs(1);

/// Reactor concurrency scaling: `serving/wire_c{64,256,1024}` drive that
/// many *concurrent pipelined connections* against one wire server (one
/// reactor thread, one device shard) and record aggregate throughput
/// plus per-request latency percentiles (`…_p50`/`…_p99`, `ns_per_iter`
/// carries the percentile, no throughput figure).
///
/// One round = one in-flight request per connection (submit everything,
/// then drain), so a round's shot total is `conns * SWEEP_SLICE` and the
/// coalescer sees exactly the many-small-clients shape the reactor
/// exists for. A single driver thread suffices *because* the protocol
/// pipelines — no thread-per-connection on either side of the wire.
///
/// `Bencher::iter`'s single median cannot express percentiles, so this
/// measures by hand: in test mode each level runs one round as a smoke
/// test, in bench mode rounds repeat for [`SWEEP_MEASURE_TIME`] after a
/// warmup round, and the three figures are recorded directly.
fn bench_wire_concurrency(c: &mut Criterion) {
    let system = system();
    let shots: Vec<Shot> = system.test_data().shots().to_vec();
    for conns in [64usize, 256, 1024] {
        let id = format!("serving/wire_c{conns}");
        if !c.is_selected(&id) {
            continue;
        }
        let fleet = ShardedReadoutServer::start(
            vec![Arc::clone(&system)],
            ServeConfig {
                // Batches close on the aggregate in-flight shot count —
                // one round fills one batch exactly, so the linger is a
                // straggler bound, not a wait (batches close on count);
                // the queue bound must admit every connection's request
                // at once.
                max_batch_shots: conns * SWEEP_SLICE,
                max_linger: Duration::from_millis(10),
                max_pending: (2 * conns).max(1024),
                ..ServeConfig::default()
            },
        );
        let server = WireServer::start_with(
            &fleet,
            TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
            WireConfig {
                max_connections: conns + 8,
                ..WireConfig::default()
            },
        )
        .expect("start wire server");
        let mut clients: Vec<WireClient> = (0..conns)
            .map(|_| WireClient::connect(server.local_addr(), 0).expect("connect loopback"))
            .collect();
        let slice_of = |i: usize| {
            let s = (i * SWEEP_SLICE) % (shots.len() - SWEEP_SLICE);
            &shots[s..s + SWEEP_SLICE]
        };
        // One request per connection in flight; returns per-request
        // latencies (submit → response drained) in nanoseconds.
        let round = |clients: &mut [WireClient], latencies: &mut Vec<f64>| {
            let mut submitted = Vec::with_capacity(clients.len());
            for (i, client) in clients.iter_mut().enumerate() {
                client.submit_opts(RequestOptions::new(), slice_of(i)).expect("submitted");
                submitted.push(Instant::now());
            }
            for (i, client) in clients.iter_mut().enumerate() {
                let (_, result) = client.recv_response().expect("server alive");
                black_box(result.expect("served").len());
                latencies.push(submitted[i].elapsed().as_nanos() as f64);
            }
        };
        let mut latencies = Vec::new();
        round(&mut clients, &mut latencies); // warmup / smoke
        if c.is_bench() {
            latencies.clear();
            let mut rounds = 0u64;
            let t0 = Instant::now();
            let elapsed = loop {
                round(&mut clients, &mut latencies);
                rounds += 1;
                let elapsed = t0.elapsed();
                if elapsed >= SWEEP_MEASURE_TIME {
                    break elapsed;
                }
            };
            let ns = elapsed.as_nanos() as f64;
            let total_shots = (rounds * (conns * SWEEP_SLICE) as u64) as f64;
            criterion::record_measurement(
                &id,
                ns / rounds as f64,
                Some((total_shots / (ns * 1e-9), "elem/s")),
            );
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            for (tag, q) in [("p50", 0.50), ("p99", 0.99)] {
                let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
                criterion::record_measurement(&format!("{id}_{tag}"), latencies[idx], None);
            }
        } else {
            println!("{id}: ok (test mode, 1 round)");
        }
        drop(clients);
        server.shutdown();
        fleet.shutdown();
    }
}

/// Failover soak: a two-device fleet over the wire, pipelined
/// failover-enabled traffic bound to device 0, and a collector crash
/// injected mid-run (`ShardedReadoutServer::kill_shard`). Records
/// `serving/failover_p99` — the p99 request latency across the whole
/// run, outage included (a `ShardDown` answer is resubmitted and the
/// retry counts toward its request's latency, which is the number an
/// operator sees during an outage) — and `serving/failover_recovery`,
/// the shard's measured `Down → Healthy` recovery time. Both are
/// latency ids in nanoseconds and, like every `serving/*` id, warn-only
/// under tools/benchdiff (kill timing and thread scheduling jitter
/// would flake a hard gate).
fn bench_failover(c: &mut Criterion) {
    let id = "serving/failover_p99";
    if !c.is_selected(id) {
        return;
    }
    const CONNS: usize = 16;
    const SLICE: usize = 4;
    let system = system();
    let shots: Vec<Shot> = system.test_data().shots().to_vec();
    let fleet = ShardedReadoutServer::start(
        vec![Arc::clone(&system), Arc::clone(&system)],
        ServeConfig {
            max_batch_shots: CONNS * SLICE,
            max_linger: Duration::from_millis(2),
            // A fast watchdog and short backoff: the soak measures the
            // failover path and the recovery, not the backoff timer.
            supervise: SuperviseConfig {
                watchdog_interval: Duration::from_millis(2),
                restart_backoff: Duration::from_millis(50),
                ..SuperviseConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
        WireConfig {
            max_connections: CONNS + 8,
            ..WireConfig::default()
        },
    )
    .expect("start wire server");
    let mut clients: Vec<WireClient> = (0..CONNS)
        .map(|_| {
            let mut client =
                WireClient::connect(server.local_addr(), 0).expect("connect loopback");
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("set timeout");
            client
        })
        .collect();
    let slice_of = |i: usize| {
        let s = (i * SLICE) % (shots.len() - SLICE);
        &shots[s..s + SLICE]
    };
    // One failover-enabled request per connection in flight. Only a
    // request the dead collector owned at crash time answers
    // `ShardDown`; everything submitted while the shard is down rides
    // the healthy peer.
    let round = |clients: &mut [WireClient], latencies: &mut Vec<f64>| {
        let mut submitted = Vec::with_capacity(clients.len());
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .submit_opts(RequestOptions::new().failover(true), slice_of(i))
                .expect("submitted");
            submitted.push(Instant::now());
        }
        for (i, client) in clients.iter_mut().enumerate() {
            loop {
                let (_, result) = client.recv_response().expect("server alive");
                match result {
                    Ok(states) => {
                        black_box(states.len());
                        break;
                    }
                    Err(ServeError::ShardDown) => {
                        client
                            .submit_opts(RequestOptions::new().failover(true), slice_of(i))
                            .expect("resubmitted");
                    }
                    Err(other) => panic!("unexpected serving error: {other:?}"),
                }
            }
            latencies.push(submitted[i].elapsed().as_nanos() as f64);
        }
    };
    let mut latencies = Vec::new();
    round(&mut clients, &mut latencies); // warmup / smoke
    let measure = if c.is_bench() {
        Duration::from_secs(1)
    } else {
        Duration::from_millis(50)
    };
    latencies.clear();
    let t0 = Instant::now();
    let mut killed = false;
    loop {
        round(&mut clients, &mut latencies);
        if !killed && t0.elapsed() >= measure / 4 {
            fleet.kill_shard(0).expect("inject the crash");
            killed = true;
        }
        // Run at least the measurement window AND through the full
        // recovery, so the recorded p99 covers the outage end to end.
        if t0.elapsed() >= measure && fleet.stats().restarts >= 1 {
            break;
        }
    }
    if c.is_bench() {
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p99 = latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize];
        criterion::record_measurement(id, p99, None);
        let recovery_ns = fleet.stats().recovery_us as f64 * 1e3;
        criterion::record_measurement("serving/failover_recovery", recovery_ns, None);
    } else {
        println!("{id}: ok (test mode, crash + recovery exercised)");
    }
    drop(clients);
    server.shutdown();
    fleet.shutdown();
}

criterion_group!(benches, bench_serving, bench_wire_concurrency, bench_failover);

fn main() {
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    // Serving results belong in the inference trajectory file, next to
    // the direct `batched_inference/*` figures they are compared with.
    // This binary owns the `serving/*` group, so the group-wholesale
    // merge is right (renamed ids don't linger) — but it also wipes the
    // `soak` bench's `serving/soak_*` entries, so a full re-record runs
    // the soak *after* this bench (as CI's trajectory step does).
    criterion::write_json_report_as("inference");
}
