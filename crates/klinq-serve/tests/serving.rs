//! End-to-end serving tests: coalesced responses must be exactly what a
//! direct batched classification would produce, for every client, on
//! both backends, under real concurrency.

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem};
use klinq_serve::{Priority, ReadoutServer, RequestOptions, ServeConfig, ServeError};
use std::path::Path;
use std::sync::{mpsc, Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// The shared smoke system (disk-cached across the workspace's test
/// binaries, see `klinq_core::testkit`).
fn system() -> Arc<KlinqSystem> {
    static SYS: OnceLock<Arc<KlinqSystem>> = OnceLock::new();
    Arc::clone(SYS.get_or_init(|| {
        Arc::new(testkit::cached_smoke_system(Path::new(env!(
            "CARGO_TARGET_TMPDIR"
        ))))
    }))
}

#[test]
fn single_client_matches_direct_batch_on_both_backends() {
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    for backend in Backend::ALL {
        let server = ReadoutServer::start(
            system(),
            ServeConfig {
                backend,
                ..ServeConfig::default()
            },
        );
        let served = server
            .client()
            .classify_shots_opts(RequestOptions::new(), shots.clone())
            .expect("server alive");
        let direct =
            BatchDiscriminator::new(sys.discriminators()).classify_shots_on(backend, &shots);
        assert_eq!(served, direct, "served results diverged on {backend}");
        let stats = server.shutdown();
        assert_eq!(stats.shots, shots.len() as u64);
        assert_eq!(stats.requests, 1);
    }
}

#[test]
fn four_concurrent_clients_each_get_their_own_results() {
    let sys = system();
    let shots = sys.test_data().shots();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, shots);

    // Generous linger so the four clients' requests actually coalesce.
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    let n_clients = 4;
    let rounds = 3;
    let barrier = Barrier::new(n_clients);
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let client = server.client();
            let barrier = &barrier;
            let direct = &direct;
            scope.spawn(move || {
                // Interleaved slices so every client's shots are spread
                // over the whole set, several requests per client.
                for round in 0..rounds {
                    let indices: Vec<usize> = (0..shots.len())
                        .filter(|i| (i + round) % n_clients == c)
                        .collect();
                    let mine: Vec<_> = indices.iter().map(|&i| shots[i].clone()).collect();
                    barrier.wait();
                    let states = client
                        .classify_shots_opts(RequestOptions::new(), mine)
                        .expect("server alive");
                    assert_eq!(states.len(), indices.len());
                    for (k, &i) in indices.iter().enumerate() {
                        assert_eq!(states[k], direct[i], "client {c} shot {i} diverged");
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests, (n_clients * rounds) as u64);
    assert_eq!(stats.shots, (shots.len() * rounds) as u64);
    // Coalescing must have actually merged concurrent requests: with
    // four barrier-aligned clients and a 100 ms linger, the collector
    // cannot have run one batch per request every single round.
    assert!(
        stats.batches < stats.requests,
        "no coalescing happened: {stats:?}"
    );
    assert!(stats.largest_batch > (shots.len() / n_clients) as u64, "{stats:?}");
}

#[test]
fn oversized_request_is_never_split() {
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            // Budget far below the request size: the request must still
            // be answered atomically in one oversized batch.
            max_batch_shots: 8,
            max_linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let served = server
        .client()
        .classify_shots_opts(RequestOptions::new(), shots.clone())
        .expect("server alive");
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    assert_eq!(served, direct);
    let stats = server.shutdown();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.largest_batch, shots.len() as u64);
}

#[test]
fn single_shot_api_and_empty_requests() {
    let sys = system();
    let shot = sys.test_data().shot(5).clone();
    let server = ReadoutServer::start(system(), ServeConfig::default());
    let client = server.client();
    let states = client
        .classify_shots_opts(RequestOptions::new(), vec![shot.clone()])
        .expect("server alive")[0];
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    assert_eq!(states, direct);
    // Empty requests complete locally without touching the server.
    assert!(client
        .classify_shots_opts(RequestOptions::new(), Vec::new())
        .expect("empty ok")
        .is_empty());
    let stats = server.shutdown();
    assert_eq!(stats.requests, 1);
}

#[test]
fn huge_linger_does_not_panic_the_collector() {
    // Regression: `Instant::now() + max_linger` overflowed (and panicked
    // the collector) for huge lingers like `Duration::MAX` as "wait
    // until the budget fills", after which every client got `Closed`.
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::MAX,
            // Budget of one: the first request closes its own batch, so
            // the infinite linger never actually waits.
            max_batch_shots: 1,
            ..ServeConfig::default()
        },
    );
    let states = server
        .client()
        .classify_shots_opts(RequestOptions::new(), vec![shot.clone()])
        .expect("server alive")[0];
    assert_eq!(
        states,
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    server.shutdown();
}

#[test]
fn shutdown_mid_coalesce_answers_the_in_flight_batch() {
    // An infinite linger with an unreachable budget parks the collector
    // in a plain `recv` with a batch open; `Shutdown` must close that
    // batch and answer it, not strand the client.
    let sys = system();
    let shots = sys.test_data().shots()[..3].to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::MAX,
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    std::thread::scope(|scope| {
        let handle =
            scope.spawn(|| client.classify_shots_opts(RequestOptions::new(), shots.clone()));
        // Let the request open its batch before shutting down.
        std::thread::sleep(Duration::from_millis(200));
        let stats = server.shutdown();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        let states = handle.join().expect("client thread").expect("answered at shutdown");
        assert_eq!(states, direct);
    });
}

#[test]
fn latency_priority_skips_the_linger_window() {
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    // A linger long enough that a lingering batch would time the test
    // out; only the priority lane can answer quickly.
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::from_secs(600),
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let start = Instant::now();
    let states = client
        .classify_shots_opts(RequestOptions::new().priority(Priority::Latency), vec![shot.clone()])
        .expect("server alive");
    let elapsed = start.elapsed();
    assert_eq!(
        states[0],
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "latency request waited out the linger: {elapsed:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.latency_requests, 1);
    assert_eq!(stats.expedited_batches, 1, "{stats:?}");
}

#[test]
fn latency_arrival_closes_a_lingering_batch() {
    let sys = system();
    let shots = sys.test_data().shots();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, shots);
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::from_secs(600),
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let throughput_client = server.client();
        let bulk: Vec<_> = shots[..4].to_vec();
        let bulk_handle =
            scope.spawn(move || throughput_client.classify_shots_opts(RequestOptions::new(), bulk));
        // Give the throughput request time to open its batch and start
        // lingering, then let a latency request cut the linger short.
        std::thread::sleep(Duration::from_millis(200));
        let latency_client = server.client();
        let states = latency_client
            .classify_shots_opts(
                RequestOptions::new().priority(Priority::Latency),
                vec![shots[7].clone()],
            )
            .expect("server alive");
        assert_eq!(states[0], direct[7]);
        // The bulk request rode in the same expedited batch.
        let bulk_states = bulk_handle.join().expect("bulk thread").expect("server alive");
        assert_eq!(bulk_states, direct[..4]);
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(
        stats.batches, 1,
        "the latency request must join the open batch, not start its own: {stats:?}"
    );
    assert_eq!(stats.expedited_batches, 1);
    assert_eq!(stats.latency_requests, 1);
}

#[test]
fn full_intake_queue_sheds_with_overloaded() {
    let sys = system();
    let shots = sys.test_data().shots();
    // A deliberately long request keeps the collector busy classifying
    // while the intake queue (capacity 1) fills behind it: the Q16.16
    // backend (several times slower than float) and a request scaled by
    // the worker-pool size keep the busy window well past the sleeps
    // below even on fast release builds and multi-core pools.
    let copies = 64 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let big: Vec<_> = std::iter::repeat_with(|| shots.iter().cloned())
        .take(copies)
        .flatten()
        .collect();
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            backend: Backend::Hardware,
            max_batch_shots: 1,
            max_linger: Duration::ZERO,
            max_pending: 1,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let big_client = server.client();
        let big_request = {
            let big = big.clone();
            scope.spawn(move || big_client.classify_shots_opts(RequestOptions::new(), big))
        };
        // Wait until the collector has admitted the big request (its
        // tenant's peak backlog shows it) — validating that many shots
        // takes a while. From there only a drain of the empty intake
        // queue lies between admission and classification, which takes
        // far longer than this sleep.
        while server.tenant_stats()[0].peak_queued_shots < big.len() as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        // Take the one queue slot: `submit_opts` returns once queued.
        let (queued_tx, queued_rx) = mpsc::channel();
        server
            .client()
            .submit_opts(RequestOptions::new(), vec![shots[0].clone()], move |result| {
                let _ = queued_tx.send(result);
            })
            .expect("the queue slot is free");
        // Queue slot taken and the collector is busy: shed, immediately.
        let start = Instant::now();
        let overflow =
            server.client().classify_shots_opts(RequestOptions::new(), vec![shots[1].clone()]);
        // A channel-full shed has no backlog estimate, so no hint.
        assert_eq!(overflow, Err(ServeError::Overloaded { retry_after: None }));
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "shedding must not wait for the collector"
        );
        // The queued request is answered once the collector frees up.
        let state = queued_rx.recv().expect("queued request answered").expect("server alive")[0];
        assert_eq!(
            state,
            BatchDiscriminator::new(sys.discriminators())
                .classify_shot_on(Backend::Hardware, &shots[0])
        );
        let big_states = big_request.join().expect("big thread").expect("server alive");
        assert_eq!(big_states.len(), big.len());
    });
    let stats = server.shutdown();
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert_eq!(stats.requests, 2, "shed requests must not count as served");
}

#[test]
fn oversized_requests_scatter_one_to_one() {
    // Two concurrent requests, each alone bigger than the batch budget:
    // each must form its own oversized batch and get exactly its own
    // states back — never a merged or split scatter.
    let sys = system();
    let shots = sys.test_data().shots();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, shots);
    let half = shots.len() / 2;
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            max_batch_shots: 8,
            max_linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = [(0, half), (half, shots.len())]
            .into_iter()
            .map(|(lo, hi)| {
                let client = server.client();
                let mine = shots[lo..hi].to_vec();
                scope.spawn(move || {
                    (
                        lo,
                        client
                            .classify_shots_opts(RequestOptions::new(), mine)
                            .expect("server alive"),
                    )
                })
            })
            .collect();
        for handle in handles {
            let (lo, states) = handle.join().expect("client thread");
            assert_eq!(states, direct[lo..lo + states.len()]);
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.batches, 2, "oversized requests never coalesce: {stats:?}");
    assert_eq!(stats.shots, shots.len() as u64);
}

#[test]
fn clients_fail_fast_after_shutdown() {
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let server = ReadoutServer::start(system(), ServeConfig::default());
    let client = server.client();
    server.shutdown();
    assert_eq!(
        client.classify_shots_opts(RequestOptions::new(), vec![shot]),
        Err(ServeError::Closed)
    );
}

#[test]
fn malformed_requests_are_rejected_without_killing_the_server() {
    let sys = system();
    let server = ReadoutServer::start(system(), ServeConfig::default());
    let client = server.client();
    // Traces far below the feature front end's floor: a typed rejection,
    // not a collector panic.
    let mut bad = sys.test_data().shot(0).clone();
    for t in &mut bad.traces {
        t.i.truncate(3);
        t.q.truncate(3);
    }
    match client.classify_shots_opts(RequestOptions::new(), vec![bad]) {
        Err(ServeError::InvalidRequest(msg)) => {
            assert!(msg.contains("front end"), "{msg}")
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    // The server is still alive and still serves valid requests.
    let good = sys.test_data().shot(1).clone();
    let states = client
        .classify_shots_opts(RequestOptions::new(), vec![good.clone()])
        .expect("server alive")[0];
    assert_eq!(
        states,
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &good)
    );
    // The floor is per qubit: a mid-circuit truncation of an FNN-A qubit
    // (floor 15) below the FNN-B floor (100) is still a servable request.
    let mut truncated = sys.test_data().shot(2).clone();
    truncated.traces[0].i.truncate(72);
    truncated.traces[0].q.truncate(72);
    let states = client
        .classify_shots_opts(RequestOptions::new(), vec![truncated.clone()])
        .expect("per-qubit floor")[0];
    assert_eq!(
        states,
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &truncated)
    );
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2, "rejected request must not be counted as served");
}

#[test]
fn invalid_configs_panic_at_start_not_silently_on_the_collector() {
    let zero_batch = std::panic::catch_unwind(|| {
        ReadoutServer::start(
            system(),
            ServeConfig {
                max_batch_shots: 0,
                ..ServeConfig::default()
            },
        )
    });
    assert!(zero_batch.is_err(), "max_batch_shots 0 must be rejected");
}
