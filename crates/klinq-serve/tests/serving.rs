//! End-to-end serving tests: coalesced responses must be exactly what a
//! direct batched classification would produce, for every client, on
//! both backends, under real concurrency.

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::{Priority, ReadoutServer, RequestOptions, ServeConfig, ServeError, Shot};
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
        .classify_shots_opts(RequestOptions::new(), Vec::<Shot>::new())
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

/// Latency request L1 closes a lingering batch of three 128-shot bulk
/// requests (128 shots is the collector's slice floor, so each is a
/// slice of its own), and L1's reply callback submits latency request
/// L2. Callbacks run on the collector, so L2 waits in intake before the
/// first bulk slice starts: it must be served at the boundary after
/// that slice, as a close of its own, not behind the whole batch. No
/// sleep or timer decides the order.
#[test]
fn latency_arrival_mid_close_cuts_in_at_the_next_slice() {
    let sys = system();
    let pool = sys.test_data().shots();
    let bulk: Vec<Vec<Shot>> = (0..3)
        .map(|r| {
            pool.iter()
                .cycle()
                .skip(100 * r)
                .take(128)
                .cloned()
                .collect()
        })
        .collect();
    let l1 = pool[5..6].to_vec();
    let l2 = pool[9..11].to_vec();
    let engine = BatchDiscriminator::new(sys.discriminators());
    for backend in Backend::ALL {
        // Only a latency arrival closes the batch: the budget exceeds the
        // bulk total and the linger is a minute.
        let server = ReadoutServer::start(
            system(),
            ServeConfig {
                backend,
                max_batch_shots: 4 * 128,
                max_linger: Duration::from_secs(60),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let (tx, rx) = mpsc::channel();
        let answer = |tag: &'static str| {
            let tx = tx.clone();
            move |result: Result<Vec<ShotStates>, ServeError>| {
                let _ = tx.send((tag, result));
            }
        };
        for (tag, shots) in ["B1", "B2", "B3"].into_iter().zip(&bulk) {
            client
                .submit_opts(RequestOptions::new(), shots.clone(), answer(tag))
                .expect("admitted");
        }
        let latency = RequestOptions::new().priority(Priority::Latency);
        let (on_l1, on_l2) = (answer("L1"), answer("L2"));
        let (chained, l2_shots) = (client.clone(), l2.clone());
        client
            .submit_opts(latency, l1.clone(), move |result| {
                on_l1(result);
                chained
                    .submit_opts(latency, l2_shots, on_l2)
                    .expect("L2 admitted");
            })
            .expect("L1 admitted");
        let mut order = Vec::new();
        for _ in 0..5 {
            let (tag, result) = rx.recv_timeout(Duration::from_secs(60)).expect("answered");
            let shots = match tag {
                "L1" => &l1,
                "L2" => &l2,
                _ => &bulk[usize::from(tag.as_bytes()[1] - b'1')],
            };
            assert_eq!(
                result.expect("served"),
                engine.classify_shots_on(backend, shots),
                "{tag} on {backend}"
            );
            order.push(tag);
        }
        assert_eq!(
            order,
            ["L1", "B1", "L2", "B2", "B3"],
            "reply order on {backend}"
        );
        let stats = server.shutdown();
        // The cut-in is a close of its own: two closes, both expedited.
        assert_eq!(stats.batches, 2, "{stats:?}");
        assert_eq!(stats.expedited_batches, 2, "{stats:?}");
        assert_eq!(stats.latency_requests, 2, "{stats:?}");
        assert_eq!(stats.largest_batch, 3 * 128 + 1, "{stats:?}");
    }
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

/// One generated request: shot count, a seed for its first test-set
/// shot, every how many shots a shot is truncated (0 = none), and how
/// far above the qubits' feature floors the cut lands (0 = at the floor).
type RequestPlan = (usize, usize, usize, f64);

/// Two to six requests of 1–40 shots each.
fn request_plans() -> impl proptest::Strategy<Value = Vec<RequestPlan>> {
    proptest::collection::vec((1usize..41, 0usize..10_000, 0usize..4, 0.0f64..1.0), 2..7)
}

/// Each planned request's shots, from the test set. A truncated shot has
/// every qubit's trace cut to a length at or above that qubit's floor —
/// still servable, but ragged against its neighbours.
fn planned_requests(sys: &KlinqSystem, plans: &[RequestPlan]) -> Vec<Vec<Shot>> {
    let pool = sys.test_data().shots();
    let full = sys.test_data().samples();
    let floors: Vec<usize> =
        sys.discriminators().iter().map(|d| d.student().pipeline.averager().outputs()).collect();
    plans
        .iter()
        .map(|&(count, seed, cut_every, above)| {
            let start = seed % (pool.len() - count + 1);
            let mut shots = pool[start..start + count].to_vec();
            if cut_every > 0 {
                for (k, shot) in shots.iter_mut().enumerate().step_by(cut_every) {
                    for (t, &floor) in shot.traces.iter_mut().zip(&floors) {
                        let keep = floor + ((full - floor) as f64 * above) as usize;
                        let keep = keep.saturating_sub(k % 3).max(floor);
                        t.i.truncate(keep);
                        t.q.truncate(keep);
                    }
                }
            }
            shots
        })
        .collect()
}

/// Two to six throughput requests of 1–200 shots each.
fn bulk_plans() -> impl proptest::Strategy<Value = Vec<RequestPlan>> {
    proptest::collection::vec((1usize..201, 0usize..10_000, 0usize..4, 0.0f64..1.0), 2..7)
}

/// One to four latency requests of 1–4 shots each, each with a seed that
/// picks the earlier request from whose reply callback it is submitted
/// (the first one is submitted directly).
fn latency_plans() -> impl proptest::Strategy<Value = Vec<(RequestPlan, usize)>> {
    proptest::collection::vec(
        (
            (1usize..5, 0usize..10_000, 0usize..4, 0.0f64..1.0),
            0usize..10_000,
        ),
        1..5,
    )
}

/// A reply callback, boxed so callbacks can be chained inside each other.
type Callback = Box<dyn FnOnce(Result<Vec<ShotStates>, ServeError>) + Send>;

/// What a calibration request adds to `calib_prepared_excited`,
/// `calib_false_excited` and `calib_false_ground`, per qubit.
fn calibration_counts(shots: &[Shot], states: &[ShotStates]) -> [[u64; 5]; 3] {
    let mut counts = [[0u64; 5]; 3];
    for (shot, states) in shots.iter().zip(states) {
        for qb in 0..5 {
            counts[0][qb] += u64::from(shot.prepared[qb]);
            counts[1][qb] += u64::from(!shot.prepared[qb] && states[qb]);
            counts[2][qb] += u64::from(shot.prepared[qb] && !states[qb]);
        }
    }
    counts
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(6))]

    #[test]
    fn coalesced_requests_of_mixed_shapes_match_direct(plans in request_plans()) {
        // All requests share one micro-batch: its budget is their total
        // and the linger never expires first, so the batch closes as the
        // last one arrives. Every answer must still be exactly its own
        // request's direct classification, and the calibration request
        // (the last) must score exactly its own shots.
        let sys = system();
        let mut requests = planned_requests(&sys, &plans);
        let calib = requests.pop().expect("at least two requests");
        let total = requests.iter().map(Vec::len).sum::<usize>() + calib.len();
        for backend in Backend::ALL {
            let engine = BatchDiscriminator::new(sys.discriminators());
            let server = ReadoutServer::start(
                system(),
                ServeConfig {
                    backend,
                    max_batch_shots: total,
                    max_linger: Duration::from_secs(60),
                    ..ServeConfig::default()
                },
            );
            let client = server.client();
            let (tx, rx) = mpsc::channel();
            for (r, shots) in requests.iter().enumerate() {
                let tx = tx.clone();
                client
                    .submit_opts(RequestOptions::new(), shots.clone(), move |result| {
                        let _ = tx.send((r, result));
                    })
                    .expect("admitted");
            }
            let calib_states = client
                .classify_calibration_shots(calib.clone())
                .expect("calibration lane served");
            proptest::prop_assert_eq!(&calib_states, &engine.classify_shots_on(backend, &calib));
            for _ in &requests {
                let (r, result) = rx.recv_timeout(Duration::from_secs(60)).expect("answered");
                proptest::prop_assert_eq!(
                    result.expect("served"),
                    engine.classify_shots_on(backend, &requests[r]),
                    "request {} on {}",
                    r,
                    backend
                );
            }
            let stats = server.shutdown();
            proptest::prop_assert_eq!(stats.batches, 1, "requests did not coalesce on {}", backend);
            proptest::prop_assert_eq!(stats.calib_shots, calib.len() as u64);
            proptest::prop_assert_eq!(
                [stats.calib_prepared_excited, stats.calib_false_excited, stats.calib_false_ground],
                calibration_counts(&calib, &calib_states)
            );
        }
    }

    #[test]
    fn latency_arrivals_during_bulk_work_match_direct(
        bulk in bulk_plans(),
        latency in latency_plans(),
    ) {
        // The throughput requests and the first latency request share one
        // close: only a latency arrival closes it (unbounded budget, a
        // minute's linger), so its throughput part runs in slices. Every
        // further latency request is submitted from the reply callback of
        // an earlier request — on the collector, between two slices — so
        // it cuts in, or closes a batch of its own once the slices are
        // done. Every request must be answered exactly once, with exactly
        // its own direct classification.
        let sys = system();
        let mut requests = planned_requests(&sys, &bulk);
        let n_bulk = requests.len();
        let plans: Vec<RequestPlan> = latency.iter().map(|&(plan, _)| plan).collect();
        requests.extend(planned_requests(&sys, &plans));
        // Request `n_bulk + k` is latency request `k`; for `k ≥ 1`, the
        // request whose callback submits it.
        let parent = |r: usize| latency[r - n_bulk].1 % r;
        for backend in Backend::ALL {
            let engine = BatchDiscriminator::new(sys.discriminators());
            let server = ReadoutServer::start(
                system(),
                ServeConfig {
                    backend,
                    max_batch_shots: usize::MAX,
                    max_linger: Duration::from_secs(60),
                    ..ServeConfig::default()
                },
            );
            let client = server.client();
            let (tx, rx) = mpsc::channel();
            // Built last to first: a chained request's callback exists
            // before its parent's, which submits it.
            let mut callbacks: Vec<Option<Callback>> = requests.iter().map(|_| None).collect();
            for r in (0..requests.len()).rev() {
                let children: Vec<(Vec<Shot>, Callback)> = (r + 1..requests.len())
                    .filter(|&c| c > n_bulk && parent(c) == r)
                    .filter_map(|c| Some((requests[c].clone(), callbacks[c].take()?)))
                    .collect();
                let (tx, client) = (tx.clone(), client.clone());
                callbacks[r] = Some(Box::new(move |result| {
                    let _ = tx.send((r, result));
                    for (shots, callback) in children {
                        client
                            .submit_opts(RequestOptions::new().priority(Priority::Latency), shots, callback)
                            .expect("chained latency request admitted");
                    }
                }));
            }
            for (r, callback) in callbacks.iter_mut().enumerate().take(n_bulk + 1) {
                let priority = if r < n_bulk { Priority::Throughput } else { Priority::Latency };
                let callback = callback.take().expect("every callback was built");
                client
                    .submit_opts(RequestOptions::new().priority(priority), requests[r].clone(), callback)
                    .expect("admitted");
            }
            let mut answered = vec![false; requests.len()];
            for _ in &requests {
                let (r, result) = rx.recv_timeout(Duration::from_secs(60)).expect("answered");
                proptest::prop_assert!(!answered[r], "request {} answered twice on {}", r, backend);
                answered[r] = true;
                proptest::prop_assert_eq!(
                    result.expect("served"),
                    engine.classify_shots_on(backend, &requests[r]),
                    "request {} on {}",
                    r,
                    backend
                );
            }
            let stats = server.shutdown();
            proptest::prop_assert!(rx.try_recv().is_err(), "an extra answer arrived on {}", backend);
            proptest::prop_assert_eq!(stats.requests, requests.len() as u64);
            proptest::prop_assert_eq!(stats.shots, requests.iter().map(Vec::len).sum::<usize>() as u64);
            proptest::prop_assert_eq!(stats.latency_requests, latency.len() as u64);
            // Every close held a latency request: the first one, the
            // cut-ins, and any chained request that arrived after the
            // last slice.
            proptest::prop_assert_eq!(stats.expedited_batches, stats.batches, "{:?}", stats);
        }
    }
}
