//! Deadline semantics, end to end: an expired request is answered with
//! [`ServeError::DeadlineExceeded`] and **never** with states, and a
//! batch never lingers past its oldest queued deadline — on both
//! backends and over both submission paths (in-process client and the
//! TCP wire protocol).

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::{
    ReadoutServer, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer, TenantId,
    TenantSpec, WireClient, WireConfig, WireServer,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{mpsc, Arc, OnceLock};
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

/// Reaping off: the reactor parks with no timeout, so a lost
/// completion wakeup fails the test instead of hiding behind a reap
/// tick.
fn no_reap() -> WireConfig {
    WireConfig {
        idle_timeout: None,
        ..WireConfig::default()
    }
}

fn direct(sys: &KlinqSystem, backend: Backend, shots: &[klinq_sim::Shot]) -> Vec<ShotStates> {
    BatchDiscriminator::new(sys.discriminators()).classify_shots_on(backend, shots)
}

/// Per-request deadline shape a proptest case assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// No deadline: must be served with states.
    None,
    /// Already expired at submission: must fail typed, never serve.
    Expired,
    /// Far in the future: must be served with states.
    Generous,
}

/// Maps a generated index onto a [`Shape`] (the vendored proptest has
/// no `prop_oneof`; a small integer range serves the same purpose).
fn shape(ix: u8) -> Shape {
    match ix % 3 {
        0 => Shape::None,
        1 => Shape::Expired,
        _ => Shape::Generous,
    }
}

fn options_for(shape: Shape) -> RequestOptions {
    match shape {
        Shape::None => RequestOptions::new(),
        // `Duration::ZERO` is already in the past by the time anything
        // can look at it (the wire path rounds it up to 1 µs — still
        // expired long before a batch could classify a shot).
        Shape::Expired => RequestOptions::new().deadline(Duration::ZERO),
        Shape::Generous => RequestOptions::new().deadline(Duration::from_secs(30)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core deadline property, in process: whatever the mix of
    /// expired, deadline-free and comfortably-deadlined requests, and
    /// whatever the batch shape, an expired request is answered
    /// `DeadlineExceeded` — never with states — and everything else is
    /// answered bitwise-identically to the direct classifier. Both
    /// backends.
    #[test]
    fn expired_requests_never_get_states_in_process(
        sizes_and_shapes in prop::collection::vec((1usize..6, 0u8..3), 1..12),
        budget in 4usize..48,
        linger_us in 0u64..2000,
        hardware in any::<bool>(),
    ) {
        let backend = if hardware { Backend::Hardware } else { Backend::Float };
        let sys = system();
        let all_shots = sys.test_data().shots();
        let server = ReadoutServer::start(
            Arc::clone(&sys),
            ServeConfig {
                backend,
                max_batch_shots: budget,
                max_linger: Duration::from_micros(linger_us),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let (done_tx, done_rx) = mpsc::channel();
        let mut expected = Vec::new();
        for (i, &(size, shape_ix)) in sizes_and_shapes.iter().enumerate() {
            let shape = shape(shape_ix);
            let start = (i * 7) % (all_shots.len() - size);
            let shots = all_shots[start..start + size].to_vec();
            expected.push((shape, direct(&sys, backend, &shots)));
            let tx = done_tx.clone();
            client
                .submit_opts(options_for(shape), shots, move |result| {
                    let _ = tx.send((i, result));
                })
                .expect("intake open");
        }
        let mut got = vec![None; expected.len()];
        for _ in 0..expected.len() {
            let (i, result) = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every request is answered exactly once");
            prop_assert!(got[i].is_none(), "request {i} answered twice");
            got[i] = Some(result);
        }
        for (i, (result, (shape, states))) in got.into_iter().zip(&expected).enumerate() {
            match (shape, result.expect("collected above")) {
                (Shape::Expired, Err(ServeError::DeadlineExceeded)) => {}
                (Shape::Expired, other) => {
                    prop_assert!(
                        false,
                        "expired request {i} got {:?}, want DeadlineExceeded",
                        other.map(|s| s.len())
                    );
                }
                (_, Ok(served)) => prop_assert_eq!(&served, states, "request {} diverges", i),
                (shape, Err(e)) => {
                    prop_assert!(false, "{shape:?} request {i} failed: {e}");
                }
            }
        }
        server.shutdown();
    }

    /// The same property over the wire: deadlines survive encoding, and
    /// an expired request comes back as a typed per-request error frame
    /// on a connection that keeps serving. Both backends.
    #[test]
    fn expired_requests_never_get_states_over_the_wire(
        shapes in prop::collection::vec(0u8..3, 1..8),
        hardware in any::<bool>(),
    ) {
        let backend = if hardware { Backend::Hardware } else { Backend::Float };
        let sys = system();
        let all_shots = sys.test_data().shots();
        let fleet = ShardedReadoutServer::start(
            vec![Arc::clone(&sys)],
            ServeConfig {
                backend,
                max_linger: Duration::from_micros(200),
                sched: klinq_serve::SchedPolicy::new(vec![TenantSpec::new("t", 1)]),
                ..ServeConfig::default()
            },
        );
        let server = WireServer::start_with(
            &fleet,
            TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
            no_reap(),
        )
        .expect("start wire server");
        let mut client = WireClient::connect(server.local_addr(), 0).expect("connect");
        // Pipelined: submit the whole mix, then drain — responses may
        // interleave with batch boundaries however they like.
        let mut by_req = Vec::new();
        for (i, &shape_ix) in shapes.iter().enumerate() {
            let shape = shape(shape_ix);
            let size = 1 + i % 4;
            let start = (i * 11) % (all_shots.len() - size);
            let shots = &all_shots[start..start + size];
            let req_id = client
                .submit_opts(options_for(shape).tenant(TenantId(0)), shots)
                .expect("submit");
            by_req.push((req_id, shape, direct(&sys, backend, shots)));
        }
        for _ in 0..by_req.len() {
            let (req_id, result) = client.recv_response().expect("connection alive");
            let (_, shape, states) = by_req
                .iter()
                .find(|(id, _, _)| *id == req_id)
                .expect("response matches a request");
            match (shape, result) {
                (Shape::Expired, Err(ServeError::DeadlineExceeded)) => {}
                (Shape::Expired, other) => {
                    prop_assert!(
                        false,
                        "expired wire request got {:?}, want DeadlineExceeded",
                        other.map(|s| s.len())
                    );
                }
                (_, Ok(served)) => prop_assert_eq!(&served, states),
                (shape, Err(e)) => prop_assert!(false, "{shape:?} wire request failed: {e}"),
            }
        }
        drop(client);
        server.shutdown();
        fleet.shutdown();
    }

    /// Deadline-aware batch closing: with a linger far longer than the
    /// deadline, a deadlined request is still answered around its
    /// deadline (the batch closes `deadline_slack` early), not at the
    /// linger horizon — and the answer is served states, not a miss.
    #[test]
    fn no_batch_lingers_past_the_oldest_deadline(
        deadline_ms in 20u64..80,
        hardware in any::<bool>(),
        wire in any::<bool>(),
    ) {
        let backend = if hardware { Backend::Hardware } else { Backend::Float };
        let linger = Duration::from_secs(5);
        let deadline = Duration::from_millis(deadline_ms);
        let sys = system();
        let shots = sys.test_data().shots()[..4].to_vec();
        let expected = direct(&sys, backend, &shots);
        let config = ServeConfig {
            backend,
            // A budget no request reaches: only the deadline (or the
            // 5 s linger) can close the batch.
            max_batch_shots: usize::MAX,
            max_linger: linger,
            ..ServeConfig::default()
        };
        let t0 = Instant::now();
        let served = if wire {
            let fleet = ShardedReadoutServer::start(vec![Arc::clone(&sys)], config);
            let server = WireServer::start_with(
                &fleet,
                TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
                no_reap(),
            )
            .expect("start wire server");
            let mut client = WireClient::connect(server.local_addr(), 0).expect("connect");
            let served = client
                .classify_shots_opts(RequestOptions::new().deadline(deadline), &shots);
            drop(client);
            server.shutdown();
            fleet.shutdown();
            served
        } else {
            let server = ReadoutServer::start(Arc::clone(&sys), config);
            let served = server
                .client()
                .classify_shots_opts(RequestOptions::new().deadline(deadline), shots.clone());
            server.shutdown();
            served
        };
        let elapsed = t0.elapsed();
        // The answer must arrive around the deadline — the batch closes
        // `deadline_slack` ahead of it — nowhere near the 5 s linger. A
        // generous margin absorbs scheduler jitter on loaded CI boxes.
        prop_assert!(
            elapsed < deadline + Duration::from_secs(1),
            "answered after {elapsed:?}; the {deadline:?} deadline should have closed the batch"
        );
        match served {
            Ok(served) => prop_assert_eq!(served, expected),
            // A loaded box can miss a tens-of-ms deadline legitimately;
            // the miss must be typed, and it still proves the batch
            // closed on the deadline rather than the linger.
            Err(ServeError::DeadlineExceeded) => {}
            Err(e) => prop_assert!(false, "unexpected serve error: {e}"),
        }
    }
}
