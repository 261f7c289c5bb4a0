//! Blue/green hot swap, canary lane, and drift monitor, end to end:
//! every response must be bitwise-identical to exactly one model
//! version — never a mix — across arbitrary swap timing, and the
//! running fidelity estimates must actually detect a degraded model.
//!
//! The "other" model everywhere below is the smoke system with its
//! students' output layers negated (`testkit::inverted_variant`): a
//! real, loadable `KlinqSystem` whose decisions observably differ from
//! the primary's, so a response tells us exactly which model served it.

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::{
    Priority, ReadoutServer, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

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

/// The distinguishable alternate model (output layers negated).
fn variant() -> Arc<KlinqSystem> {
    static SYS: OnceLock<Arc<KlinqSystem>> = OnceLock::new();
    Arc::clone(SYS.get_or_init(|| Arc::new(testkit::inverted_variant(&system()))))
}

fn direct(sys: &KlinqSystem, shots: &[klinq_sim::Shot]) -> Vec<ShotStates> {
    BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, shots)
}

#[test]
fn swap_model_switches_decisions_and_bumps_the_version() {
    let shots = system().test_data().shots().to_vec();
    let on_a = direct(&system(), &shots);
    let on_b = direct(&variant(), &shots);
    assert_ne!(on_a, on_b, "the variant must be distinguishable");

    let server = ReadoutServer::start(system(), ServeConfig::default());
    assert_eq!(server.model_version(), 1);
    let client = server.client();
    assert_eq!(client.classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(), on_a);

    let v2 = server.swap_model(variant()).expect("swap accepted");
    assert_eq!(v2, 2);
    assert_eq!(server.model_version(), 2);
    assert_eq!(client.classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(), on_b);

    // And back: blue/green rollback is the same move.
    let v3 = server.swap_model(system()).expect("swap back accepted");
    assert_eq!(v3, 3);
    assert_eq!(client.classify_shots_opts(RequestOptions::new(), shots).unwrap(), on_a);

    let stats = server.shutdown();
    assert_eq!(stats.model_swaps, 2);
    assert_eq!(stats.model_version, 3);
}

#[test]
fn sharded_swap_touches_only_its_device() {
    let shots = system().test_data().shots()[..6].to_vec();
    let on_a = direct(&system(), &shots);
    let on_b = direct(&variant(), &shots);
    let fleet = ShardedReadoutServer::start(vec![system(), system()], ServeConfig::default());
    assert_eq!(fleet.swap_model(1, variant()).unwrap(), 2);
    assert_eq!(
        fleet.client(0).classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(),
        on_a
    );
    assert_eq!(
        fleet.client(1).classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(),
        on_b
    );
    assert_eq!(fleet.model_version(0), 1);
    assert_eq!(fleet.model_version(1), 2);
    fleet.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The atomicity property: requests submitted before a swap command
    /// are answered by the old model, requests submitted after it by
    /// the new one — for any request sizes, any batch budget and
    /// linger, and any number of swap rounds. The intake channel is
    /// FIFO and controls apply strictly between micro-batches, so the
    /// boundary is exact, not approximate.
    #[test]
    fn every_response_is_exactly_one_models_work_across_swaps(
        sizes in prop::collection::vec(1usize..7, 1..10),
        rounds in 1usize..4,
        budget in 4usize..40,
        linger_us in 0u64..3000,
    ) {
        let primary = system();
        let alt = variant();
        let all_shots = primary.test_data().shots();
        let server = ReadoutServer::start(
            system(),
            ServeConfig {
                max_batch_shots: budget,
                max_linger: Duration::from_micros(linger_us),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let (done_tx, done_rx) = mpsc::channel();
        let mut expected = Vec::new();
        let mut submitted = 0usize;
        // Alternate: a burst of requests, then a swap, then a burst…
        // Round r is served by model (r % 2): primary on even, the
        // inverted variant on odd.
        for round in 0..rounds {
            let model: &KlinqSystem = if round % 2 == 0 { &primary } else { &alt };
            for (i, &size) in sizes.iter().enumerate() {
                let start = (round * 13 + i * 5) % (all_shots.len() - size);
                let shots = all_shots[start..start + size].to_vec();
                expected.push(direct(model, &shots));
                let tag = submitted;
                let tx = done_tx.clone();
                client
                    .submit_opts(RequestOptions::new(), shots, move |result| {
                        let _ = tx.send((tag, result));
                    })
                    .expect("intake open");
                submitted += 1;
            }
            // The swap queues behind everything submitted above (FIFO)
            // and returns only once applied.
            let next = if round % 2 == 0 {
                Arc::clone(&alt)
            } else {
                Arc::clone(&primary)
            };
            server.swap_model(next).expect("swap accepted");
        }
        let mut got = vec![None; submitted];
        for _ in 0..submitted {
            let (tag, result) = done_rx.recv().expect("collector alive");
            prop_assert!(got[tag].is_none(), "request {} answered twice", tag);
            got[tag] = Some(result.expect("request served"));
        }
        for (tag, (got, want)) in got.into_iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                got.as_ref(),
                Some(want),
                "request {} crossed its swap boundary", tag
            );
        }
        server.shutdown();
    }
}

#[test]
fn concurrent_swaps_never_produce_a_mixed_response() {
    // Clients hammer classification from several threads while the
    // main thread flips the model back and forth. There is no ordering
    // to assert between a racing client and the swap — but every single
    // response must be *entirely* one model's work: bitwise-equal to
    // the primary's direct result or to the variant's, never a blend.
    let sys = system();
    let all_shots = sys.test_data().shots();
    let server = Arc::new(ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    ));
    let n_threads = 4;
    let rounds = 30;
    let barrier = Arc::new(Barrier::new(n_threads + 1));
    let mut workers = Vec::new();
    for t in 0..n_threads {
        let shots = all_shots[t * 4..t * 4 + 4].to_vec();
        let on_a = direct(&system(), &shots);
        let on_b = direct(&variant(), &shots);
        assert_ne!(on_a, on_b, "thread {t}'s slice must distinguish the models");
        let client = server.client();
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            let mut seen = [false; 2];
            for _ in 0..rounds {
                let got = client
                    .classify_shots_opts(RequestOptions::new(), shots.clone())
                    .expect("server alive");
                if got == on_a {
                    seen[0] = true;
                } else if got == on_b {
                    seen[1] = true;
                } else {
                    panic!("response matches neither model: a mixed batch leaked");
                }
            }
            seen
        }));
    }
    barrier.wait();
    for flip in 0..10 {
        let next = if flip % 2 == 0 { variant() } else { system() };
        server.swap_model(next).expect("swap accepted");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut seen_any = [false; 2];
    for worker in workers {
        let seen = worker.join().expect("worker survived");
        seen_any[0] |= seen[0];
        seen_any[1] |= seen[1];
    }
    // With 10 flips across 30 rounds per thread, both versions serve.
    assert!(
        seen_any[0] && seen_any[1],
        "swaps never took effect under load: {seen_any:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.model_swaps, 10);
    assert_eq!(stats.model_version, 11);
}

#[test]
fn an_identity_swap_is_accepted_and_keeps_serving() {
    // Swapping a model for an identically-trained one is the no-op
    // rollout; it must bump the version and keep answering.
    let server = ReadoutServer::start(system(), ServeConfig::default());
    assert_eq!(server.swap_model(system()).expect("swap accepted"), 2);
    let shot = system().test_data().shot(0).clone();
    server.client().classify_shots_opts(RequestOptions::new(), vec![shot]).expect("still serving");
    server.shutdown();
}

#[test]
fn canary_lane_splits_traffic_and_reports_divergence() {
    let sys = system();
    let slice = sys.test_data().shots()[..4].to_vec();
    let on_a = direct(&system(), &slice);
    let on_b = direct(&variant(), &slice);
    assert_ne!(on_a, on_b);

    let server = ReadoutServer::start(system(), ServeConfig::default());
    let client = server.client();
    // Nothing staged yet: promotion is a typed error, abort a no-op.
    assert!(matches!(
        server.promote_canary(),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(!server.abort_canary().unwrap());

    server.stage_canary(variant(), 0.5).expect("canary staged");
    // Latency requests each close their own micro-batch, so the
    // fractional accumulator routes exactly every second batch to the
    // candidate: primary, canary, primary, canary…
    let mut canary_served = 0;
    let n = 8;
    for _ in 0..n {
        let got = client
            .classify_shots_opts(RequestOptions::new().priority(Priority::Latency), slice.clone())
            .expect("served");
        if got == on_b {
            canary_served += 1;
        } else {
            assert_eq!(got, on_a, "response matches neither model");
        }
    }
    assert_eq!(canary_served, n / 2, "0.5 canary fraction must route half");

    let stats = server.stats();
    assert_eq!(stats.canary_batches, n / 2);
    assert_eq!(stats.canary_shots, (n / 2) * slice.len() as u64);
    // The inverted candidate disagrees with the primary somewhere.
    assert!(stats.canary_divergent_shots > 0, "divergence not observed");
    let divergence = stats.canary_divergence().expect("canary traffic flowed");
    assert!(
        divergence > 0.0 && divergence <= 1.0,
        "divergence out of range: {divergence}"
    );

    // Promotion is a hot swap: all traffic moves to the candidate.
    let v2 = server.promote_canary().expect("promotion accepted");
    assert_eq!(v2, 2);
    for _ in 0..3 {
        assert_eq!(client.classify_shots_opts(RequestOptions::new(), slice.clone()).unwrap(), on_b);
    }
    // The lane is empty again.
    assert!(matches!(
        server.promote_canary(),
        Err(ServeError::InvalidRequest(_))
    ));
    server.shutdown();
}

#[test]
fn canary_fraction_bounds_are_enforced_client_side() {
    let server = ReadoutServer::start(system(), ServeConfig::default());
    for bad in [-0.1, 1.1, f64::NAN] {
        assert!(matches!(
            server.stage_canary(variant(), bad),
            Err(ServeError::InvalidRequest(_))
        ));
    }
    // Staging then aborting leaves everything on the primary.
    server.stage_canary(variant(), 1.0).expect("staged");
    assert!(server.abort_canary().unwrap());
    let shots = system().test_data().shots()[..3].to_vec();
    assert_eq!(
        server.client().classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(),
        direct(&system(), &shots)
    );
    server.shutdown();
}

#[test]
fn a_staged_canary_survives_a_primary_swap() {
    let slice = system().test_data().shots()[..3].to_vec();
    let on_b = direct(&variant(), &slice);
    let server = ReadoutServer::start(system(), ServeConfig::default());
    // Canary takes *all* batches, so the candidate's identity is
    // directly observable.
    server.stage_canary(variant(), 1.0).expect("staged");
    server.swap_model(system()).expect("primary swapped under canary");
    assert_eq!(
        server.client().classify_shots_opts(RequestOptions::new(), slice).unwrap(),
        on_b,
        "the staged canary was lost in the swap"
    );
    server.shutdown();
}

#[test]
fn drift_monitor_tracks_excited_fraction_and_calibration_fidelity() {
    let shots = system().test_data().shots().to_vec();
    let n = shots.len() as u64;

    // Healthy model: calibration shots score against their prepared
    // states, so fidelity is the discriminator's real assignment
    // fidelity — high on the smoke system.
    let server = ReadoutServer::start(system(), ServeConfig::default());
    let client = server.client();
    client
        .classify_calibration_shots(shots.clone())
        .expect("calibration lane served");
    let healthy = server.stats();
    assert_eq!(healthy.calib_shots, n);
    assert_eq!(healthy.drift_shots, n, "calibration traffic also feeds drift");
    let healthy_fid: Vec<f64> = (0..klinq_serve::NUM_QUBITS)
        .map(|qb| healthy.calibration_fidelity(qb).expect("calib data present"))
        .collect();
    for (qb, fid) in healthy_fid.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(fid),
            "qubit {qb} fidelity out of range: {fid}"
        );
        let (p10, p01) = healthy.confusion(qb);
        assert!(p10.is_some() && p01.is_some(), "confusion needs both preparations");
        assert!(healthy.excited_fraction(qb).is_some());
    }
    server.shutdown();

    // Degraded model (decisions inverted): the same calibration
    // traffic scores far worse — this is the signal an operator alarms
    // on before staging a recalibrated candidate.
    let degraded_server = ReadoutServer::start(variant(), ServeConfig::default());
    degraded_server
        .client()
        .classify_calibration_shots(shots)
        .expect("calibration lane served");
    let degraded = degraded_server.stats();
    let mean_healthy: f64 = healthy_fid.iter().sum::<f64>() / healthy_fid.len() as f64;
    let mean_degraded: f64 = (0..klinq_serve::NUM_QUBITS)
        .map(|qb| degraded.calibration_fidelity(qb).expect("calib data present"))
        .sum::<f64>()
        / klinq_serve::NUM_QUBITS as f64;
    assert!(
        mean_degraded < mean_healthy,
        "drift monitor failed to rank the inverted model below the healthy one: \
         {mean_degraded} vs {mean_healthy}"
    );
    degraded_server.shutdown();
}
