//! The self-healing-fleet suite: shard death under live traffic.
//!
//! Covers the supervision contract end to end: a killed collector is a
//! routine, observable, recoverable event — requests are answered typed
//! (never lost, never duplicated), failover reroutes opted-in traffic
//! to healthy peers, the watchdog walks the shard through
//! `Down → Restarting → Healthy` with monotonic counters, poisoned
//! requests are quarantined without taking their batchmates down, and a
//! partially corrupt deploy bundle boots the fleet degraded and heals
//! from disk.

use klinq_core::{persist, testkit, Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::{
    CrashFaults, RequestOptions, ServeConfig, ServeError, ShardHealth, ShardedReadoutServer,
    SuperviseConfig, WireClient, WireConfig, WireServer,
};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The distinguishable alternate model (output layers negated).
fn variant() -> Arc<KlinqSystem> {
    static SYS: OnceLock<Arc<KlinqSystem>> = OnceLock::new();
    Arc::clone(SYS.get_or_init(|| Arc::new(testkit::inverted_variant(&system()))))
}

fn direct(sys: &KlinqSystem, shots: &[klinq_sim::Shot]) -> Vec<ShotStates> {
    BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, shots)
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

/// Fast supervision for tests: quick watchdog sweeps and a `Down`
/// window wide enough to observe (and to deterministically land probe
/// requests in) before the restart fires.
fn supervision(restart_backoff: Duration) -> SuperviseConfig {
    SuperviseConfig {
        watchdog_interval: Duration::from_millis(2),
        restart_backoff,
        ..SuperviseConfig::default()
    }
}

/// `Healthy` or `Degraded` — the states in which a shard serves. Under
/// the fleet-wide `KLINQ_CHAOS_CRASH` knob a freshly recovered shard
/// can be re-degraded by a transient injected panic at any time, so
/// "recovered" assertions accept either serving state.
fn serving(health: ShardHealth) -> bool {
    matches!(health, ShardHealth::Healthy | ShardHealth::Degraded)
}

/// Polls `probe` until it returns true or `timeout` elapses.
fn wait_for(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// The tentpole soak: a two-device fleet over TCP, a pipelined worker
/// hammering device 0 with failover-enabled requests, and a seeded
/// mid-stream collector crash on that shard. Every submitted request is
/// answered exactly once — `Ok` bitwise-identical to direct
/// classification, or typed `ShardDown` for requests the dead collector
/// owned (the worker resubmits those). While the shard is down,
/// failover requests land on the peer (observed via the fleet failover
/// counter) and opted-out requests answer `ShardDown`; afterwards the
/// shard is serving again with `downs`/`restarts` incremented.
#[test]
fn kill_a_shard_under_load_fails_over_and_recovers_epoll_or_auto() {
    let sys = system();
    let all_shots = sys.test_data().shots().to_vec();
    let fleet = ShardedReadoutServer::start(
        vec![system(), system()],
        ServeConfig {
            max_linger: Duration::from_micros(500),
            supervise: supervision(Duration::from_millis(600)),
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .expect("start wire server");
    let addr = server.local_addr();

    const WINDOW: usize = 4;
    const SLICE: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stop = Arc::clone(&stop);
        let shots = all_shots.clone();
        let sys = Arc::clone(&sys);
        std::thread::spawn(move || {
            let mut client = WireClient::connect(addr, 0).expect("worker connects");
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut served = 0u64;
            let mut shard_down = 0u64;
            let mut round = 0usize;
            while !stop.load(Ordering::Acquire) {
                // Each round pipelines WINDOW requests and collects
                // every answer; ids lost or answered twice fail here.
                let mut expected: HashMap<u64, Vec<ShotStates>> = HashMap::new();
                for j in 0..WINDOW {
                    let start = ((round * 13 + j * 5) * SLICE) % (shots.len() - SLICE);
                    let slice = &shots[start..start + SLICE];
                    let id = client
                        .submit_opts(RequestOptions::new().failover(true), slice)
                        .expect("submit while the fleet self-heals");
                    assert!(
                        expected.insert(id, direct(&sys, slice)).is_none(),
                        "request id {id} issued twice"
                    );
                }
                for _ in 0..WINDOW {
                    let (id, result) = client.recv_response().expect("no response lost");
                    let want = expected
                        .remove(&id)
                        .expect("each id answered exactly once — a duplicate would miss here");
                    match result {
                        Ok(got) => {
                            assert_eq!(got, want, "round {round}: survivor response corrupted");
                            served += 1;
                        }
                        // The dead collector owned this request when it
                        // crashed; the reply guard answered it typed.
                        // Classification is pure, so resubmitting is
                        // safe — and must succeed eventually.
                        Err(ServeError::ShardDown) => shard_down += 1,
                        Err(other) => panic!("round {round}: unexpected error {other:?}"),
                    }
                }
                assert!(expected.is_empty(), "round {round}: responses lost");
                round += 1;
            }
            (served, shard_down)
        })
    };

    // Probe clients connected up front so their submissions land inside
    // the Down window with no connect latency in the way.
    let mut probe_over = WireClient::connect(addr, 0).unwrap();
    probe_over
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut probe_strict = WireClient::connect(addr, 0).unwrap();
    probe_strict
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Let traffic flow, then crash shard 0's collector mid-stream.
    std::thread::sleep(Duration::from_millis(100));
    fleet.kill_shard(0).expect("inject the crash");
    assert!(
        wait_for(Duration::from_secs(10), || !serving(fleet.health(0))),
        "watchdog never observed the crash"
    );

    // Inside the Down window (600 ms backoff): a failover-enabled
    // request is served by the healthy peer, bitwise-correct; an
    // opted-out request answers typed ShardDown.
    let slice = &all_shots[0..SLICE];
    let want = direct(&sys, slice);
    let over_id = probe_over
        .submit_opts(RequestOptions::new().failover(true), slice)
        .unwrap();
    let strict_id = probe_strict.submit_opts(RequestOptions::new(), slice).unwrap();
    let (id, result) = probe_over.recv_response().unwrap();
    assert_eq!(id, over_id);
    assert_eq!(
        result.expect("failover request served by the peer"),
        want,
        "failover response corrupted"
    );
    let (id, result) = probe_strict.recv_response().unwrap();
    assert_eq!(id, strict_id);
    assert!(
        matches!(result, Err(ServeError::ShardDown)),
        "expected typed ShardDown without failover, got {result:?}"
    );

    // The watchdog restarts the shard and it serves again.
    assert!(
        wait_for(Duration::from_secs(10), || serving(fleet.health(0))),
        "shard never recovered"
    );
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Release);
    let (served, shard_down) = worker.join().expect("worker survived the crash");
    assert!(served > 0, "worker never saw a successful response");

    server.shutdown();
    let stats = fleet.shutdown();
    assert!(stats.downs >= 1, "down transition not counted: {stats:?}");
    assert!(stats.restarts >= 1, "restart not counted: {stats:?}");
    assert!(stats.failovers >= 1, "failover not counted: {stats:?}");
    assert!(stats.recovery_us > 0, "recovery time not recorded");
    assert!(
        stats.shard_down_rejections >= 1,
        "strict probe's rejection not counted"
    );
    // In-flight requests at crash time are the only ShardDown answers a
    // failover-enabled worker sees; they are bounded by what one window
    // can hold (per crash), not proportional to the outage.
    assert!(
        shard_down <= (WINDOW * 4) as u64,
        "too many ShardDown answers for failover-enabled traffic: {shard_down}"
    );
}

#[test]
fn failover_routes_in_process_and_opt_out_stays_typed() {
    let sys = system();
    let shots = sys.test_data().shots()[0..4].to_vec();
    let want = direct(&sys, &shots);
    // A backoff far beyond the test keeps the shard deterministically
    // Down while the probes run.
    let fleet = ShardedReadoutServer::start(
        vec![system(), system()],
        ServeConfig {
            supervise: supervision(Duration::from_secs(60)),
            ..ServeConfig::default()
        },
    );
    let client = fleet.client(0);
    assert_eq!(client.classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(), want);

    fleet.kill_shard(0).expect("inject the crash");
    assert!(
        wait_for(Duration::from_secs(10), || fleet.health(0) == ShardHealth::Down),
        "watchdog never marked the shard down"
    );

    // Same handle, three outcomes: opted-in requests ride the peer,
    // opted-out requests fail typed, and the peer stays untouched.
    assert_eq!(
        client
            .classify_shots_opts(RequestOptions::new().failover(true), shots.clone())
            .expect("failover request served by the peer"),
        want
    );
    assert!(matches!(
        client.classify_shots_opts(RequestOptions::new(), shots.clone()),
        Err(ServeError::ShardDown)
    ));
    assert_eq!(fleet.client(1).classify_shots_opts(RequestOptions::new(), shots).unwrap(), want);

    let stats = fleet.stats();
    assert!(stats.failovers >= 1, "{stats:?}");
    assert!(stats.shard_down_rejections >= 1, "{stats:?}");
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.shards_down, 1, "{stats:?}");
    // The failover is billed to tenant 0 on the down shard.
    let tenants = fleet.tenant_stats();
    assert!(tenants[0].failovers >= 1, "{tenants:?}");
    fleet.shutdown();
}

#[test]
fn counters_stay_monotonic_across_restart_and_swap() {
    let sys = system();
    let alt = variant();
    let shots = sys.test_data().shots()[0..6].to_vec();
    let on_primary = direct(&sys, &shots);
    let on_alt = direct(&alt, &shots);
    assert_ne!(on_primary, on_alt, "the slice must distinguish the models");

    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            supervise: supervision(Duration::from_millis(40)),
            ..ServeConfig::default()
        },
    );
    let client = fleet.client(0);
    for _ in 0..3 {
        assert_eq!(
            client.classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(),
            on_primary
        );
    }
    let before = fleet.stats();
    assert_eq!(before.model_version, 1);
    assert_eq!(before.requests, 3);

    // Crash and recover: every counter picks up where it left off.
    fleet.kill_shard(0).expect("inject the crash");
    assert!(
        wait_for(Duration::from_secs(10), || {
            let s = fleet.stats();
            s.restarts >= 1 && serving(fleet.health(0))
        }),
        "shard never recovered"
    );
    assert_eq!(
        client.classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(),
        on_primary
    );
    let after = fleet.stats();
    assert_eq!(after.requests, before.requests + 1, "requests reset by restart");
    assert!(after.shots >= before.shots + shots.len() as u64, "shots reset");
    assert!(after.batches > before.batches, "batches reset");
    assert_eq!(after.model_version, 1, "restart must not bump the model version");
    assert!(after.downs >= 1 && after.restarts >= 1, "{after:?}");
    assert!(after.recovery_us > 0, "recovery time not recorded");

    // Hot swap, then crash again: the restart resumes the *swapped*
    // model (the restart source tracked the swap), and the version
    // gauge survives the restart.
    let v2 = fleet.swap_model(0, Arc::clone(&alt)).expect("swap accepted");
    assert_eq!(v2, 2);
    assert_eq!(client.classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(), on_alt);
    let restarts_before = fleet.stats().restarts;
    fleet.kill_shard(0).expect("inject the second crash");
    assert!(
        wait_for(Duration::from_secs(10), || {
            fleet.stats().restarts > restarts_before && serving(fleet.health(0))
        }),
        "shard never recovered from the second crash"
    );
    assert_eq!(
        client.classify_shots_opts(RequestOptions::new(), shots).unwrap(),
        on_alt,
        "restart resumed the pre-swap model"
    );
    let last = fleet.stats();
    assert_eq!(last.model_version, 2, "version gauge reset by restart");
    assert!(last.downs >= 2 && last.restarts >= 2, "{last:?}");
    fleet.shutdown();
}

#[test]
fn poisoned_requests_are_quarantined_and_batchmates_replayed() {
    let sys = system();
    let all_shots = sys.test_data().shots().to_vec();
    // A long linger with an unbounded shot budget coalesces all the
    // async submissions below into one micro-batch, so the poisoned
    // request genuinely takes batchmates down with it before the
    // quarantine replays them.
    let server = klinq_serve::ReadoutServer::start(
        system(),
        ServeConfig {
            max_linger: Duration::from_millis(300),
            max_batch_shots: usize::MAX,
            crash: Some(CrashFaults::new(0xBAD_5EED).poison(35)),
            ..ServeConfig::default()
        },
    );
    let client = server.client();

    let submit_all = |slices: &[Vec<klinq_sim::Shot>]| {
        let mut rxs = Vec::new();
        for slice in slices {
            let (tx, rx) = mpsc::channel();
            client
                .submit_opts(RequestOptions::new(), slice.clone(), move |r| {
                    let _ = tx.send(r);
                })
                .expect("submission accepted");
            rxs.push(rx);
        }
        rxs.into_iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(60)).expect("answered"))
            .collect::<Vec<_>>()
    };

    let slices: Vec<Vec<klinq_sim::Shot>> = (0..8)
        .map(|i| all_shots[i * 3..i * 3 + 3].to_vec())
        .collect();
    let first = submit_all(&slices);
    let poisoned: Vec<usize> = first
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Err(ServeError::Poisoned)))
        .map(|(i, _)| i)
        .collect();
    for (i, result) in first.iter().enumerate() {
        match result {
            Ok(got) => assert_eq!(
                got,
                &direct(&sys, &slices[i]),
                "batchmate {i} of a poisoned request answered wrong"
            ),
            Err(ServeError::Poisoned) => {}
            Err(other) => panic!("request {i}: unexpected error {other:?}"),
        }
    }
    // The 35% content-keyed draw over 8 distinct slices must split them
    // (both outcomes present) for this test to mean anything; the fixed
    // seed makes this deterministic.
    assert!(
        !poisoned.is_empty() && poisoned.len() < slices.len(),
        "seed must yield a mix of poisoned and clean requests, got {poisoned:?}"
    );

    // The verdict is content-keyed: resubmitting draws identically, so
    // a poisoned request stays quarantined (answered typed without
    // another classification attempt) and a clean one stays correct.
    let second = submit_all(&slices);
    for (i, result) in second.iter().enumerate() {
        if poisoned.contains(&i) {
            assert!(
                matches!(result, Err(ServeError::Poisoned)),
                "request {i} escaped quarantine on resubmission: {result:?}"
            );
        } else {
            assert_eq!(result.as_ref().expect("clean request stays served"), &direct(&sys, &slices[i]));
        }
    }

    let stats = server.stats();
    assert!(stats.panics >= 1, "the poisoned batch's panic not counted");
    assert_eq!(
        stats.poisoned,
        2 * poisoned.len() as u64,
        "every poisoned answer counts once: {stats:?}"
    );
    assert!(serving(server.health()), "quarantine must keep the shard serving");
    let tenants = server.tenant_stats();
    assert_eq!(tenants[0].poisoned, 2 * poisoned.len() as u64);
    server.shutdown();
}

#[test]
fn transient_batch_panics_are_correctness_transparent() {
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let server = klinq_serve::ReadoutServer::start(
        system(),
        ServeConfig {
            crash: Some(CrashFaults::new(271_828).batch_panics(50)),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    // Sequential single-request batches: the per-batch fault draw is
    // deterministic in batch order, and with 20 draws at 50% the fixed
    // seed guarantees hits. Every answer must still be exact — the solo
    // replay serves what the crashed batch would have.
    for i in 0..20 {
        let slice = &shots[i * 2..i * 2 + 2];
        assert_eq!(
            client
                .classify_shots_opts(RequestOptions::new(), slice.to_vec())
                .expect("replay answers everyone"),
            direct(&sys, slice),
            "request {i} corrupted by a transient panic"
        );
    }
    let stats = server.stats();
    assert!(stats.panics >= 1, "no transient panic fired: {stats:?}");
    assert_eq!(stats.poisoned, 0, "transient faults must not poison anyone");
    assert_eq!(stats.requests, 20);
    server.shutdown();
}

/// Cut-ins under transient crash faults. Latency request L1 closes a
/// lingering batch of three 128-shot bulk requests (one slice each), and
/// L1's reply callback submits latency request L2, which cuts in after
/// the first bulk slice. Every engine call — L1's, each slice, the
/// cut-in — draws a 50% panic, and a panicked call replays only its own
/// requests solo. Every request is answered exactly once, bitwise equal
/// to direct classification and in cut-in order, and no request that an
/// earlier slice answered is classified again.
#[test]
fn cut_ins_under_batch_panics_answer_every_request_once() {
    let sys = system();
    let pool = sys.test_data().shots();
    let bulk: Vec<Vec<klinq_sim::Shot>> = (0..3)
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
    let server = klinq_serve::ReadoutServer::start(
        system(),
        ServeConfig {
            max_batch_shots: 4 * 128,
            max_linger: Duration::from_secs(60),
            crash: Some(CrashFaults::new(0x0C07_1B5E).batch_panics(50)),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let rounds = 4;
    for round in 0..rounds {
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
        let latency = RequestOptions::new().priority(klinq_serve::Priority::Latency);
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
        drop(tx);
        let mut order = Vec::new();
        while let Ok((tag, result)) = rx.recv_timeout(Duration::from_secs(60)) {
            let shots = match tag {
                "L1" => &l1,
                "L2" => &l2,
                _ => &bulk[usize::from(tag.as_bytes()[1] - b'1')],
            };
            assert_eq!(
                result.expect("a transient panic is replayed, never answered typed"),
                direct(&sys, shots),
                "round {round}: {tag}"
            );
            order.push(tag);
        }
        // Every callback has run (the channel disconnected), each once.
        assert_eq!(order, ["L1", "B1", "L2", "B2", "B3"], "round {round}");
    }
    let stats = server.shutdown();
    assert!(stats.panics > 0, "no transient panic fired: {stats:?}");
    assert_eq!(stats.poisoned, 0, "{stats:?}");
    assert_eq!(stats.requests, 5 * rounds, "{stats:?}");
    // A replay that reached back into an earlier slice would classify
    // its requests twice.
    let per_round = bulk.iter().map(Vec::len).sum::<usize>() + l1.len() + l2.len();
    assert_eq!(stats.shots, rounds * per_round as u64, "{stats:?}");
    assert_eq!(stats.batches, 2 * rounds, "{stats:?}");
}

/// XORs the low bit of the `nth` `"checksum"` field in a serialized
/// artifact, corrupting exactly that device's integrity seal. (The
/// bundle envelope carries no checksum of its own — integrity is
/// per-device so corruption quarantines per-device — hence occurrence
/// `n` is device `n`.)
fn flip_checksum(json: &str, nth: usize) -> String {
    let needle = "\"checksum\":";
    let mut at = 0;
    for _ in 0..=nth {
        at += json[at..].find(needle).expect("checksum field") + needle.len();
    }
    let end = at + json[at..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("digits end");
    let stored: u64 = json[at..end].parse().expect("checksum digits");
    format!("{}{}{}", &json[..at], stored ^ 1, &json[end..])
}

#[test]
fn corrupt_device_boots_degraded_and_heals_from_disk() {
    let sys = system();
    let shots = sys.test_data().shots()[0..4].to_vec();
    let want = direct(&sys, &shots);
    let dir = std::env::temp_dir().join(format!("klinq_failover_bundle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    persist::save_device_bundle(&path, &[sys.as_ref(), sys.as_ref()]).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();

    // Corrupt device 1's artifact on disk; the fleet must still boot.
    std::fs::write(&path, flip_checksum(&good, 1)).unwrap();
    let fleet = ShardedReadoutServer::load_bundle(
        &path,
        ServeConfig {
            supervise: supervision(Duration::from_millis(100)),
            ..ServeConfig::default()
        },
    )
    .expect("a partially corrupt bundle boots degraded, not dead");
    assert_eq!(fleet.devices(), 2);
    assert!(serving(fleet.health(0)), "the intact device must serve");
    let report = fleet.shard_health();
    assert_eq!(report[1].health, ShardHealth::Down, "{report:?}");

    // The intact shard serves; the quarantined one answers typed, or
    // hands opted-in requests to its healthy peer.
    assert_eq!(
        fleet.client(0).classify_shots_opts(RequestOptions::new(), shots.clone()).unwrap(),
        want
    );
    assert!(matches!(
        fleet.client(1).classify_shots_opts(RequestOptions::new(), shots.clone()),
        Err(ServeError::ShardDown)
    ));
    assert_eq!(
        fleet
            .client(1)
            .classify_shots_opts(RequestOptions::new().failover(true), shots.clone())
            .expect("failover rides the intact shard"),
        want
    );

    // Fix the artifact on disk: the watchdog's next retry reloads the
    // device through the (now passing) checksum gate and the shard
    // comes up without a fleet restart.
    std::fs::write(&path, &good).unwrap();
    assert!(
        wait_for(Duration::from_secs(30), || serving(fleet.health(1))),
        "shard never healed after the artifact was repaired"
    );
    assert_eq!(fleet.client(1).classify_shots_opts(RequestOptions::new(), shots).unwrap(), want);
    let stats = fleet.stats();
    assert!(stats.restarts >= 1, "{stats:?}");
    fleet.shutdown();

    // A bundle with *no* loadable device is a load error, not a fleet
    // of dead shards.
    std::fs::write(&path, flip_checksum(&flip_checksum(&good, 0), 1)).unwrap();
    let err = ShardedReadoutServer::load_bundle(&path, ServeConfig::default()).unwrap_err();
    assert!(
        err.to_string().contains("no loadable device"),
        "unexpected error for an all-corrupt bundle: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_health_query_tracks_the_recovery_cycle() {
    let fleet = ShardedReadoutServer::start(
        vec![system(), system()],
        ServeConfig {
            supervise: supervision(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let initial = client.fleet_health().expect("health query answered");
    assert_eq!(initial.len(), 2, "one report per shard");
    assert!(initial.iter().all(|r| serving(r.health)), "{initial:?}");
    assert!(initial.iter().all(|r| r.restarts == 0), "{initial:?}");

    fleet.kill_shard(0).expect("inject the crash");
    // The health query is answered synchronously by the reactor, so
    // the outage itself is wire-visible…
    assert!(
        wait_for(Duration::from_secs(10), || {
            let h = client.fleet_health().expect("health visible during the outage");
            !serving(h[0].health)
        }),
        "outage never became wire-visible"
    );
    // …and so is the recovery, with the restart counted.
    assert!(
        wait_for(Duration::from_secs(10), || {
            let h = client.fleet_health().expect("health query answered");
            serving(h[0].health) && h[0].restarts >= 1 && h[0].downs >= 1
        }),
        "recovery never became wire-visible"
    );
    let final_report = client.fleet_health().unwrap();
    assert!(
        serving(final_report[1].health) && final_report[1].restarts == 0,
        "the healthy peer must be untouched: {final_report:?}"
    );
    server.shutdown();
    fleet.shutdown();
}
