//! The fault-injection soak and the failure-path regressions: hot
//! swaps under server-side chaos with flaky peers (zero lost,
//! duplicated, or cross-version-mixed responses), graceful drain on
//! shutdown, client reconnect with backoff, and the reactor edge cases
//! the chaos harness is built to reach (completion delivery racing
//! connection close, accept backpressure re-registration).

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::chaos::Chaos;
use klinq_serve::{
    wire, Priority, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer, WireClient,
    WireConfig, WireServer,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
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

/// Reads one whole frame payload off a blocking socket through the
/// reassembly buffer; `Ok(None)` if the peer hung up first.
fn recv_frame(raw: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut asm = wire::FrameAssembler::new();
    loop {
        if let Some(frame) = asm.next_frame_ref().expect("frame length within bounds") {
            return Ok(Some(frame.to_vec()));
        }
        if asm.read_from(raw, 64 * 1024)? == 0 {
            return Ok(None);
        }
    }
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

/// The soak: a two-device fleet served through a chaos-injected reactor
/// (stalled/shrunk reads and writes, deferred completion wakeups),
/// pipelined clients on both devices, deliberately misbehaving peers on
/// the side, and blue/green swaps flipping both shards mid-traffic.
/// Every response must arrive (none lost), arrive once (none
/// duplicated), and be bitwise-identical to exactly one model version's
/// direct output (never a mix) — chaos is correctness-transparent.
#[test]
fn chaos_soak_with_hot_swaps_loses_nothing_epoll_or_auto() {
    const SEED: u64 = 0xDAC_2025;
    const WORKERS: usize = 3;
    const ROUNDS: usize = 6;
    const WINDOW: usize = 4; // pipelined requests in flight per round
    const SLICE: usize = 4;

    let primary = system();
    let alt = variant();
    let all_shots = primary.test_data().shots().to_vec();
    let fleet = ShardedReadoutServer::start(
        vec![system(), system()],
        ServeConfig {
            max_linger: Duration::from_micros(500),
            ..ServeConfig::default()
        },
    );
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            chaos_seed: Some(SEED),
            ..no_reap()
        },
    )
    .expect("start chaos-injected wire server");
    let addr = server.local_addr();

    // Flaky peers: dribbled writes, mid-frame hang-ups, and garbage,
    // all from a deterministic stream — the reactor's error paths stay
    // hot for the whole soak while the workers assert correctness.
    let stop = Arc::new(AtomicBool::new(false));
    let flaky = {
        let stop = Arc::clone(&stop);
        let shot = all_shots[0].clone();
        std::thread::spawn(move || {
            let mut chaos = Chaos::new(SEED ^ 0xF1AC);
            let mut kind = 0u64;
            while !stop.load(Ordering::Acquire) {
                let Ok(mut raw) = TcpStream::connect(addr) else {
                    break;
                };
                let payload = wire::codec::encode_request_opts(
                    1,
                    0,
                    Priority::Throughput,
                    0,
                    0,
                    false,
                    std::slice::from_ref(&shot),
                );
                let framed = wire::codec::frame(&payload);
                match kind % 3 {
                    0 => {
                        // Byte-dribbling writer: a legal request, split
                        // at chaos-chosen points. The server must
                        // reassemble and answer it like any other.
                        let mut sent = 0;
                        while sent < framed.len() {
                            let n = 1 + chaos.below(framed.len() - sent);
                            if raw.write_all(&framed[sent..sent + n]).is_err() {
                                break;
                            }
                            sent += n;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                        // Any decodable frame is fine (a response from
                        // whichever model is live); a lost reply is not.
                        let frame = recv_frame(&mut raw)
                            .expect("dribbled request answered, not poisoned")
                            .expect("dribbled request answered, not hung up on");
                        wire::decode_message(&frame).expect("server frames stay decodable");
                    }
                    1 => {
                        // Mid-frame hang-up: the peer dies partway
                        // through a request. Nothing to answer — the
                        // server just has to survive it.
                        let cut = 1 + chaos.below(framed.len() - 1);
                        let _ = raw.write_all(&framed[..cut]);
                    }
                    _ => {
                        // Garbage: a protocol violation earns a typed
                        // connection-level error frame (or the server
                        // already hung up — either is acceptable; a
                        // wedged server is not, and the workers would
                        // catch that).
                        let mut junk = vec![0u8; 16];
                        for b in &mut junk {
                            *b = chaos.next_u64() as u8;
                        }
                        let _ = raw.write_all(&(junk.len() as u32).to_le_bytes());
                        let _ = raw.write_all(&junk);
                        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                        let mut sink = [0u8; 256];
                        let _ = raw.read(&mut sink);
                    }
                }
                kind += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let device = (w % 2) as u16;
        let shots = all_shots.clone();
        let primary = Arc::clone(&primary);
        let alt = Arc::clone(&alt);
        workers.push(std::thread::spawn(move || {
            let mut client = WireClient::connect(addr, device).expect("worker connects");
            // A lost or shed response must fail loudly, not hang the
            // soak forever.
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            for round in 0..ROUNDS {
                let mut expected: HashMap<u64, (Vec<ShotStates>, Vec<ShotStates>)> =
                    HashMap::new();
                for j in 0..WINDOW {
                    let start = ((w * 31 + round * 7 + j * 3) * SLICE) % (shots.len() - SLICE);
                    let slice = &shots[start..start + SLICE];
                    let on_a = direct(&primary, slice);
                    let on_b = direct(&alt, slice);
                    assert_ne!(on_a, on_b, "slice at {start} must distinguish the models");
                    let id = client
                        .submit_opts(RequestOptions::new(), slice)
                        .expect("submit under chaos");
                    assert!(
                        expected.insert(id, (on_a, on_b)).is_none(),
                        "request id {id} issued twice"
                    );
                }
                for _ in 0..WINDOW {
                    let (id, result) = client.recv_response().expect("no response lost");
                    let (on_a, on_b) = expected
                        .remove(&id)
                        .expect("each id answered exactly once — a duplicate would miss here");
                    let got = result.expect("chaos is correctness-transparent");
                    assert!(
                        got == *on_a || got == *on_b,
                        "worker {w} round {round}: response matches neither model version \
                         — a cross-version mix or corruption leaked"
                    );
                }
                assert!(expected.is_empty(), "worker {w} round {round}: responses lost");
            }
        }));
    }

    // Blue/green swaps on both shards while the soak runs.
    for flip in 0..8u64 {
        let next = if flip % 2 == 0 { variant() } else { system() };
        fleet
            .swap_model((flip % 2) as usize, next)
            .expect("swap accepted under chaos");
        std::thread::sleep(Duration::from_millis(5));
    }

    for worker in workers {
        worker.join().expect("worker survived the soak");
    }
    stop.store(true, Ordering::Release);
    flaky.join().expect("flaky peer thread survived");

    server.shutdown();
    let stats = fleet.shutdown();
    assert!(
        stats.requests >= (WORKERS * ROUNDS * WINDOW) as u64,
        "fewer requests served than submitted: {}",
        stats.requests
    );
    assert!(stats.model_swaps >= 8, "swaps lost: {}", stats.model_swaps);
}

#[test]
fn graceful_drain_answers_in_flight_and_refuses_new_work() {
    let sys = system();
    let all_shots = sys.test_data().shots().to_vec();
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            // Long enough that the parked batch is still open when
            // shutdown begins: the drain — not luck — must deliver
            // the answers.
            max_linger: Duration::from_millis(400),
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr, 0).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Park a pipeline of requests on the lingering batch…
    let slices = [0..3usize, 3..5, 5..9];
    let mut expected: HashMap<u64, Vec<ShotStates>> = HashMap::new();
    for r in &slices {
        let slice = &all_shots[r.clone()];
        let id = client.submit_opts(RequestOptions::new(), slice).unwrap();
        expected.insert(id, direct(&sys, slice));
    }
    // …then shut down mid-pipeline. `shutdown` waits briefly for
    // the reactor, which is busy draining — run it on the side so
    // the drain-window assertions below happen *during* the drain.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));

    // New work on the existing connection is refused typed, per
    // request — the connection itself stays up for its answers.
    let late_id = client.submit_opts(RequestOptions::new(), &all_shots[9..10]).unwrap();
    // A new connection is answered with a connection-level Draining
    // frame, surfacing as the outer error.
    let mut late_conn = WireClient::connect(addr, 0).expect("drain still accepts to refuse");
    late_conn.set_reconnect(None);
    late_conn
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    late_conn.submit_opts(RequestOptions::new(), &all_shots[0..1]).unwrap();
    match late_conn.recv_response() {
        Err(ServeError::Draining) => {}
        other => panic!("expected Draining for a late connection, got {other:?}"),
    }

    // The parked pipeline drains completely: every response arrives,
    // bitwise-identical, and the late request got its typed refusal.
    let mut late_result = None;
    for _ in 0..slices.len() + 1 {
        let (id, result) = client.recv_response().expect("drain delivers, never drops");
        if id == late_id {
            late_result = Some(result);
            continue;
        }
        let want = expected.remove(&id).expect("each id answered exactly once");
        assert_eq!(
            result.expect("in-flight request answered during drain"),
            want,
            "drained response corrupted"
        );
    }
    assert!(expected.is_empty(), "shutdown lost responses");
    match late_result {
        Some(Err(ServeError::Draining)) => {}
        other => panic!("expected Draining for late work, got {other:?}"),
    }
    shutdown.join().expect("shutdown thread");
    fleet.shutdown();
}

#[test]
fn a_lost_connection_surfaces_disconnected_then_reconnects_with_backoff() {
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let want =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);

    // A listener that never accepts stands in for a server about to
    // die: the client handshakes against the kernel backlog, submits,
    // and then the "server" goes away entirely.
    let doomed = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = doomed.local_addr().unwrap();
    let mut client = WireClient::connect(addr, 0).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let id = client.submit_opts(RequestOptions::new(), std::slice::from_ref(&shot)).unwrap();
    // Closing the listener tears down the backlogged connection — the
    // in-flight request must surface as a typed per-request
    // `Disconnected`, never a panic or a silent hang.
    drop(doomed);
    match client.recv_response() {
        Ok((rid, Err(ServeError::Disconnected))) => assert_eq!(rid, id),
        other => panic!("expected the in-flight request to fail typed, got {other:?}"),
    }

    // Now the outage ends mid-backoff: a real server comes up on the
    // same address ~150 ms in, while the blocking call is already
    // retrying. The default policy (8 attempts, 25 ms doubling) rides
    // that out and the retried request — same id, reconnected stream —
    // succeeds.
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let rescue = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        WireServer::start_with(
            &fleet,
            TcpListener::bind(addr).expect("rebind the vacated port"),
            no_reap(),
        )
        .map(|server| (server, fleet))
        .expect("rescue server starts")
    });
    let got = client
        .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .expect("reconnect under backoff reaches the rescued server")[0];
    assert_eq!(got, want, "reconnected result must match direct");
    let (server, fleet) = rescue.join().expect("rescue thread");
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn a_completion_racing_connection_close_is_dropped_not_delivered() {
    // The waker-notify-vs-close race: a client submits into a lingering
    // batch and hangs up before the answer exists. The completion fires
    // against a closed token; the reactor must drop it on the floor and
    // keep serving — not deliver to a recycled slot (tokens are never
    // reused) and not die.
    let sys = system();
    let shot = sys.test_data().shot(2).clone();
    let want =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            max_linger: Duration::from_millis(250),
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut doomed = WireClient::connect(server.local_addr(), 0).unwrap();
    doomed.submit_opts(RequestOptions::new(), std::slice::from_ref(&shot)).unwrap();
    // Hang up while the request sits in the fleet's open batch.
    drop(doomed);
    std::thread::sleep(Duration::from_millis(500));
    // The completion has fired into a closed connection by now; the
    // reactor is still healthy if a fresh client gets served.
    let mut fresh = WireClient::connect(server.local_addr(), 0).unwrap();
    fresh
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(
        fresh
            .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .expect("reactor survived the race")[0],
        want,
    );
    let stats = server.stats();
    assert_eq!(stats.wire_accepted, 2);
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn accept_backpressure_reregisters_after_every_freed_slot() {
    // Budget 1: every connection pushes the listener out of the
    // readiness set; every close must bring it back. Three full cycles
    // prove re-registration is a loop invariant, not a one-shot.
    let sys = system();
    let shot = sys.test_data().shot(1).clone();
    let want =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            max_connections: 1,
            idle_timeout: None,
            ..WireConfig::default()
        },
    )
    .unwrap();
    for cycle in 0..3 {
        let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(
            client
                .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
                .expect("served at budget")[0],
            want,
            "cycle {cycle}"
        );
        drop(client);
        // Give the reactor a beat to observe the close and re-arm
        // the listener before the next cycle connects.
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.stats();
    assert_eq!(stats.wire_accepted, 3);
    assert_eq!(stats.wire_peak_open, 1, "budget breached");
    server.shutdown();
    fleet.shutdown();
}
