//! Sharded + wire-protocol serving end to end: a TCP client against a
//! two-device fleet must see exactly what direct batched classification
//! produces, on both backends, and the priority lane must observably
//! skip the linger window.

use klinq_core::testkit;
use klinq_core::{persist, Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::{
    wire, Priority, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer, Shot,
    WireClient, WireConfig, WireServer,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, OnceLock};
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

#[test]
fn wire_clients_match_direct_batches_on_a_two_device_fleet() {
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    for backend in Backend::ALL {
        // Two device shards (the same trained system twice: a second
        // training would dominate the suite's wall clock without
        // exercising any extra sharding or wire code).
        let fleet = ShardedReadoutServer::start(
            vec![system(), system()],
            ServeConfig {
                backend,
                ..ServeConfig::default()
            },
        );
        let server = WireServer::start_with(
            &fleet,
            TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
            no_reap(),
        )
        .expect("start wire server");
        let direct =
            BatchDiscriminator::new(sys.discriminators()).classify_shots_on(backend, &shots);
        for device in 0..2u16 {
            let mut client =
                WireClient::connect(server.local_addr(), device).expect("connect loopback");
            let states = client
                .classify_shots_opts(RequestOptions::new(), &shots)
                .expect("served over the wire");
            assert_eq!(
                states, direct,
                "wire states diverged from direct on {backend}, device {device}"
            );
        }
        // Device routing is validated at the wire front end: an unknown
        // device is a typed rejection, not a panic or a hang.
        let mut stray =
            WireClient::connect(server.local_addr(), 7).expect("connect loopback");
        match stray.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shots[0])) {
            Err(ServeError::InvalidRequest(msg)) => assert!(msg.contains("device"), "{msg}"),
            other => panic!("expected InvalidRequest for unknown device, got {other:?}"),
        }
        server.shutdown();
        let stats = fleet.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.shots, 2 * shots.len() as u64);
        assert_eq!(stats.batches, 2);
    }
}

#[test]
fn in_process_sharded_clients_route_and_aggregate_stats() {
    let sys = system();
    let shots = sys.test_data().shots();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, shots);
    let fleet = ShardedReadoutServer::start(vec![system(), system()], ServeConfig::default());
    assert_eq!(fleet.devices(), 2);
    // Device 0 sees two requests, device 1 sees one.
    let d0 = fleet.client(0);
    let d1 = fleet.client(1);
    assert_eq!(
        d0.classify_shots_opts(RequestOptions::new(), shots[..8].to_vec()).unwrap(),
        direct[..8]
    );
    assert_eq!(
        d0.classify_shots_opts(RequestOptions::new(), shots[8..12].to_vec()).unwrap(),
        direct[8..12]
    );
    assert_eq!(
        d1.classify_shots_opts(RequestOptions::new(), shots[12..20].to_vec()).unwrap(),
        direct[12..20]
    );
    let per_shard = fleet.shard_stats();
    assert_eq!(per_shard.len(), 2);
    assert_eq!(per_shard[0].requests, 2);
    assert_eq!(per_shard[0].shots, 12);
    assert_eq!(per_shard[1].requests, 1);
    assert_eq!(per_shard[1].shots, 8);
    let total = fleet.stats();
    assert_eq!(total.requests, 3);
    assert_eq!(total.shots, 20);
    assert_eq!(total.largest_batch, 8);
    let final_stats = fleet.shutdown();
    assert_eq!(final_stats.requests, 3);
}

#[test]
fn fleet_deploys_from_a_device_bundle() {
    let sys = system();
    let dir = std::env::temp_dir().join(format!("klinq_shard_bundle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    persist::save_device_bundle(&path, &[sys.as_ref(), sys.as_ref()]).unwrap();
    let fleet = ShardedReadoutServer::load_bundle(&path, ServeConfig::default())
        .expect("bundle loads into a fleet");
    assert_eq!(fleet.devices(), 2);
    let shot = sys.test_data().shot(3).clone();
    let expected =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    for device in 0..2 {
        assert_eq!(
            fleet
                .client(device)
                .classify_shots_opts(RequestOptions::new(), vec![shot.clone()])
                .unwrap()[0],
            expected,
            "bundle-loaded device {device} diverged"
        );
    }
    fleet.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_latency_priority_skips_the_linger_window() {
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            // Long enough that only the priority lane can answer in time.
            max_linger: Duration::from_secs(600),
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    let start = Instant::now();
    let states = client
        .classify_shots_opts(
            RequestOptions::new().priority(Priority::Latency),
            std::slice::from_ref(&shot),
        )
        .expect("served over the wire");
    let elapsed = start.elapsed();
    assert_eq!(
        states[0],
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "wire latency request waited out the linger: {elapsed:?}"
    );
    server.shutdown();
    let stats = fleet.shutdown();
    assert_eq!(stats.latency_requests, 1);
    assert_eq!(stats.expedited_batches, 1, "{stats:?}");
}

#[test]
fn wire_shutdown_does_not_deadlock_on_an_in_flight_lingering_batch() {
    // A wire request parked in an unfilled batch under an infinite
    // linger can only be answered by the FLEET's shutdown; the wire
    // front end's shutdown must return promptly anyway (it must not
    // block joining the parked handler), and the client must still get
    // its reply when the fleet closes the batch.
    let sys = system();
    let shots = sys.test_data().shots()[..3].to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            max_linger: Duration::MAX,
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let request = {
            let shots = shots.clone();
            scope.spawn(move || {
                let mut client = WireClient::connect(addr, 0).expect("connect loopback");
                client.classify_shots_opts(RequestOptions::new(), &shots)
            })
        };
        // Let the request reach the collector and open its batch.
        std::thread::sleep(Duration::from_millis(200));
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "wire shutdown blocked on the parked handler"
        );
        let stats = fleet.shutdown();
        assert_eq!(stats.requests, 1);
        let states = request
            .join()
            .expect("client thread")
            .expect("answered when the fleet closed the batch");
        assert_eq!(states, direct);
    });
}

#[test]
fn wire_rejections_reach_the_client_typed() {
    let sys = system();
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    // A request the serving system cannot classify: the intake
    // validation's typed rejection crosses the wire intact.
    let mut bad = sys.test_data().shot(0).clone();
    for t in &mut bad.traces {
        t.i.truncate(3);
        t.q.truncate(3);
    }
    match client.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&bad)) {
        Err(ServeError::InvalidRequest(msg)) => assert!(msg.contains("front end"), "{msg}"),
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    // A ragged trace (I and Q lengths differing) must cross the wire
    // intact — the format carries both counts — and earn the same typed
    // intake rejection an in-process client gets, not a corrupt frame.
    let mut ragged = sys.test_data().shot(4).clone();
    let shorter = ragged.traces[2].q.len() - 1;
    ragged.traces[2].q.truncate(shorter);
    match client.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&ragged)) {
        Err(ServeError::InvalidRequest(msg)) => assert!(msg.contains("samples but Q"), "{msg}"),
        other => panic!("expected InvalidRequest for ragged trace, got {other:?}"),
    }
    // The connection survives a rejection: valid requests still serve.
    let good = sys.test_data().shot(1).clone();
    assert_eq!(
        client
            .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&good))
            .expect("connection still serves")[0],
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &good)
    );
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn garbage_frames_get_a_typed_protocol_error_not_a_dead_server() {
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    // A raw socket speaking nonsense: the server must answer with a
    // typed error frame, close that connection, and keep serving others.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let junk = *b"completely not a klinq frame";
    raw.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&junk).unwrap();
    let payload = recv_frame(&mut raw)
        .expect("server answers before hanging up")
        .expect("an error frame, not a silent close");
    match wire::decode_message(&payload) {
        Ok(wire::WireMessage::Error {
            req_id: wire::CONNECTION_REQ_ID,
            error: ServeError::Protocol(msg),
        }) => {
            assert!(msg.contains("magic"), "{msg}")
        }
        other => panic!("expected a connection-level protocol error frame, got {other:?}"),
    }
    // After the error the server hangs up on the corrupt stream.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // And a well-behaved client on a fresh connection still serves.
    let sys = system();
    let shot = sys.test_data().shot(2).clone();
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    assert_eq!(
        client
            .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .expect("server alive")[0],
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    server.shutdown();
    fleet.shutdown();
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
    #![proptest_config(proptest::ProptestConfig::with_cases(4))]

    #[test]
    fn coalesced_wire_requests_of_mixed_shapes_match_direct(plans in request_plans()) {
        // Pipelined wire requests and one in-process calibration request
        // share one micro-batch: its budget is their total and the linger
        // never expires first. Every wire answer must be exactly its own
        // request's direct classification, decoded from its frame into a
        // block and read in place next to the others.
        let sys = system();
        let mut requests = planned_requests(&sys, &plans);
        let calib = requests.pop().expect("at least two requests");
        let total = requests.iter().map(Vec::len).sum::<usize>() + calib.len();
        for backend in Backend::ALL {
            let engine = BatchDiscriminator::new(sys.discriminators());
            let fleet = ShardedReadoutServer::start(
                vec![system()],
                ServeConfig {
                    backend,
                    max_batch_shots: total,
                    max_linger: Duration::from_secs(60),
                    ..ServeConfig::default()
                },
            );
            let server = WireServer::start_with(
                &fleet,
                TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
                no_reap(),
            )
            .expect("start wire server");
            let mut client = WireClient::connect(server.local_addr(), 0).expect("connect loopback");
            client.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
            let ids: Vec<u64> = requests
                .iter()
                .map(|shots| client.submit_opts(RequestOptions::new(), shots).expect("submitted"))
                .collect();
            let calib_states = fleet
                .client(0)
                .classify_calibration_shots(calib.clone())
                .expect("calibration lane served");
            proptest::prop_assert_eq!(&calib_states, &engine.classify_shots_on(backend, &calib));
            let mut answers = HashMap::new();
            for _ in &requests {
                let (id, result) = client.recv_response().expect("answered");
                answers.insert(id, result.expect("served"));
            }
            for (r, (id, shots)) in ids.iter().zip(&requests).enumerate() {
                proptest::prop_assert_eq!(
                    &answers[id],
                    &engine.classify_shots_on(backend, shots),
                    "request {} on {}",
                    r,
                    backend
                );
            }
            server.shutdown();
            let stats = fleet.shutdown();
            proptest::prop_assert_eq!(stats.batches, 1, "requests did not coalesce on {}", backend);
            proptest::prop_assert_eq!(stats.calib_shots, calib.len() as u64);
            proptest::prop_assert_eq!(
                [stats.calib_prepared_excited, stats.calib_false_excited, stats.calib_false_ground],
                calibration_counts(&calib, &calib_states)
            );
        }
    }
}
