//! Reactor behaviors the codec tests can't see: request pipelining with
//! out-of-order completion matched by id (bitwise-equal to direct
//! classification on both backends), a blocking call behind a pipelined
//! reply, client read timeouts (a timed-out blocking call leaves nothing
//! tracked, and its late answer is dropped), the connection budget's accept
//! backpressure, idle-connection reaping, wire-level version skew, and a
//! 256-connection pipelined load on one reactor thread.

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem, ShotStates};
use klinq_serve::wire::{self, codec, FrameAssembler, WireMessage};
use klinq_serve::{
    Priority, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer, Shot, WireClient,
    WireConfig, WireServer,
};
use klinq_sim::IqTrace;
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
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
fn recv_frame(raw: &mut TcpStream, asm: &mut FrameAssembler) -> std::io::Result<Option<Vec<u8>>> {
    loop {
        if let Some(frame) = asm.next_frame_ref().expect("frame length within bounds") {
            return Ok(Some(frame.to_vec()));
        }
        if asm.read_from(raw, 64 * 1024)? == 0 {
            return Ok(None);
        }
    }
}

/// Writes one default-tenant request frame to `device` on a raw
/// connection — the raw-frame path the benchmark's load generator uses.
fn send_request(raw: &mut TcpStream, req_id: u64, device: u16, priority: Priority, shots: &[Shot]) {
    let payload = codec::encode_request_opts(req_id, device, priority, 0, 0, false, shots);
    raw.write_all(&codec::frame(&payload)).expect("request written");
}

/// Reads the next frame off a raw connection, which must be a
/// response: `(request id, states)`.
fn recv_states(raw: &mut TcpStream, asm: &mut FrameAssembler) -> (u64, Vec<ShotStates>) {
    let frame = recv_frame(raw, asm).expect("transport alive").expect("a response, not a hang-up");
    match wire::decode_message(&frame) {
        Ok(WireMessage::Response { req_id, states }) => (req_id, states),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

#[test]
fn a_server_that_accepts_but_never_replies_times_out_typed() {
    // The kernel completes the TCP handshake from the backlog, so a
    // listener that never calls accept() stands in for a wedged server:
    // the client's request vanishes into the void and only the read
    // timeout can get control back.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut client =
        WireClient::connect_timeout(&addr, 0, Duration::from_secs(5)).expect("handshake");
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let req_id =
        client.submit_opts(RequestOptions::new(), &[]).expect("request buffered by the kernel");
    assert_eq!(req_id, 1, "client request ids start at 1");
    let t0 = Instant::now();
    match client.recv_response() {
        Err(ServeError::Timeout) => {}
        other => panic!("expected ServeError::Timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout did not fire promptly: {:?}",
        t0.elapsed()
    );
    // The blocking wrapper surfaces the same typed error.
    let mut blocking =
        WireClient::connect_timeout(&addr, 0, Duration::from_secs(5)).expect("handshake");
    blocking
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let shot = system().test_data().shot(0).clone();
    match blocking.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot)) {
        Err(ServeError::Timeout) => {}
        other => panic!("expected ServeError::Timeout, got {other:?}"),
    }
}

#[test]
fn a_timed_out_blocking_call_leaves_nothing_in_flight() {
    // A listener that never accepts: the blocking call can only time
    // out. The caller never saw its request id, so nothing may stay
    // tracked for a later `recv_response` to wait on.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut client =
        WireClient::connect_timeout(&addr, 0, Duration::from_secs(5)).expect("handshake");
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let shot = system().test_data().shot(0).clone();
    match client.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot)) {
        Err(ServeError::Timeout) => {}
        other => panic!("expected ServeError::Timeout, got {other:?}"),
    }
    assert_eq!(client.in_flight(), 0, "the timed-out call is still tracked");
    let t0 = Instant::now();
    match client.recv_response() {
        Err(ServeError::Closed) => {}
        other => panic!("expected ServeError::Closed, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "recv_response waited {:?} on a forgotten request",
        t0.elapsed()
    );
}

#[test]
fn a_late_answer_to_a_timed_out_call_is_dropped() {
    // A raw peer holds the blocking call's request past its timeout,
    // then answers it late, followed by a pipelined request's answer.
    // `recv_response` must yield the pipelined answer only.
    let sys = system();
    let shots = sys.test_data().shots()[..6].to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut raw, _) = listener.accept().expect("accept");
        let mut asm = FrameAssembler::new();
        let mut answers = Vec::new();
        // The second frame only arrives once the first call timed out.
        for _ in 0..2 {
            let frame = recv_frame(&mut raw, &mut asm).expect("read").expect("a request");
            let Ok(WireMessage::Request { req_id, shots, .. }) = wire::decode_message(&frame) else {
                panic!("expected a request frame");
            };
            let states =
                BatchDiscriminator::new(system().discriminators()).classify_shots_on(Backend::Float, &shots);
            answers.push(codec::frame(&codec::encode_response(req_id, &states)));
        }
        for answer in answers {
            raw.write_all(&answer).expect("answer written");
        }
        // Hold the connection open until the client is done.
        let _ = recv_frame(&mut raw, &mut asm);
    });
    let mut client =
        WireClient::connect_timeout(&addr, 0, Duration::from_secs(5)).expect("handshake");
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    match client.classify_shots_opts(RequestOptions::new(), &shots[..2]) {
        Err(ServeError::Timeout) => {}
        other => panic!("expected ServeError::Timeout, got {other:?}"),
    }
    let pipelined = client.submit_opts(RequestOptions::new(), &shots[2..]).expect("submitted");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let (id, result) = client.recv_response().expect("the pipelined answer");
    assert_eq!(id, pipelined, "recv_response returned the timed-out call's id");
    assert_eq!(result.expect("served"), direct[2..]);
    assert_eq!(client.in_flight(), 0);
    assert!(matches!(client.recv_response(), Err(ServeError::Closed)));
    drop(client);
    peer.join().expect("peer thread");
}

#[test]
fn pipelined_requests_complete_out_of_order_and_match_direct() {
    // One connection, many frames in flight, responses matched by id:
    // throughput requests parked on device 0's lingering batch must NOT
    // block latency requests to device 1 from answering first, and every
    // response must be bitwise-identical to direct classification.
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let park: [Range<usize>; 3] = [0..5, 5..9, 9..16];
    let overtake: [Range<usize>; 3] = [16..20, 20..27, 27..30];
    let flush: Range<usize> = 30..33;
    for backend in Backend::ALL {
        let direct =
            BatchDiscriminator::new(sys.discriminators()).classify_shots_on(backend, &shots);
        let fleet = ShardedReadoutServer::start(
            vec![system(), system()],
            ServeConfig {
                backend,
                // Long enough that parked responses can only arrive
                // via the expediting latency request below — which
                // makes the out-of-order assertion deterministic.
                max_linger: Duration::from_secs(15),
                max_batch_shots: usize::MAX,
                ..ServeConfig::default()
            },
        );
        let server =
            WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
                .expect("start wire server");
        // Raw frames on one connection: per-request device routing
        // is a protocol feature, so devices 0 and 1 share the link.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        let mut asm = FrameAssembler::new();
        let mut expected: HashMap<u64, Range<usize>> = HashMap::new();
        let mut next_id = 1u64;
        for r in &park {
            send_request(&mut raw, next_id, 0, Priority::Throughput, &shots[r.clone()]);
            expected.insert(next_id, r.clone());
            next_id += 1;
        }
        let mut overtaking_ids = Vec::new();
        for r in &overtake {
            send_request(&mut raw, next_id, 1, Priority::Latency, &shots[r.clone()]);
            expected.insert(next_id, r.clone());
            overtaking_ids.push(next_id);
            next_id += 1;
        }
        assert_eq!(expected.len(), park.len() + overtake.len());
        // The device-1 responses arrive while device 0 still
        // lingers: completion order differs from submission order.
        for _ in &overtake {
            let (id, states) = recv_states(&mut raw, &mut asm);
            assert!(
                overtaking_ids.contains(&id),
                "device-0 request {id} answered while its batch should be parked \
                 ({backend})"
            );
            let r = expected.remove(&id).expect("each id answered once");
            assert_eq!(states, direct[r], "{backend}");
        }
        // A latency request to device 0 expedites the parked batch;
        // the three parked responses and this one drain in any order.
        send_request(&mut raw, next_id, 0, Priority::Latency, &shots[flush.clone()]);
        expected.insert(next_id, flush.clone());
        for _ in 0..=park.len() {
            let (id, states) = recv_states(&mut raw, &mut asm);
            let r = expected.remove(&id).expect("each id answered once");
            assert_eq!(states, direct[r], "{backend}");
        }
        assert!(expected.is_empty());
        server.shutdown();
        let stats = fleet.shutdown();
        assert_eq!(stats.requests, 7, "{backend}");
    }
}

#[test]
fn a_blocking_call_behind_a_pipelined_reply_gets_its_own_and_keeps_the_other() {
    // The earlier pipelined submit is answered first (a shared
    // micro-batch replies in submission order). The blocking call must
    // read past that reply to its own and leave the earlier one queued
    // for `recv_response`. A client that spins on its queue never
    // reads, so no read timeout fires: the client runs on its own
    // thread and the test bounds the wait instead.
    let sys = system();
    let shots = sys.test_data().shots()[..3].to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let first = client
            .submit_opts(RequestOptions::new(), &shots[..1])
            .expect("submitted");
        let blocking = client.classify_shots_opts(RequestOptions::new(), &shots[1..]);
        let queued = client.recv_response();
        let _ = done_tx.send((first, blocking, queued, client.in_flight()));
    });
    let (first, blocking, queued, in_flight) = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the blocking call never returned past the earlier reply");
    worker.join().expect("client thread");
    assert_eq!(blocking.expect("served"), direct[1..]);
    let (id, result) = queued.expect("the earlier reply was kept");
    assert_eq!(id, first);
    assert_eq!(result.expect("served"), direct[..1]);
    assert_eq!(in_flight, 0);
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn requests_the_decoder_rejects_fail_synchronously_and_spare_the_connection() {
    // Both requests below fit the frame-size bound, yet the server's
    // decoder rejects them — and the reactor answers undecodable bytes
    // by dropping the whole connection, which would lose every request
    // in flight on it. The client must refuse them before sending.
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            // Parks the first request until the latency flush below.
            max_linger: Duration::from_secs(15),
            max_batch_shots: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    let parked = client
        .submit_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .expect("parked request sent");
    // One shot over the per-request cap (zero-trace shots: ~2 MiB).
    let traceless = Shot { traces: Vec::new(), ..shot.clone() };
    let too_many_shots = vec![traceless; wire::MAX_REQUEST_SHOTS as usize + 1];
    // One trace over what the frame's `u16` trace count can carry.
    let empty_trace = IqTrace { i: Vec::new(), q: Vec::new() };
    let too_many_traces =
        Shot { traces: vec![empty_trace; usize::from(u16::MAX) + 1], ..shot.clone() };
    for (what, shots) in
        [("shots", &too_many_shots[..]), ("traces", std::slice::from_ref(&too_many_traces))]
    {
        match client.submit_opts(RequestOptions::new(), shots) {
            Err(ServeError::InvalidRequest(msg)) => assert!(msg.contains("limit"), "{what}: {msg}"),
            other => {
                panic!("too many {what}: expected a synchronous InvalidRequest, got {other:?}")
            }
        }
    }
    assert_eq!(client.in_flight(), 1, "a refused request is never tracked");
    // The connection still serves: a latency request expedites the
    // parked batch, and both come back with states.
    let flush = client
        .submit_opts(RequestOptions::new().priority(Priority::Latency), std::slice::from_ref(&shot))
        .expect("connection still usable");
    let mut answered = HashMap::new();
    for _ in 0..2 {
        let (id, result) = client.recv_response().expect("transport alive");
        answered.insert(id, result.expect("served, not disconnected"));
    }
    assert_eq!(answered[&parked], vec![direct]);
    assert_eq!(answered[&flush], vec![direct]);
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn the_connection_budget_applies_accept_backpressure() {
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            max_connections: 2,
            idle_timeout: None,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut c1 = WireClient::connect(server.local_addr(), 0).unwrap();
    let mut c2 = WireClient::connect(server.local_addr(), 0).unwrap();
    assert_eq!(
        c1.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot)).unwrap()[0],
        direct
    );
    assert_eq!(
        c2.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot)).unwrap()[0],
        direct
    );
    // The third connection handshakes (kernel backlog) but sits
    // unaccepted at the budget: its request gets no answer.
    let mut c3 = WireClient::connect(server.local_addr(), 0).unwrap();
    c3.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
    c3.submit_opts(RequestOptions::new(), std::slice::from_ref(&shot)).unwrap();
    match c3.recv_response() {
        Err(ServeError::Timeout) => {}
        other => panic!("budget ignored: third connection got {other:?}"),
    }
    // A slot frees; the reactor resumes accepting, reads the
    // buffered request, and answers it.
    drop(c1);
    c3.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let (_, result) = c3.recv_response().expect("accepted after a slot freed");
    assert_eq!(result.expect("served"), vec![direct]);
    let stats = server.stats();
    assert_eq!(stats.wire_accepted, 3);
    assert_eq!(stats.wire_peak_open, 2, "budget breached");
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn idle_connections_are_reaped_under_the_configured_timeout() {
    let sys = system();
    let shot = sys.test_data().shot(1).clone();
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut idle = WireClient::connect(server.local_addr(), 0).unwrap();
    idle.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .expect("served before going idle");
    std::thread::sleep(Duration::from_millis(1200));
    let stats = server.stats();
    assert_eq!(stats.wire_reaped, 1, "quiet connection not reaped");
    assert_eq!(stats.wire_open, 0);
    // The reaped client transparently reconnects on its next call —
    // the server hung up, but the address still serves...
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(
        idle.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .expect("reconnected after the reap")[0],
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    // ...and with reconnection disabled, the hang-up surfaces as a
    // typed `Disconnected` instead (never a panic or a silent hang).
    let mut doomed = WireClient::connect(server.local_addr(), 0).unwrap();
    doomed.set_reconnect(None);
    doomed
        .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .expect("served before going idle");
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(
        doomed.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot)),
        Err(ServeError::Disconnected)
    );
    // ...while fresh connections serve as ever.
    let mut fresh = WireClient::connect(server.local_addr(), 0).unwrap();
    assert_eq!(
        fresh
            .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .expect("server alive")[0],
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn wire_version_skew_earns_a_typed_error_frame() {
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    // A protocol-v1 peer (PR 5: no request ids) sends a well-formed v1
    // request; the server must answer with the version-skew error on the
    // connection lane, not misparse the body or hang up silently.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut v1 = Vec::new();
    v1.extend_from_slice(&0x514Bu16.to_le_bytes());
    v1.push(1); // version 1
    v1.push(1); // request
    v1.extend_from_slice(&0u16.to_le_bytes()); // device
    v1.push(0); // priority
    v1.extend_from_slice(&0u32.to_le_bytes()); // zero shots
    raw.write_all(&(v1.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&v1).unwrap();
    let payload = recv_frame(&mut raw, &mut FrameAssembler::new())
        .expect("server answers before hanging up")
        .expect("an error frame, not a silent close");
    match wire::decode_message(&payload) {
        Ok(wire::WireMessage::Error {
            req_id: wire::CONNECTION_REQ_ID,
            error: ServeError::Protocol(msg),
        }) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("expected a version-skew error frame, got {other:?}"),
    }
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn the_reactor_sustains_256_pipelined_connections() {
    // 256 concurrent connections, each with two requests in flight,
    // multiplexed by ONE reactor thread — no thread-per-connection. A
    // single test thread drives them all; pipelining is what makes that
    // possible (submit everything, then drain).
    const CONNS: usize = 256;
    const REQS_PER_CONN: usize = 2;
    const SLICE: usize = 2;
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            max_pending: 4096,
            ..ServeConfig::default()
        },
    );
    let server =
        WireServer::start_with(&fleet, TcpListener::bind("127.0.0.1:0").unwrap(), no_reap())
            .unwrap();
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        clients.push(WireClient::connect(server.local_addr(), 0).unwrap());
    }
    let start = |c: usize, j: usize| (c * REQS_PER_CONN + j) * SLICE % (shots.len() - SLICE);
    let mut expected: Vec<HashMap<u64, usize>> = Vec::with_capacity(CONNS);
    for (c, client) in clients.iter_mut().enumerate() {
        let mut ids = HashMap::new();
        for j in 0..REQS_PER_CONN {
            let s = start(c, j);
            let id =
                client.submit_opts(RequestOptions::new(), &shots[s..s + SLICE]).expect("submitted");
            ids.insert(id, s);
        }
        expected.push(ids);
    }
    for (client, ids) in clients.iter_mut().zip(&mut expected) {
        client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        for _ in 0..REQS_PER_CONN {
            let (id, result) = client.recv_response().expect("response under load");
            let s = ids.remove(&id).expect("each id answered exactly once");
            assert_eq!(result.expect("served"), direct[s..s + SLICE]);
        }
        assert!(ids.is_empty());
    }
    let stats = server.stats();
    assert_eq!(stats.wire_peak_open, CONNS as u64);
    assert_eq!(stats.wire_accepted, CONNS as u64);
    drop(clients);
    server.shutdown();
    let fleet_stats = fleet.shutdown();
    assert_eq!(fleet_stats.requests, (CONNS * REQS_PER_CONN) as u64);
}

#[test]
fn the_reactor_stays_live_with_no_reap_timer() {
    // Idle reaping off: the reactor parks in `epoll_wait` with no
    // timeout, so a completion reaches its connection only through the
    // collectors' eventfd wakeup — a lost wakeup stalls the round past
    // the 1 s read deadline instead of hiding behind a 250 ms reap
    // tick. 64 connections with one request each in flight per round
    // keep collectors completing while the reactor drains its waker.
    const CONNS: usize = 64;
    const ROUNDS: usize = 200;
    const SLICE: usize = 2;
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            idle_timeout: None,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut clients: Vec<WireClient> = (0..CONNS)
        .map(|_| {
            let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(1)))
                .unwrap();
            client
        })
        .collect();
    for round in 0..ROUNDS {
        let mut sent = Vec::with_capacity(CONNS);
        for (c, client) in clients.iter_mut().enumerate() {
            let s = (round * CONNS + c) * SLICE % (shots.len() - SLICE);
            let id = client
                .submit_opts(RequestOptions::new(), &shots[s..s + SLICE])
                .expect("submitted");
            sent.push((id, s));
        }
        for (client, (id, s)) in clients.iter_mut().zip(sent) {
            let (got, result) = client
                .recv_response()
                .unwrap_or_else(|e| panic!("round {round}: no answer within 1 s: {e:?}"));
            assert_eq!(got, id, "round {round}");
            assert_eq!(
                result.expect("served"),
                direct[s..s + SLICE],
                "round {round}"
            );
        }
    }
    drop(clients);
    server.shutdown();
    fleet.shutdown();
}
