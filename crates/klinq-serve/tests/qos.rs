//! Multi-tenant QoS end to end: tenant identity threads from client
//! options through intake, scheduling and stats; quota overruns shed
//! typed with a retry-after hint; an unknown tenant is a typed
//! per-request error on every transport, never a hang-up.

use klinq_core::testkit;
use klinq_core::KlinqSystem;
use klinq_serve::{
    Priority, ReadoutServer, RequestOptions, SchedPolicy, ServeConfig, ServeError,
    ShardedReadoutServer, TenantId, TenantSpec, WireClient, WireConfig, WireServer,
};
use std::net::TcpListener;
use std::path::Path;
use std::sync::{mpsc, Arc, OnceLock};
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

fn two_tenant_policy() -> SchedPolicy {
    SchedPolicy::new(vec![
        TenantSpec::new("gold", 3),
        TenantSpec::new("bronze", 1).with_quota(12),
    ])
}

#[test]
fn tenant_identity_lands_in_per_tenant_stats() {
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            sched: two_tenant_policy(),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let shots = system().test_data().shots()[..6].to_vec();
    client
        .classify_shots_opts(RequestOptions::new().tenant(TenantId(0)), shots[..4].to_vec())
        .expect("gold request served");
    client
        .classify_shots_opts(RequestOptions::new().tenant(TenantId(1)), shots[4..].to_vec())
        .expect("bronze request served");

    let stats = server.tenant_stats();
    assert_eq!(stats.len(), 2);
    assert_eq!((stats[0].name.as_str(), stats[0].weight), ("gold", 3));
    assert_eq!((stats[1].name.as_str(), stats[1].weight), ("bronze", 1));
    assert_eq!((stats[0].requests, stats[0].shots), (1, 4));
    assert_eq!((stats[1].requests, stats[1].shots), (1, 2));
    assert_eq!(stats[0].shed + stats[1].shed, 0);
    server.shutdown();
}

#[test]
fn quota_overrun_sheds_typed_with_a_retry_hint() {
    let server = ReadoutServer::start(
        system(),
        ServeConfig {
            // A long linger holds admitted requests queued, so the
            // second bronze request meets a full quota (12 shots) while
            // the first (8) still occupies it.
            max_linger: Duration::from_millis(300),
            max_batch_shots: 10_000,
            sched: two_tenant_policy(),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let shots = system().test_data().shots().to_vec();
    // Warm the service-rate estimate: one latency-class batch executes
    // immediately and feeds the EWMA behind the retry-after hint.
    client
        .classify_shots_opts(
            RequestOptions::new().tenant(TenantId(0)).priority(Priority::Latency),
            shots[..4].to_vec(),
        )
        .expect("warmup served");

    let (tx, rx) = mpsc::channel();
    for i in 0..2 {
        let tx = tx.clone();
        client
            .submit_opts(
                RequestOptions::new().tenant(TenantId(1)),
                shots[..8].to_vec(),
                move |result| {
                    let _ = tx.send((i, result.map(|s| s.len())));
                },
            )
            .expect("intake channel open");
    }
    let mut outcomes = [None, None];
    for _ in 0..2 {
        let (i, result) = rx.recv_timeout(Duration::from_secs(10)).expect("answered");
        outcomes[i] = Some(result);
    }
    // FIFO intake: the first request occupies the quota and is served
    // after the linger; the second overruns 12 and sheds immediately —
    // typed, with a backlog-derived hint (the EWMA is warm).
    assert_eq!(outcomes[0], Some(Ok(8)));
    match outcomes[1].take().expect("collected") {
        Err(ServeError::Overloaded { retry_after }) => {
            let hint = retry_after.expect("warm EWMA yields a hint");
            assert!(
                hint >= Duration::from_micros(100) && hint <= Duration::from_secs(5),
                "hint {hint:?} outside sane bounds"
            );
        }
        other => panic!("quota overrun got {other:?}, want Overloaded"),
    }
    let stats = server.tenant_stats();
    assert_eq!(stats[1].shed, 1);
    server.shutdown();
}

#[test]
fn unknown_tenant_is_rejected_synchronously_in_process() {
    let server = ReadoutServer::start(system(), ServeConfig::default());
    let client = server.client();
    let shots = system().test_data().shots()[..2].to_vec();
    let err = client
        .classify_shots_opts(RequestOptions::new().tenant(TenantId(7)), shots.clone())
        .expect_err("tenant 7 is not in the default single-tenant table");
    assert_eq!(err, ServeError::UnknownTenant(7));
    // The server is unharmed: the default tenant still serves.
    assert_eq!(client.classify_shots_opts(RequestOptions::new(), shots).expect("served").len(), 2);
    server.shutdown();
}

#[test]
fn unknown_tenant_over_the_wire_is_a_typed_frame_not_a_hangup() {
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            sched: two_tenant_policy(),
            ..ServeConfig::default()
        },
    );
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
        WireConfig {
            idle_timeout: None,
            ..WireConfig::default()
        },
    )
    .expect("start wire server");
    let mut client = WireClient::connect(server.local_addr(), 0).expect("connect");
    let shots = system().test_data().shots()[..3].to_vec();

    let bad = client
        .submit_opts(RequestOptions::new().tenant(TenantId(u32::MAX)), &shots)
        .expect("submission is accepted; the rejection arrives as a frame");
    let (req_id, result) = client.recv_response().expect("connection stays up");
    assert_eq!(req_id, bad);
    assert_eq!(result.unwrap_err(), ServeError::UnknownTenant(u32::MAX));

    // Same connection, valid tenant: still serving.
    let served = client
        .classify_shots_opts(RequestOptions::new().tenant(TenantId(1)), &shots)
        .expect("valid tenant served on the same connection");
    assert_eq!(served.len(), 3);

    drop(client);
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn fleet_tenant_stats_merge_across_shards() {
    let fleet = ShardedReadoutServer::start(
        vec![system(), system()],
        ServeConfig {
            sched: two_tenant_policy(),
            ..ServeConfig::default()
        },
    );
    let shots = system().test_data().shots()[..4].to_vec();
    for device in 0..2 {
        fleet
            .client(device)
            .classify_shots_opts(RequestOptions::new().tenant(TenantId(0)), shots.clone())
            .expect("served");
    }
    let stats = fleet.tenant_stats();
    assert_eq!(stats.len(), 2);
    assert_eq!(stats[0].requests, 2, "one gold request per shard");
    assert_eq!(stats[0].shots, 8);
    assert_eq!(stats[1].requests, 0);
    fleet.shutdown();
}
