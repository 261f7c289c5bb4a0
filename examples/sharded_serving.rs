//! Serving at scale: a two-device sharded fleet deployed from one model
//! bundle, fronted by the reactor-based TCP wire protocol, with
//! priority lanes and request pipelining.
//!
//! Run with `cargo run --release --example sharded_serving`. The first
//! run trains the smoke-scale system and saves a two-device bundle;
//! later runs load the fleet in milliseconds. The example then serves
//! out-of-process-style clients over localhost TCP — bulk throughput
//! requests on both devices, a latency-priority request that skips the
//! linger window, and a single pipelined connection with many requests
//! in flight at once — and prints the fleet's coalescing stats plus the
//! reactor's connection accounting.

use klinq::core::experiments::ExperimentConfig;
use klinq::core::{persist, KlinqError, KlinqSystem};
use klinq::serve::{
    Priority, RequestOptions, ServeConfig, ShardedReadoutServer, WireClient, WireServer,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn main() -> Result<(), KlinqError> {
    let io_err = |e: std::io::Error| KlinqError::Io(e.to_string());

    // Deploy the fleet from a single multi-device bundle artifact (here
    // the same trained system on both devices; a real fridge would
    // bundle one trained system per chip).
    let path = std::env::temp_dir().join("klinq-sharded-example-bundle.json");
    let fleet = match ShardedReadoutServer::load_bundle(&path, serve_config()) {
        Ok(fleet) => {
            println!("loaded fleet bundle {}", path.display());
            fleet
        }
        Err(_) => {
            println!("no bundle yet — training the smoke-scale system …");
            let start = Instant::now();
            let system = KlinqSystem::train(&ExperimentConfig::smoke())?;
            println!("  trained in {:.1}s", start.elapsed().as_secs_f32());
            persist::save_device_bundle(&path, &[&system, &system])?;
            println!("  saved 2-device bundle to {}", path.display());
            ShardedReadoutServer::load_bundle(&path, serve_config())?
        }
    };
    println!("fleet serves {} devices", fleet.devices());

    // The wire front end: out-of-process clients reach the same
    // coalescing path over localhost TCP.
    let server = WireServer::start(
        &fleet,
        TcpListener::bind("127.0.0.1:0").map_err(io_err)?,
    )
    .map_err(io_err)?;
    let addr = server.local_addr();
    println!("wire protocol listening on {addr}");

    let shots = {
        // Any trained system regenerates the same held-out shots; use
        // one loaded from the bundle via a throwaway load.
        let system = persist::load_device_bundle(&path)?.remove(0);
        system.test_data().shots().to_vec()
    };
    let n_shots = shots.len();

    // Two bulk clients per device, plus one latency-lane client.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for device in 0..fleet.devices() as u16 {
            let shots = &shots;
            scope.spawn(move || {
                let mut client =
                    WireClient::connect(addr, device).expect("connect to wire server");
                for round in 0..4 {
                    let states = client
                        .classify_shots_opts(RequestOptions::new(), shots)
                        .expect("fleet alive");
                    assert_eq!(states.len(), shots.len());
                    if round == 0 {
                        println!(
                            "  device {device}: first shot reads {:?}",
                            states[0]
                        );
                    }
                }
            });
        }
        // A mid-circuit-style latency request: closes its micro-batch
        // immediately instead of lingering.
        let shot = shots[0].clone();
        scope.spawn(move || {
            let mut client = WireClient::connect(addr, 0).expect("connect to wire server");
            let t0 = Instant::now();
            let states = client
                .classify_shots_opts(
                    RequestOptions::new().priority(Priority::Latency),
                    std::slice::from_ref(&shot),
                )
                .expect("fleet alive");
            println!(
                "  latency lane: shot read as {:?} in {:.1} ms",
                states[0],
                t0.elapsed().as_secs_f64() * 1e3
            );
        });
    });

    // Request pipelining: ONE connection keeps many requests in flight
    // (each frame carries a request id; responses may complete out of
    // order and are matched back by id), so a single client thread can
    // saturate the coalescer without opening a connection per request.
    let mut pipelined = WireClient::connect(addr, 0).map_err(|e| KlinqError::Io(e.to_string()))?;
    let mut submitted = 0usize;
    for chunk in shots.chunks(64) {
        pipelined.submit_opts(RequestOptions::new(), chunk).expect("fleet alive");
        submitted += 1;
    }
    let mut answered = 0usize;
    while pipelined.in_flight() > 0 {
        let (id, result) = pipelined.recv_response().expect("fleet alive");
        let states = result.expect("served");
        assert!(!states.is_empty(), "request {id} answered empty");
        answered += 1;
    }
    println!(
        "  pipelined {submitted} requests over one connection, {answered} responses matched by id"
    );
    drop(pipelined);
    let elapsed = start.elapsed().as_secs_f64();

    let wire_stats = server.stats();
    println!(
        "reactor accepted {} connections (peak {} open)",
        wire_stats.wire_accepted, wire_stats.wire_peak_open,
    );
    server.shutdown();
    let stats = fleet.shutdown();
    println!(
        "served {} shots in {} requests over {} micro-batches \
         (largest {}, {} expedited by the priority lane, {} shed)",
        stats.shots, stats.requests, stats.batches, stats.largest_batch,
        stats.expedited_batches, stats.shed,
    );
    println!(
        "achieved throughput: {:.0} shots/s over the wire ({} shots per bulk request)",
        stats.shots as f64 / elapsed,
        n_shots,
    );
    Ok(())
}

/// Shared per-shard serving knobs: whole-test-set batches with a small
/// linger so concurrent bulk clients coalesce.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch_shots: 4096,
        max_linger: Duration::from_millis(2),
        ..ServeConfig::default()
    }
}
