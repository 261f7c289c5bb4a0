//! Serving: load (or train and save) a KLiNQ system as a model artifact,
//! front it with the micro-batching `ReadoutServer`, and fire concurrent
//! clients at it.
//!
//! Run with `cargo run --release --example serving [float|hardware]`.
//! The first run trains the smoke-scale system and saves the artifact to
//! the target directory; later runs load it in milliseconds — the
//! deployable-discriminator workflow of the paper.

use klinq::core::experiments::ExperimentConfig;
use klinq::core::{Backend, KlinqError, KlinqSystem};
use klinq::serve::{ReadoutServer, RequestOptions, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), KlinqError> {
    let backend = match std::env::args().nth(1).as_deref() {
        Some("hardware") | Some("hw") => Backend::Hardware,
        _ => Backend::Float,
    };

    // Load the trained system if an artifact exists, otherwise train and
    // save one: the artifact is bitwise-equivalent to the trained system.
    let path = std::env::temp_dir().join("klinq-serving-example.json");
    let system = match KlinqSystem::load(&path) {
        Ok(system) => {
            println!("loaded model artifact {}", path.display());
            system
        }
        Err(_) => {
            println!("no artifact yet — training the smoke-scale system …");
            let start = Instant::now();
            let system = KlinqSystem::train(&ExperimentConfig::smoke())?;
            println!("  trained in {:.1}s", start.elapsed().as_secs_f32());
            system.save(&path)?;
            println!("  saved artifact to {}", path.display());
            system
        }
    };

    let shots = system.test_data().shots().to_vec();
    let n_shots = shots.len();
    println!("serving {n_shots} shots on the {backend} backend …");

    let server = ReadoutServer::start(
        Arc::new(system),
        ServeConfig {
            backend,
            max_batch_shots: n_shots,
            max_linger: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );

    // Four concurrent clients, several rounds each: requests coalesce
    // into micro-batches on the server.
    let clients = 4;
    let rounds = 8;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let per_client = n_shots.div_ceil(clients);
        for chunk in shots.chunks(per_client) {
            let client = server.client();
            scope.spawn(move || {
                for _ in 0..rounds {
                    let states = client
                        .classify_shots_opts(RequestOptions::new(), chunk.to_vec())
                        .expect("server alive");
                    assert_eq!(states.len(), chunk.len());
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let stats = server.shutdown();
    let throughput = stats.shots as f64 / elapsed;
    println!(
        "served {} shots in {} requests over {} micro-batches \
         (mean batch {:.0} shots, largest {})",
        stats.shots,
        stats.requests,
        stats.batches,
        stats.mean_batch_shots(),
        stats.largest_batch,
    );
    println!("achieved throughput: {:.0} shots/s", throughput);
    Ok(())
}
