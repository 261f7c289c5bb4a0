//! KLiNQ — knowledge-distillation-assisted lightweight neural networks for
//! superconducting-qubit readout, reproduced in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`fixed`] — Q16.16 fixed-point arithmetic (the FPGA number format).
//! - [`nn`] — from-scratch feed-forward neural network library with
//!   knowledge-distillation losses.
//! - [`sim`] — five-qubit dispersive-readout trace simulator (the dataset
//!   substrate standing in for the Lienhard et al. measurements).
//! - [`dsp`] — matched filters, interval averaging, normalization, and the
//!   student-input feature pipeline.
//! - [`fpga`] — bit-accurate fixed-point datapath plus latency/resource
//!   models of the ZCU216 implementation.
//! - [`core`] — the KLiNQ system: teacher training, distillation, the
//!   per-qubit independent discriminators (generic over the
//!   float/Q16.16 [`core::Backend`]), model persistence
//!   ([`core::persist`]), baselines (Baseline FNN, HERQULES, quantized
//!   FNN) and the paper's experiments.
//! - [`serve`] — the serving stack: micro-batching request coalescing
//!   with backpressure and priority lanes, multi-device sharding, and a
//!   binary wire protocol over TCP for out-of-process clients.
//!
//! # Quickstart
//!
//! ```no_run
//! use klinq::core::experiments::ExperimentConfig;
//! use klinq::core::{Backend, KlinqSystem};
//!
//! // Train a complete (scaled-down) KLiNQ system and read a qubit.
//! let config = ExperimentConfig::smoke();
//! let system = KlinqSystem::train(&config).expect("training succeeds");
//! let report = system.evaluate_on(Backend::Float);
//! println!("five-qubit geometric-mean fidelity: {:.3}", report.geometric_mean());
//! ```

#![forbid(unsafe_code)]

pub use klinq_core as core;
pub use klinq_dsp as dsp;
pub use klinq_fixed as fixed;
pub use klinq_fpga as fpga;
pub use klinq_nn as nn;
pub use klinq_serve as serve;
pub use klinq_sim as sim;
