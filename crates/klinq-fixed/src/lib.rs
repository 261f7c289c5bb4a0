//! Q16.16 fixed-point arithmetic for the KLiNQ FPGA datapath model.
//!
//! The KLiNQ paper (DAC 2025) deploys its student networks on a Xilinx
//! ZCU216 using a 32-bit fixed-point representation with 16 integer and
//! 16 fractional bits. This crate provides a bit-exact software model of
//! that representation:
//!
//! - [`Q16_16`]: the number type, with checked / saturating / wrapping
//!   arithmetic so overflow behaviour can be modelled explicitly (the
//!   paper's activation layer "handles overflows to ensure correct
//!   functionality").
//! - [`shift`]: power-of-two approximation helpers. The paper replaces the
//!   normalization division `(x - xmin) / sigma` with an arithmetic shift by
//!   snapping `sigma` to the nearest power of two at training time.
//! - [`vector`]: wide-accumulator dot products, the software model of the
//!   DSP multiply / adder-tree reduction used in the fully connected layers.
//!
//! # Examples
//!
//! ```
//! use klinq_fixed::Q16_16;
//!
//! let a = Q16_16::from_f64(1.5);
//! let b = Q16_16::from_f64(-0.25);
//! assert_eq!((a * b).to_f64(), -0.375);
//! // Saturating behaviour at the representable boundary:
//! let big = Q16_16::MAX;
//! assert_eq!(big.saturating_add(Q16_16::ONE), Q16_16::MAX);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod q16;
pub mod shift;
pub mod vector;

pub use q16::{OverflowPolicy, ParseFixedError, Q16_16};
pub use shift::{nearest_pow2_exponent, shift_divide, Pow2Divisor};
pub use vector::{dot, dot_wide, dot_wide_2x4, dot_wide_x4, WideAccumulator};
