//! The readout-backend abstraction: one inference API, two datapaths.
//!
//! Every discriminator in this workspace exists twice — as the float
//! reference implementation (feature pipeline + `f32` student network)
//! and as the bit-accurate Q16.16 model of the deployed FPGA datapath.
//! [`Backend`] makes that duality a value: each inference operation has
//! one entry point that takes the backend as an argument
//! ([`crate::KlinqDiscriminator::measure_on`] /
//! [`crate::KlinqDiscriminator::fidelity_on`],
//! [`crate::BatchDiscriminator::classify_shot_on`] /
//! [`crate::BatchDiscriminator::classify_shots_on`] /
//! [`crate::BatchDiscriminator::evaluate_on`],
//! [`crate::KlinqSystem::measure_on`] /
//! [`crate::KlinqSystem::evaluate_on`]).
//!
//! Backend choice is *data*, not code: a serving front end (see the
//! `klinq-serve` crate) can route each request batch to either datapath
//! from its configuration, and the choice serializes with the rest of a
//! request or experiment description.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which datapath executes an inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Backend {
    /// The float reference path: fitted feature pipeline feeding the
    /// distilled `f32` student network.
    #[default]
    Float,
    /// The bit-accurate Q16.16 model of the compiled FPGA datapath.
    Hardware,
}

impl Backend {
    /// Both backends, float first — convenient for exhaustive tests and
    /// comparisons.
    pub const ALL: [Backend; 2] = [Backend::Float, Backend::Hardware];

    /// `true` for the Q16.16 hardware datapath.
    pub fn is_hardware(self) -> bool {
        matches!(self, Backend::Hardware)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Float => "float",
            Backend::Hardware => "hardware",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_float() {
        assert_eq!(Backend::default(), Backend::Float);
        assert!(!Backend::Float.is_hardware());
        assert!(Backend::Hardware.is_hardware());
    }

    #[test]
    fn display_names() {
        assert_eq!(Backend::Float.to_string(), "float");
        assert_eq!(Backend::Hardware.to_string(), "hardware");
    }

    #[test]
    fn all_lists_both_once() {
        assert_eq!(Backend::ALL, [Backend::Float, Backend::Hardware]);
    }

    #[test]
    fn serde_round_trip() {
        for b in Backend::ALL {
            let json = serde_json::to_string(&b).unwrap();
            let back: Backend = serde_json::from_str(&json).unwrap();
            assert_eq!(back, b);
        }
    }
}
