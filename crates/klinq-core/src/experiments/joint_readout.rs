//! Joint vs independent readout: the Table I footnotes and the paper's
//! Discussion quantified.
//!
//! The paper's footnotes report the *synchronous five-qubit* versions of
//! the comparators (Baseline FNN F5Q 0.912, HERQULES 0.927) — both above
//! their independent adaptations — and the Discussion attributes the gap
//! to crosstalk: "separating the readouts without accounting for
//! inter-qubit influences inevitably leads to a reduction in fidelity."
//! This experiment measures that same gap on the simulator: a joint
//! network sees the neighbours' traces and can cancel their interference;
//! the independent discriminators cannot.

use crate::backend::Backend;
use crate::discriminator::KlinqSystem;
use crate::error::KlinqError;
use crate::experiments::ExperimentConfig;
use crate::joint::{JointConfig, JointDiscriminator};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Paper reference points: joint (synchronous) geometric means from the
/// Table I footnotes.
pub const PAPER_JOINT_BASELINE_F5Q: f64 = 0.912;
/// HERQULES as originally configured for a five-qubit system.
pub const PAPER_JOINT_HERQULES_F5Q: f64 = 0.927;

/// Measured joint-vs-independent comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointComparison {
    /// Joint five-qubit network, per qubit.
    pub joint_per_qubit: Vec<f64>,
    /// Joint five-qubit geometric mean.
    pub joint_f5q: f64,
    /// Independent Baseline FNN (the teachers), per qubit.
    pub independent_per_qubit: Vec<f64>,
    /// Independent Baseline FNN geometric mean.
    pub independent_f5q: f64,
    /// KLiNQ (independent, distilled) geometric mean for context.
    pub klinq_f5q: f64,
}

impl JointComparison {
    /// The crosstalk-compensation gain of synchronous readout.
    pub fn joint_advantage(&self) -> f64 {
        self.joint_f5q - self.independent_f5q
    }
}

/// Runs the comparison on a freshly trained system.
///
/// # Errors
///
/// Returns [`KlinqError`] if training fails.
pub fn run(config: &ExperimentConfig) -> Result<JointComparison, KlinqError> {
    let system = KlinqSystem::train(config)?;
    run_with_system(&system, config)
}

/// Runs against an existing system (reuses its data and teachers).
///
/// # Errors
///
/// Returns [`KlinqError`] if the joint network fails to train.
pub fn run_with_system(
    system: &KlinqSystem,
    config: &ExperimentConfig,
) -> Result<JointComparison, KlinqError> {
    // Match the joint network's budget to the experiment scale.
    let joint_cfg = if config.teacher.hidden.first().copied().unwrap_or(0) <= 32 {
        JointConfig::smoke()
    } else {
        JointConfig::reduced()
    };
    let joint = JointDiscriminator::train(&joint_cfg, system.train_data())?;
    let joint_report = joint.evaluate(system.test_data());
    let independent = system.evaluate_teachers();
    let klinq = system.evaluate_on(Backend::Float);
    Ok(JointComparison {
        joint_per_qubit: joint_report.per_qubit().to_vec(),
        joint_f5q: joint_report.geometric_mean(),
        independent_per_qubit: independent.per_qubit().to_vec(),
        independent_f5q: independent.geometric_mean(),
        klinq_f5q: klinq.geometric_mean(),
    })
}

impl fmt::Display for JointComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "Scheme", "Q1", "Q2", "Q3", "Q4", "Q5", "F5Q"
        )?;
        write!(f, "{:<28}", "Joint 5-qubit FNN")?;
        for q in &self.joint_per_qubit {
            write!(f, " {q:>7.3}")?;
        }
        writeln!(f, " {:>7.3}", self.joint_f5q)?;
        write!(f, "{:<28}", "Independent Baseline FNN")?;
        for q in &self.independent_per_qubit {
            write!(f, " {q:>7.3}")?;
        }
        writeln!(f, " {:>7.3}", self.independent_f5q)?;
        writeln!(
            f,
            "{:<28} {:>47.3}",
            "KLiNQ (independent)", self.klinq_f5q
        )?;
        writeln!(
            f,
            "joint advantage over independent baseline: {:+.3}",
            self.joint_advantage()
        )?;
        write!(
            f,
            "paper footnotes: joint baseline F5Q {PAPER_JOINT_BASELINE_F5Q}, joint HERQULES {PAPER_JOINT_HERQULES_F5Q}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_comparison_runs_and_reports() {
        let cmp =
            run_with_system(crate::testutil::smoke_system(), &ExperimentConfig::smoke()).unwrap();
        assert_eq!(cmp.joint_per_qubit.len(), 5);
        assert_eq!(cmp.independent_per_qubit.len(), 5);
        assert!(cmp.joint_f5q > 0.5 && cmp.joint_f5q <= 1.0);
        let s = cmp.to_string();
        assert!(s.contains("joint advantage"), "{s}");
    }
}
