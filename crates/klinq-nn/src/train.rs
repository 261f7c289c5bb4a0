//! Mini-batch training loops for supervised and distillation objectives.

use crate::loss::{accuracy, bce_with_logits, distill_loss, DistillParams};
use crate::matrix::Matrix;
use crate::network::Fnn;
use crate::optim::{Adam, Optimizer, Sgd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A labelled binary-classification dataset (features + 0/1 targets).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Matrix,
    y: Vec<f32>,
}

/// Error constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No samples were provided.
    Empty,
    /// Feature and label counts differ.
    LabelCountMismatch {
        /// Number of feature rows.
        features: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Feature rows are ragged.
    RaggedRows,
    /// A label is outside {0, 1} (within tolerance).
    InvalidLabel(usize),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "dataset has no samples"),
            Self::LabelCountMismatch { features, labels } => {
                write!(f, "feature rows ({features}) and labels ({labels}) differ")
            }
            Self::RaggedRows => write!(f, "feature rows have inconsistent dimensions"),
            Self::InvalidLabel(i) => write!(f, "label at index {i} is not 0 or 1"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds from feature rows and binary labels.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] on empty input, ragged rows, mismatched
    /// label count, or non-binary labels.
    pub fn from_rows(rows: &[Vec<f32>], labels: &[f32]) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DatasetError::LabelCountMismatch {
                features: rows.len(),
                labels: labels.len(),
            });
        }
        let dim = rows[0].len();
        if rows.iter().any(|r| r.len() != dim) {
            return Err(DatasetError::RaggedRows);
        }
        for (i, &y) in labels.iter().enumerate() {
            if !(y == 0.0 || y == 1.0) {
                return Err(DatasetError::InvalidLabel(i));
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Ok(Self {
            x: Matrix::from_rows(&refs),
            y: labels.to_vec(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` if the dataset has no samples (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// The feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.x
    }

    /// The labels.
    pub fn labels(&self) -> &[f32] {
        &self.y
    }

    /// Extracts the rows at `indices` as a `(features, labels)` batch.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Matrix, Vec<f32>) {
        let rows: Vec<&[f32]> = indices.iter().map(|&i| self.x.row(i)).collect();
        let labels: Vec<f32> = indices.iter().map(|&i| self.y[i]).collect();
        (Matrix::from_rows(&rows), labels)
    }
}

/// Which optimizer a [`TrainConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// SGD with the given momentum.
    Sgd {
        /// Classical momentum coefficient in `[0, 1)`.
        momentum: f32,
    },
    /// Adam with default betas.
    Adam,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Optimizer learning rate.
    pub learning_rate: f32,
    /// L2 weight decay applied to weight matrices (never biases).
    /// Essential for the raw-trace teacher, whose input dimension rivals
    /// the shot count.
    pub weight_decay: f32,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
    /// Shuffle seed (training is fully deterministic given the seed).
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 64,
            learning_rate: 1e-3,
            weight_decay: 0.0,
            optimizer: OptimizerKind::Adam,
            shuffle_seed: 0,
        }
    }
}

impl TrainConfig {
    fn make_optimizer(&self) -> Box<dyn Optimizer> {
        match self.optimizer {
            OptimizerKind::Sgd { momentum } => {
                Box::new(Sgd::new(self.learning_rate).with_momentum(momentum))
            }
            OptimizerKind::Adam => Box::new(Adam::new(self.learning_rate)),
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub final_train_accuracy: f64,
}

impl TrainReport {
    /// Loss of the final epoch (NaN if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Trains `net` on `data` with binary cross-entropy.
///
/// # Panics
///
/// Panics if the dataset dimension differs from the network input
/// dimension, or the network is not single-output.
pub fn train_supervised(net: &mut Fnn, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    train_inner(net, data, cfg, None)
}

/// Trains `net` with the KLiNQ distillation objective.
///
/// `teacher_logits[i]` must be the teacher's logit for sample `i` of
/// `data`, computed once by the caller (the teacher is frozen during
/// distillation).
///
/// # Panics
///
/// Panics if `teacher_logits.len() != data.len()` or on the same dimension
/// mismatches as [`train_supervised`].
pub fn train_distilled(
    net: &mut Fnn,
    data: &Dataset,
    teacher_logits: &[f32],
    params: DistillParams,
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(
        teacher_logits.len(),
        data.len(),
        "teacher logits must cover the training set"
    );
    train_inner(net, data, cfg, Some((teacher_logits, params)))
}

fn train_inner(
    net: &mut Fnn,
    data: &Dataset,
    cfg: &TrainConfig,
    distill: Option<(&[f32], DistillParams)>,
) -> TrainReport {
    assert_eq!(
        data.dim(),
        net.input_dim(),
        "dataset dimension {} does not match network input {}",
        data.dim(),
        net.input_dim()
    );
    assert_eq!(net.output_dim(), 1, "training requires a single-output network");
    assert!(cfg.epochs > 0, "epochs must be positive");
    assert!(cfg.batch_size > 0, "batch size must be positive");

    let mut opt = cfg.make_optimizer();
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
    let mut indices: Vec<usize> = (0..data.len()).collect();
    let batch_size = cfg.batch_size.min(data.len());
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for _ in 0..cfg.epochs {
        indices.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in indices.chunks(batch_size) {
            let (bx, by) = data.batch(chunk);
            let trace = net.forward_trace(&bx);
            let logits: Vec<f32> = trace.output().data().to_vec();
            let (loss, grad) = match distill {
                None => bce_with_logits(&logits, &by),
                Some((teacher, params)) => {
                    let bt: Vec<f32> = chunk.iter().map(|&i| teacher[i]).collect();
                    distill_loss(&logits, &bt, &by, params)
                }
            };
            let grad_m = Matrix::from_vec(grad.len(), 1, grad);
            let mut grads = net.backward(&trace, &grad_m);
            if cfg.weight_decay > 0.0 {
                for (g, layer) in grads.iter_mut().zip(net.layers()) {
                    for (gw, &w) in g.weights.data_mut().iter_mut().zip(layer.weights().data()) {
                        *gw += cfg.weight_decay * w;
                    }
                }
            }
            net.apply_grads(&grads, opt.as_mut());
            epoch_loss += loss as f64;
            batches += 1;
        }
        epoch_losses.push((epoch_loss / batches.max(1) as f64) as f32);
    }

    let final_train_accuracy = evaluate_accuracy(net, data);
    TrainReport {
        epoch_losses,
        final_train_accuracy,
    }
}

/// Classification accuracy of `net` on `data`.
///
/// # Panics
///
/// Panics if dimensions mismatch.
pub fn evaluate_accuracy(net: &Fnn, data: &Dataset) -> f64 {
    let logits = net.logits_batch(data.features());
    accuracy(&logits, data.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::network::FnnBuilder;

    /// Two well-separated Gaussian-ish blobs in 2D (deterministic).
    fn blobs(n: usize) -> Dataset {
        let mut rows = Vec::with_capacity(2 * n);
        let mut labels = Vec::with_capacity(2 * n);
        for k in 0..n {
            let jitter = ((k * 37 % 17) as f32 - 8.0) * 0.05;
            rows.push(vec![1.5 + jitter, 1.0 - jitter]);
            labels.push(1.0);
            rows.push(vec![-1.5 - jitter, -1.0 + jitter]);
            labels.push(0.0);
        }
        Dataset::from_rows(&rows, &labels).unwrap()
    }

    fn classifier(seed: u64) -> Fnn {
        FnnBuilder::new(2)
            .hidden(8, Activation::Relu)
            .output(1)
            .seed(seed)
            .build()
    }

    #[test]
    fn dataset_validation() {
        assert_eq!(Dataset::from_rows(&[], &[]), Err(DatasetError::Empty));
        assert_eq!(
            Dataset::from_rows(&[vec![0.0]], &[]),
            Err(DatasetError::LabelCountMismatch {
                features: 1,
                labels: 0
            })
        );
        assert_eq!(
            Dataset::from_rows(&[vec![0.0], vec![0.0, 1.0]], &[0.0, 1.0]),
            Err(DatasetError::RaggedRows)
        );
        assert_eq!(
            Dataset::from_rows(&[vec![0.0]], &[0.5]),
            Err(DatasetError::InvalidLabel(0))
        );
        let err = DatasetError::RaggedRows;
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn dataset_accessors_and_batching() {
        let d = blobs(4);
        assert_eq!(d.len(), 8);
        assert!(!d.is_empty());
        assert_eq!(d.dim(), 2);
        let (bx, by) = d.batch(&[0, 3, 5]);
        assert_eq!(bx.rows(), 3);
        assert_eq!(by.len(), 3);
        assert_eq!(bx.row(0), d.features().row(0));
        assert_eq!(by[1], d.labels()[3]);
    }

    #[test]
    fn supervised_training_learns_blobs() {
        let data = blobs(64);
        let mut net = classifier(3);
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 16,
            learning_rate: 0.01,
            ..TrainConfig::default()
        };
        let report = train_supervised(&mut net, &data, &cfg);
        // klinq-lint: allow(stat-floor-locality) klinq-nn sits upstream of klinq-core and cannot import its stat_floors; NN-local training floor
        assert!(report.final_train_accuracy > 0.98, "{report:?}");
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn sgd_also_learns() {
        let data = blobs(64);
        let mut net = classifier(5);
        let cfg = TrainConfig {
            epochs: 80,
            batch_size: 16,
            learning_rate: 0.05,
            optimizer: OptimizerKind::Sgd { momentum: 0.9 },
            ..TrainConfig::default()
        };
        let report = train_supervised(&mut net, &data, &cfg);
        // klinq-lint: allow(stat-floor-locality) klinq-nn sits upstream of klinq-core and cannot import its stat_floors; NN-local training floor
        assert!(report.final_train_accuracy > 0.95, "{report:?}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs(32);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut a = classifier(1);
        let mut b = classifier(1);
        let ra = train_supervised(&mut a, &data, &cfg);
        let rb = train_supervised(&mut b, &data, &cfg);
        assert_eq!(a, b);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
    }

    #[test]
    fn distillation_transfers_teacher_behaviour() {
        let data = blobs(64);
        // Train a "teacher".
        let mut teacher = FnnBuilder::new(2)
            .hidden(16, Activation::Relu)
            .hidden(8, Activation::Relu)
            .output(1)
            .seed(11)
            .build();
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 16,
            learning_rate: 0.01,
            ..TrainConfig::default()
        };
        train_supervised(&mut teacher, &data, &cfg);
        let teacher_logits = teacher.logits_batch(data.features());

        // Distill into a smaller student.
        let mut student = FnnBuilder::new(2)
            .hidden(4, Activation::Relu)
            .output(1)
            .seed(12)
            .build();
        let report = train_distilled(
            &mut student,
            &data,
            &teacher_logits,
            DistillParams::default(),
            &cfg,
        );
        // klinq-lint: allow(stat-floor-locality) klinq-nn sits upstream of klinq-core and cannot import its stat_floors; NN-local training floor
        assert!(report.final_train_accuracy > 0.95, "{report:?}");
    }

    #[test]
    #[should_panic(expected = "teacher logits must cover")]
    fn distillation_checks_logit_count() {
        let data = blobs(8);
        let mut net = classifier(0);
        let _ = train_distilled(
            &mut net,
            &data,
            &[0.0; 3],
            DistillParams::default(),
            &TrainConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "does not match network input")]
    fn training_checks_dimensions() {
        let data = blobs(8);
        let mut net = FnnBuilder::new(3).output(1).build();
        let _ = train_supervised(&mut net, &data, &TrainConfig::default());
    }

    #[test]
    fn weight_decay_shrinks_weight_norms() {
        let data = blobs(64);
        let cfg_plain = TrainConfig {
            epochs: 60,
            batch_size: 16,
            learning_rate: 0.01,
            ..TrainConfig::default()
        };
        let cfg_decay = TrainConfig {
            weight_decay: 0.01,
            ..cfg_plain
        };
        let mut plain = classifier(6);
        let mut decayed = classifier(6);
        train_supervised(&mut plain, &data, &cfg_plain);
        train_supervised(&mut decayed, &data, &cfg_decay);
        let norm = |net: &Fnn| -> f32 {
            net.layers()
                .iter()
                .map(|l| l.weights().frobenius_norm())
                .sum()
        };
        assert!(norm(&decayed) < norm(&plain));
        // Biases are untouched by decay in expectation: the decayed model
        // still learns the task.
        // klinq-lint: allow(stat-floor-locality) klinq-nn sits upstream of klinq-core and cannot import its stat_floors; NN-local training floor
        assert!(evaluate_accuracy(&decayed, &data) > 0.9);
    }

    #[test]
    fn batch_size_larger_than_dataset_is_clamped() {
        let data = blobs(4);
        let mut net = classifier(2);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 1000,
            ..TrainConfig::default()
        };
        let report = train_supervised(&mut net, &data, &cfg);
        assert_eq!(report.epoch_losses.len(), 2);
    }
}
