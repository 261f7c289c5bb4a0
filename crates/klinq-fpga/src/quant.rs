//! Q16.16 quantization of trained network layers.

use klinq_fixed::{dot_wide, dot_wide_2x4, Q16_16, WideAccumulator};
use klinq_nn::{Activation, Dense};
use serde::{Deserialize, Serialize};

/// A dense layer with weights and biases quantized to Q16.16, executing
/// exactly as the FPGA datapath: full-precision DSP products reduced
/// through a wide-accumulator adder tree with the bias, renormalized with
/// saturation, then a sign-bit ReLU.
///
/// The weights are stored as one flat row-major buffer (one contiguous
/// row per neuron), so the MAC loops stream the layer without pointer
/// chasing. [`Self::forward`] runs one input vector; the batched engine
/// runs [`Self::forward_x4`], which walks each pair of rows once for the
/// four lanes of a block. Both sum every neuron's products and bias in
/// one wrapping `i64` accumulator, so they agree bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedDense {
    /// Flat row-major weights: neuron `j`'s row at
    /// `[j * input_dim, (j + 1) * input_dim)`.
    weights: Vec<Q16_16>,
    input_dim: usize,
    bias: Vec<Q16_16>,
    relu: bool,
}

impl QuantizedDense {
    /// Quantizes a trained float layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer uses an activation other than ReLU or identity
    /// (sigmoid never appears in the deployed students).
    pub fn from_dense(layer: &Dense) -> Self {
        let relu = match layer.activation() {
            Activation::Relu => true,
            Activation::Identity => false,
            Activation::Sigmoid => {
                panic!("sigmoid layers are not supported by the FPGA datapath")
            }
        };
        let weights = layer
            .weights()
            .data()
            .iter()
            .map(|&w| Q16_16::from_f32(w))
            .collect();
        let bias = layer.bias().iter().map(|&b| Q16_16::from_f32(b)).collect();
        Self {
            weights,
            input_dim: layer.input_dim(),
            bias,
            relu,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width (neuron count).
    pub fn output_dim(&self) -> usize {
        self.bias.len()
    }

    /// `true` if the layer applies the hardware ReLU.
    pub fn is_relu(&self) -> bool {
        self.relu
    }

    /// Executes the layer. Returns the output activations and the number
    /// of neurons whose accumulator overflowed Q16.16 (and saturated).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()` or the output buffer is the
    /// wrong size.
    pub fn forward(&self, x: &[Q16_16], out: &mut [Q16_16]) -> usize {
        assert_eq!(x.len(), self.input_dim(), "quantized layer input mismatch");
        assert_eq!(out.len(), self.output_dim(), "quantized layer output mismatch");
        let mut overflows = 0;
        for ((o, row), &b) in out
            .iter_mut()
            .zip(self.weights.chunks_exact(self.input_dim))
            .zip(&self.bias)
        {
            let overflow;
            (*o, overflow) = self.activate(dot_wide(row, x), b);
            overflows += usize::from(overflow);
        }
        overflows
    }

    /// Executes the layer for the four lanes of a batch block at once.
    /// `x` holds the lanes' input vectors back to back (lane `l` at
    /// `[l * input_dim, (l + 1) * input_dim)`), and `out` receives their
    /// outputs the same way. Returns each lane's overflow count.
    ///
    /// Lane `l` is bitwise-identical to [`Self::forward`] on that lane's
    /// vector: each neuron pair runs as one [`dot_wide_2x4`] tile (an odd
    /// last neuron as four [`dot_wide`]s), and every accumulator is a
    /// wrapping `i64` sum, so the order of its products cannot change a
    /// bit. The bias, the checked write-back and the ReLU are
    /// [`Self::forward`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 4 * self.input_dim()` or
    /// `out.len() != 4 * self.output_dim()`.
    pub fn forward_x4(&self, x: &[Q16_16], out: &mut [Q16_16]) -> [usize; 4] {
        let (n, m) = (self.input_dim, self.output_dim());
        assert_eq!(x.len(), 4 * n, "quantized layer input mismatch");
        assert_eq!(out.len(), 4 * m, "quantized layer output mismatch");
        let lanes: [&[Q16_16]; 4] = std::array::from_fn(|l| &x[l * n..(l + 1) * n]);
        let mut overflows = [0; 4];
        // Neurons in blocks of up to 16: the tiles' accumulators are staged
        // lane-major on the stack, so each lane's write-back is one
        // contiguous loop that vectorizes.
        const BLOCK: usize = 16;
        let blocks = self.weights.chunks(BLOCK * n).zip(self.bias.chunks(BLOCK));
        for (first, (rows, bias)) in (0..).step_by(BLOCK).zip(blocks) {
            let mut acc = [[WideAccumulator::new(); BLOCK]; 4];
            let pairs = rows.chunks_exact(2 * n);
            let last = pairs.remainder();
            for (j, pair) in (0..).step_by(2).zip(pairs) {
                let [even, odd] = dot_wide_2x4([&pair[..n], &pair[n..]], lanes);
                for (acc, (e, o)) in acc.iter_mut().zip(even.into_iter().zip(odd)) {
                    (acc[j], acc[j + 1]) = (e, o);
                }
            }
            if !last.is_empty() {
                for (acc, x) in acc.iter_mut().zip(lanes) {
                    acc[bias.len() - 1] = dot_wide(last, x);
                }
            }
            for (l, (acc, overflow)) in acc.iter().zip(&mut overflows).enumerate() {
                let row = &mut out[l * m + first..][..bias.len()];
                for ((o, &acc), &b) in row.iter_mut().zip(acc).zip(bias) {
                    let flagged;
                    (*o, flagged) = self.activate(acc, b);
                    *overflow += usize::from(flagged);
                }
            }
        }
        overflows
    }

    /// One neuron's write-back: the bias joins the accumulator, which is
    /// renormalized (saturating, and reported, on overflow) and passed
    /// through the ReLU. Returns the activation and whether it overflowed.
    #[inline]
    fn activate(&self, mut acc: WideAccumulator, bias: Q16_16) -> (Q16_16, bool) {
        acc.merge(WideAccumulator::from_fixed(bias));
        let (v, overflow) = acc.to_fixed_flagged();
        (if self.relu { v.relu() } else { v }, overflow)
    }
}

/// Quantizes an `f32` feature vector into a Q16.16 buffer.
pub fn quantize_vec(x: &[f32]) -> Vec<Q16_16> {
    x.iter().map(|&v| Q16_16::from_f32(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use klinq_nn::Matrix;

    fn float_layer() -> Dense {
        let w = Matrix::from_vec(2, 3, vec![0.5, -1.25, 2.0, 0.125, 0.0, -0.5]);
        Dense::from_parts(w, vec![0.25, -0.75], Activation::Relu)
    }

    #[test]
    fn quantized_matches_float_on_grid_values() {
        let layer = float_layer();
        let q = QuantizedDense::from_dense(&layer);
        assert_eq!(q.input_dim(), 3);
        assert_eq!(q.output_dim(), 2);
        assert!(q.is_relu());

        let x = [1.0f32, 2.0, -0.5];
        let mut fl_out = [0.0f32; 2];
        layer.forward_single(&x, &mut fl_out);

        let xq = quantize_vec(&x);
        let mut q_out = [Q16_16::ZERO; 2];
        let ov = q.forward(&xq, &mut q_out);
        assert_eq!(ov, 0);
        for (a, b) in q_out.iter().zip(&fl_out) {
            assert!((a.to_f32() - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quantization_error_is_bounded_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::new(31, 16, Activation::Relu, &mut rng);
        let q = QuantizedDense::from_dense(&layer);
        for _ in 0..50 {
            let x: Vec<f32> = (0..31).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let mut fl = vec![0.0f32; 16];
            layer.forward_single(&x, &mut fl);
            let mut qo = vec![Q16_16::ZERO; 16];
            q.forward(&quantize_vec(&x), &mut qo);
            for (a, b) in qo.iter().zip(&fl) {
                // 31 products, each with ≤ 2^-16 input representation
                // error scaled by |w| ≤ sqrt(6/31): comfortably < 1e-3.
                assert!((a.to_f32() - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn overflow_is_reported_and_saturates() {
        let w = Matrix::from_vec(1, 2, vec![30000.0, 30000.0]);
        let layer = Dense::from_parts(w, vec![0.0], Activation::Identity);
        let q = QuantizedDense::from_dense(&layer);
        let x = quantize_vec(&[30000.0, 30000.0]);
        let mut out = [Q16_16::ZERO; 1];
        let ov = q.forward(&x, &mut out);
        assert_eq!(ov, 1);
        assert_eq!(out[0], Q16_16::MAX);
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let layer = float_layer();
        let q = QuantizedDense::from_dense(&layer);
        // Drive neuron 0 negative: 0.5x0 with x0 very negative.
        let x = quantize_vec(&[-100.0, 0.0, 0.0]);
        let mut out = [Q16_16::ZERO; 2];
        q.forward(&x, &mut out);
        assert_eq!(out[0], Q16_16::ZERO);
    }

    #[test]
    #[should_panic(expected = "sigmoid layers are not supported")]
    fn sigmoid_rejected() {
        let w = Matrix::from_vec(1, 1, vec![1.0]);
        let layer = Dense::from_parts(w, vec![0.0], Activation::Sigmoid);
        let _ = QuantizedDense::from_dense(&layer);
    }

    #[test]
    #[should_panic(expected = "input mismatch")]
    fn forward_checks_dims() {
        let q = QuantizedDense::from_dense(&float_layer());
        let mut out = [Q16_16::ZERO; 2];
        q.forward(&quantize_vec(&[0.0]), &mut out);
    }
}
