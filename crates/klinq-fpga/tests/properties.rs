//! Property-based tests for the FPGA datapath models.

use klinq_dsp::{FeaturePipeline, FeatureSpec, TraceBatch};
use klinq_fpga::latency::{adder_tree_stages, avg_norm_stages, ceil_log2, network_stages};
use klinq_fpga::quant::{quantize_vec, QuantizedDense};
use klinq_fpga::resources::{avg_norm_resources, mf_resources, network_resources};
use klinq_fpga::{FpgaDiscriminator, HwBatchScratch};
use klinq_fixed::Q16_16;
use klinq_nn::network::FnnBuilder;
use klinq_nn::{Activation, Dense, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Owned (i, q) trace pairs.
type Traces = Vec<(Vec<f32>, Vec<f32>)>;

/// `n` synthetic trace pairs of `len` samples around one class level,
/// varied per trace so every feature has a spread to normalize.
fn class_traces(level: f32, n: usize, len: usize) -> Traces {
    (0..n)
        .map(|k| {
            let jitter = 0.1 * ((k * 13 % 9) as f32 - 4.0);
            let i = (0..len)
                .map(|t| level + jitter + 0.3 * ((t * 7 + k) % 11) as f32 / 11.0)
                .collect();
            let q = (0..len)
                .map(|t| -0.5 * level - jitter + 0.2 * ((t * 5 + k) % 7) as f32 / 7.0)
                .collect();
            (i, q)
        })
        .collect()
}

fn refs(t: &Traces) -> Vec<(&[f32], &[f32])> {
    t.iter().map(|(i, q)| (&i[..], &q[..])).collect()
}

/// A design with `m` averages per channel compiled at `samples` samples
/// over a seeded, untrained student: the kernel's contract holds for any
/// weights.
fn design(m: usize, samples: usize) -> FpgaDiscriminator {
    let (ground, excited) = (
        class_traces(1.0, 24, samples),
        class_traces(-1.0, 24, samples),
    );
    let spec = FeatureSpec {
        avg_outputs_per_channel: m,
    };
    let pipeline = FeaturePipeline::fit(spec, &refs(&ground), &refs(&excited)).unwrap();
    let net = FnnBuilder::new(spec.input_dim())
        .hidden(16, Activation::Relu)
        .hidden(8, Activation::Relu)
        .output(1)
        .seed(m as u64)
        .build();
    FpgaDiscriminator::compile(&net, &pipeline, samples).unwrap()
}

/// FNN-A's layout (15 averages per channel) at 60 design samples and
/// FNN-B's (100) at 150, each with its `m` and design length.
fn designs() -> &'static [(FpgaDiscriminator, usize, usize); 2] {
    static DESIGNS: OnceLock<[(FpgaDiscriminator, usize, usize); 2]> = OnceLock::new();
    DESIGNS.get_or_init(|| [(design(15, 60), 15, 60), (design(100, 150), 100, 150)])
}

proptest! {
    #[test]
    fn ceil_log2_bounds(n in 1usize..1_000_000) {
        let e = ceil_log2(n);
        prop_assert!(1usize << e >= n);
        if e > 0 {
            prop_assert!(1usize << (e - 1) < n);
        }
    }

    #[test]
    fn adder_tree_monotone(a in 1usize..4096, b in 1usize..4096) {
        if a <= b {
            prop_assert!(adder_tree_stages(a) <= adder_tree_stages(b));
        }
    }

    #[test]
    fn avg_norm_latency_within_one_of_tree_depth(group in 1usize..512) {
        let stages = avg_norm_stages(group);
        // Structure: tree + optional shift + register + 2 norm stages.
        let lo = ceil_log2(group) + 3;
        prop_assert!(stages >= lo && stages <= lo + 1);
    }

    #[test]
    fn network_stages_sum_layerwise(
        dims in prop::collection::vec(1usize..256, 1..5)
    ) {
        let total = network_stages(&dims);
        let manual: u32 = dims.iter().map(|&n| network_stages(&[n])).sum();
        prop_assert_eq!(total, manual);
    }

    #[test]
    fn resources_scale_monotonically(a in 1usize..2000, b in 1usize..2000) {
        if a <= b {
            prop_assert!(mf_resources(a).lut <= mf_resources(b).lut);
            prop_assert!(mf_resources(a).dsp <= mf_resources(b).dsp);
            prop_assert!(avg_norm_resources(a, 10).lut <= avg_norm_resources(b, 10).lut);
            prop_assert!(
                network_resources(&[a], a * 8).lut <= network_resources(&[b], b * 8).lut
            );
        }
    }

    /// Quantized layer output tracks the float layer within the error
    /// budget of 16 fractional bits, for bounded weights and inputs.
    #[test]
    fn quantized_layer_tracks_float(
        weights in prop::collection::vec(-2.0f32..2.0, 12),
        bias in prop::collection::vec(-1.0f32..1.0, 4),
        input in prop::collection::vec(-8.0f32..8.0, 3)
    ) {
        let w = Matrix::from_vec(4, 3, weights);
        let layer = Dense::from_parts(w, bias, Activation::Relu);
        let q = QuantizedDense::from_dense(&layer);
        let mut float_out = [0.0f32; 4];
        layer.forward_single(&input, &mut float_out);
        let xq = quantize_vec(&input);
        let mut q_out = [klinq_fixed::Q16_16::ZERO; 4];
        let overflows = q.forward(&xq, &mut q_out);
        prop_assert_eq!(overflows, 0);
        for (a, b) in q_out.iter().zip(&float_out) {
            // 3 products, each within ~|w|·2^-16 of exact, plus one
            // rounding of the sum.
            prop_assert!((a.to_f32() - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// The hardware ReLU never emits negative values regardless of input.
    #[test]
    fn quantized_relu_output_is_nonnegative(
        weights in prop::collection::vec(-100.0f32..100.0, 8),
        input in prop::collection::vec(-100.0f32..100.0, 4)
    ) {
        let w = Matrix::from_vec(2, 4, weights);
        let layer = Dense::from_parts(w, vec![0.0; 2], Activation::Relu);
        let q = QuantizedDense::from_dense(&layer);
        let mut out = [klinq_fixed::Q16_16::ZERO; 2];
        q.forward(&quantize_vec(&input), &mut out);
        for v in out {
            prop_assert!(!v.is_negative());
        }
    }

    /// The four-lane kernel equals the per-shot inference on every lane,
    /// logit and overflow count included, with each lane at its own
    /// length from `m` to twice the design length — averaging groups of
    /// one, odd and power-of-two groups, traces shorter and longer than
    /// the matched-filter envelope — and samples that saturate the ADC
    /// (±1e6, ±inf) or are NaN. The `TraceBatch` adapter equals the
    /// kernel on the lanes cut to their common length.
    #[test]
    fn infer_quad_with_matches_infer_detailed_per_lane(
        which in 0usize..2,
        lens in prop::collection::vec(0usize..1 << 16, 4),
        seed in any::<u64>()
    ) {
        let (hw, m, samples) = &designs()[which];
        let mut rng = StdRng::seed_from_u64(seed);
        const LOUD: [f32; 5] = [1e6, -1e6, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut sample = || {
            if rng.gen_range(0..16u32) == 0 {
                LOUD[rng.gen_range(0..5u32) as usize]
            } else {
                rng.gen_range(-3.0f32..3.0)
            }
        };
        let traces: Traces = lens
            .iter()
            .map(|&x| {
                let len = m + x % (2 * samples - m + 1);
                ((0..len).map(|_| sample()).collect(), (0..len).map(|_| sample()).collect())
            })
            .collect();
        let lanes: [(&[f32], &[f32]); 4] =
            std::array::from_fn(|l| (&traces[l].0[..], &traces[l].1[..]));
        let mut scratch = HwBatchScratch::new();
        let details = hw.infer_quad_with(lanes, &mut scratch);
        for (l, (i, q)) in lanes.iter().enumerate() {
            prop_assert_eq!(
                details[l],
                hw.infer_detailed(i, q),
                "lane {} of {} samples",
                l,
                i.len()
            );
        }
        let common = lanes.iter().map(|(i, _)| i.len()).min().unwrap();
        let cut = lanes.map(|(i, q)| (&i[..common], &q[..common]));
        let mut batch = TraceBatch::new();
        prop_assert!(batch.gather(cut));
        prop_assert_eq!(
            hw.infer_batch_with(&batch, &mut scratch),
            hw.infer_quad_with(cut, &mut scratch)
        );
    }

    /// The four-lane layer kernel equals the per-lane `forward`, bit for
    /// bit: every output and every lane's overflow count, over input
    /// widths 1–210, odd and even output widths, and values up to
    /// ±30000, so the wide accumulators overflow and wrap.
    #[test]
    fn forward_x4_matches_forward_per_lane(
        n in 1usize..=210,
        width in 0usize..5,
        relu in prop::bool::ANY,
        seed in any::<u64>()
    ) {
        let m = [1, 3, 5, 8, 16][width];
        let mut rng = StdRng::seed_from_u64(seed);
        // Magnitudes from one ulp-ish to 30000, both signs.
        let mut value = || rng.gen_range(-30000.0f32..30000.0) / (1u32 << rng.gen_range(0..24u32)) as f32;
        let weights = Matrix::from_vec(m, n, (0..m * n).map(|_| value()).collect());
        let bias = (0..m).map(|_| value()).collect();
        let activation = if relu { Activation::Relu } else { Activation::Identity };
        let layer = QuantizedDense::from_dense(&Dense::from_parts(weights, bias, activation));
        let x: Vec<Q16_16> = (0..4 * n).map(|_| Q16_16::from_f32(value())).collect();
        let mut out = vec![Q16_16::ZERO; 4 * m];
        let overflows = layer.forward_x4(&x, &mut out);
        for l in 0..4 {
            let mut want = vec![Q16_16::ZERO; m];
            let want_overflows = layer.forward(&x[l * n..(l + 1) * n], &mut want);
            prop_assert_eq!(&out[l * m..(l + 1) * m], &want[..], "lane {} of {}x{}", l, n, m);
            prop_assert_eq!(overflows[l], want_overflows, "lane {} of {}x{}", l, n, m);
        }
    }
}
