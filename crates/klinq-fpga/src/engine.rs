//! The per-qubit FPGA discriminator: a bit-accurate Q16.16 datapath.
//!
//! [`FpgaDiscriminator::compile`] takes a trained student network plus its
//! fitted feature pipeline and produces the deployable fixed-point design:
//! quantized matched-filter envelopes, averaging unit, shift-based
//! normalizer (σ snapped to powers of two) and quantized dense layers.
//! Inference then follows exactly the hardware dataflow of the paper's
//! Fig. 3: average + normalize in parallel with the MF MAC, concatenate,
//! and run the fully connected pipeline to a single sign-checked logit.

use crate::latency::{avg_norm_stages, mf_stages, network_stages, Clock, LatencyReport};
use crate::quant::QuantizedDense;
use crate::resources::{avg_norm_resources, network_resources, Resources};
use klinq_dsp::{FeaturePipeline, TraceBatch};
use klinq_fixed::q16::FRAC_BITS;
use klinq_fixed::{dot_wide, shift_divide, Q16_16, WideAccumulator};
use klinq_nn::{Activation, Fnn};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error compiling a trained model onto the FPGA datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Network input dimension differs from the pipeline's feature count.
    DimensionMismatch {
        /// Features the pipeline produces.
        pipeline: usize,
        /// Inputs the network expects.
        network: usize,
    },
    /// The network uses an activation with no hardware mapping.
    UnsupportedActivation,
    /// The network has more than one output (the discriminator emits one
    /// logit).
    MultiOutput(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { pipeline, network } => write!(
                f,
                "pipeline produces {pipeline} features but the network expects {network}"
            ),
            Self::UnsupportedActivation => {
                write!(f, "only ReLU and identity activations map to the datapath")
            }
            Self::MultiOutput(n) => write!(f, "expected a single-logit network, got {n} outputs"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Detailed result of one hardware inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceDetail {
    /// `true` if the qubit was read as |1⟩ (logit sign bit clear and
    /// non-zero).
    pub excited: bool,
    /// The raw fixed-point logit.
    pub logit: Q16_16,
    /// Neuron accumulators that overflowed (and saturated) during this
    /// inference — nonzero values indicate the normalization failed to
    /// keep the dynamic range in check.
    pub overflow_count: usize,
}

/// Reusable fixed-point buffers for allocation-free hardware inference
/// ([`FpgaDiscriminator::infer_with`] /
/// [`FpgaDiscriminator::infer_detailed_with`]).
///
/// One scratch serves any number of compiled designs: buffers grow to the
/// largest trace/layer seen and are reused afterwards, so the per-shot
/// Q16.16 path performs zero heap allocations after warmup.
#[derive(Debug, Clone, Default)]
pub struct HwScratch {
    lane: LaneScratch,
    features: Vec<Q16_16>,
    work: Vec<Q16_16>,
}

/// Reusable fixed-point buffers for the four-lane Q16.16 kernel
/// ([`FpgaDiscriminator::infer_quad_with`]) and its [`TraceBatch`]
/// adapter ([`FpgaDiscriminator::infer_batch_with`]): the front end's
/// buffers for one channel of one lane (reused lane by lane), the two
/// buffers of lane rows (lane `l`'s vector at
/// `[l * width, (l + 1) * width)`) the fully connected stage ping-pongs
/// through, and the adapter's de-interleaved copy of a gathered block.
///
/// Like [`HwScratch`], one scratch serves any number of designs and
/// stops allocating once warm.
#[derive(Debug, Clone, Default)]
pub struct HwBatchScratch {
    lane: LaneScratch,
    lanes: Vec<Q16_16>,
    work: Vec<Q16_16>,
    traces: Vec<f32>,
}

/// The front end's buffers for one channel of one lane: its quantized
/// samples and its averaging groups' raw sums.
#[derive(Debug, Clone, Default)]
struct LaneScratch {
    samples: Vec<Q16_16>,
    sums: Vec<i64>,
}

impl HwBatchScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl HwScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A compiled per-qubit discriminator, bit-accurate to the FPGA design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpgaDiscriminator {
    outputs_per_channel: usize,
    design_group: usize,
    design_samples: usize,
    mf_env_i: Vec<Q16_16>,
    mf_env_q: Vec<Q16_16>,
    norm_min: Vec<Q16_16>,
    norm_exp: Vec<i32>,
    layers: Vec<QuantizedDense>,
    clock: Clock,
}

impl FpgaDiscriminator {
    /// Compiles a trained student and its feature pipeline for deployment
    /// at the given design trace length (`design_samples` per channel).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on dimension mismatches, multi-output
    /// networks, or activations without a hardware mapping.
    pub fn compile(
        net: &Fnn,
        pipeline: &FeaturePipeline,
        design_samples: usize,
    ) -> Result<Self, CompileError> {
        if net.input_dim() != pipeline.input_dim() {
            return Err(CompileError::DimensionMismatch {
                pipeline: pipeline.input_dim(),
                network: net.input_dim(),
            });
        }
        if net.output_dim() != 1 {
            return Err(CompileError::MultiOutput(net.output_dim()));
        }
        if net
            .layers()
            .iter()
            .any(|l| l.activation() == Activation::Sigmoid)
        {
            return Err(CompileError::UnsupportedActivation);
        }
        let shift_norm = pipeline.normalizer().to_shift();
        let quantize = |xs: &[f32]| xs.iter().map(|&v| Q16_16::from_f32(v)).collect::<Vec<_>>();
        Ok(Self {
            outputs_per_channel: pipeline.spec().avg_outputs_per_channel,
            design_group: pipeline.averager().group_size(design_samples),
            design_samples,
            mf_env_i: quantize(pipeline.filter().i_filter().envelope()),
            mf_env_q: quantize(pipeline.filter().q_filter().envelope()),
            norm_min: quantize(shift_norm.mins()),
            norm_exp: shift_norm.exponents().to_vec(),
            layers: net.layers().iter().map(QuantizedDense::from_dense).collect(),
            clock: Clock::default(),
        })
    }

    /// Replaces the stage clock used in latency reports.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Feature dimension of the compiled design.
    pub fn input_dim(&self) -> usize {
        2 * self.outputs_per_channel + 1
    }

    /// Design-time averaging group size (fixes the AVG&NORM pipeline
    /// structure, hence its latency).
    pub fn design_group(&self) -> usize {
        self.design_group
    }

    /// Runs one inference on raw I/Q samples, returning only the state.
    ///
    /// # Panics
    ///
    /// Panics if the traces are shorter than the averager output count or
    /// differ in length.
    pub fn infer(&self, i: &[f32], q: &[f32]) -> bool {
        self.infer_detailed(i, q).excited
    }

    /// Runs one inference through reusable scratch buffers — the
    /// zero-allocation form of [`Self::infer`], bitwise-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the traces are shorter than the averager output count or
    /// differ in length.
    pub fn infer_with(&self, i: &[f32], q: &[f32], scratch: &mut HwScratch) -> bool {
        self.infer_detailed_with(i, q, scratch).excited
    }

    /// Runs one inference with the full fixed-point detail.
    ///
    /// # Panics
    ///
    /// Panics if the traces are shorter than the averager output count or
    /// differ in length.
    pub fn infer_detailed(&self, i: &[f32], q: &[f32]) -> InferenceDetail {
        self.infer_detailed_with(i, q, &mut HwScratch::new())
    }

    /// Runs one detailed inference through reusable scratch buffers
    /// (zero-allocation form of [`Self::infer_detailed`],
    /// bitwise-identical to it).
    ///
    /// # Panics
    ///
    /// Panics if the traces are shorter than the averager output count or
    /// differ in length.
    pub fn infer_detailed_with(
        &self,
        i: &[f32],
        q: &[f32],
        scratch: &mut HwScratch,
    ) -> InferenceDetail {
        let dim = self.input_dim();
        self.front_end(i, q, &mut scratch.lane, grown(&mut scratch.features, dim));

        // Fully connected pipeline, ping-ponging the two scratch buffers;
        // each layer reads only its input width of the buffer before it.
        let (mut x, mut next) = (&mut scratch.features, &mut scratch.work);
        let mut width = dim;
        let mut overflow_count = 0;
        for layer in &self.layers {
            overflow_count += layer.forward(&x[..width], grown(next, layer.output_dim()));
            std::mem::swap(&mut x, &mut next);
            width = layer.output_dim();
        }
        detail(x[0], overflow_count)
    }

    /// Runs one inference per lane of a four-shot block, each lane on its
    /// own `(i, q)` traces — the batched form of
    /// [`Self::infer_detailed_with`] for the serving path.
    ///
    /// Each lane runs the same front end as the per-shot path, over its
    /// own contiguous samples and its own trace length (lanes need not
    /// match), and writes its feature row; then each dense layer runs
    /// once for all four rows ([`QuantizedDense::forward_x4`]), streaming
    /// its weights once per block instead of once per lane.
    ///
    /// Lane `l` is **bitwise-identical** to [`Self::infer_detailed`] on
    /// that lane's traces, logit and overflow count included: the front
    /// end is the per-shot one, and every neuron MAC is a wrapping `i64`
    /// sum, so the blocked evaluation order gives the same bits.
    ///
    /// # Panics
    ///
    /// Panics if a lane's traces are shorter than the averager output
    /// count or differ in length.
    pub fn infer_quad_with(
        &self,
        lanes: [(&[f32], &[f32]); TraceBatch::LANES],
        scratch: &mut HwBatchScratch,
    ) -> [InferenceDetail; TraceBatch::LANES] {
        const L: usize = TraceBatch::LANES;
        let dim = self.input_dim();
        let rows = grown(&mut scratch.lanes, dim * L);
        for ((i, q), row) in lanes.into_iter().zip(rows.chunks_exact_mut(dim)) {
            self.front_end(i, q, &mut scratch.lane, row);
        }

        // Fully connected pipeline, one pass per layer for all four lane
        // rows, ping-ponging the two row buffers.
        let (mut rows, mut next) = (&mut scratch.lanes, &mut scratch.work);
        let mut width = dim;
        let mut overflow_count = [0; L];
        for layer in &self.layers {
            let out = grown(next, layer.output_dim() * L);
            let counts = layer.forward_x4(&rows[..width * L], out);
            for (total, c) in overflow_count.iter_mut().zip(counts) {
                *total += c;
            }
            std::mem::swap(&mut rows, &mut next);
            width = layer.output_dim();
        }
        // The last layer has one neuron: one logit per lane.
        std::array::from_fn(|l| detail(rows[l], overflow_count[l]))
    }

    /// [`Self::infer_quad_with`] over a gathered [`TraceBatch`]: the
    /// block's interleaved lanes are copied back into contiguous traces
    /// in the scratch, then run through the same kernel. Lane `l` is
    /// bitwise-identical to [`Self::infer_detailed`] on that lane's
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if the batch's traces are shorter than the averager output
    /// count.
    pub fn infer_batch_with(
        &self,
        batch: &TraceBatch,
        scratch: &mut HwBatchScratch,
    ) -> [InferenceDetail; TraceBatch::LANES] {
        const L: usize = TraceBatch::LANES;
        let len = batch.len();
        // Moved out and back so the kernel can borrow the rest of the
        // scratch while the lanes borrow this buffer.
        let mut traces = std::mem::take(&mut scratch.traces);
        let (i_lanes, q_lanes) = grown(&mut traces, 2 * L * len).split_at_mut(L * len);
        for (channel, lanes) in [
            (batch.i_interleaved(), i_lanes),
            (batch.q_interleaved(), q_lanes),
        ] {
            for (k, quad) in channel.chunks_exact(L).enumerate() {
                for (l, &v) in quad.iter().enumerate() {
                    lanes[l * len + k] = v;
                }
            }
        }
        let (i_lanes, q_lanes) = traces[..2 * L * len].split_at(L * len);
        let lane = |l: usize| (&i_lanes[l * len..][..len], &q_lanes[l * len..][..len]);
        let details = self.infer_quad_with(std::array::from_fn(lane), scratch);
        scratch.traces = traces;
        details
    }

    /// The Q16.16 front end of one lane — the AVG&NORM unit beside the
    /// matched-filter MAC — over that lane's own contiguous samples,
    /// writing its feature row: each channel is quantized once into the
    /// scratch (the ADC), averaged into its `m` slots of `row` and MAC'ed
    /// against the envelope prefix it covers; the two MACs join into the
    /// last slot, and the whole row is shift-normalized in place,
    /// `(x − min) >> e`.
    fn front_end(&self, i: &[f32], q: &[f32], scratch: &mut LaneScratch, row: &mut [Q16_16]) {
        assert_eq!(i.len(), q.len(), "I and Q traces must have equal length");
        let m = self.outputs_per_channel;
        let (avg_i, rest) = row.split_at_mut(m);
        let (avg_q, mf_slot) = rest.split_at_mut(m);
        let mut mf = WideAccumulator::new();
        for (channel, envelope, avg) in [(i, &self.mf_env_i, avg_i), (q, &self.mf_env_q, avg_q)] {
            let x = grown(&mut scratch.samples, channel.len());
            for (s, &v) in x.iter_mut().zip(channel) {
                *s = Q16_16::from_f32(v);
            }
            average_into(x, &mut scratch.sums, avg);
            let n = x.len().min(envelope.len());
            mf.merge(dot_wide(&envelope[..n], &x[..n]));
        }
        mf_slot[0] = mf.to_fixed_saturating();
        for ((f, &mn), &e) in row.iter_mut().zip(&self.norm_min).zip(&self.norm_exp) {
            *f = normalized(*f, mn, e);
        }
    }

    /// Latency breakdown of this design (structure fixed at compile time,
    /// so it is duration-invariant, as the paper reports).
    pub fn latency(&self) -> LatencyReport {
        let layer_inputs: Vec<usize> = self.layers.iter().map(QuantizedDense::input_dim).collect();
        LatencyReport {
            mf: mf_stages(self.design_samples),
            avg_norm: avg_norm_stages(self.design_group),
            network: network_stages(&layer_inputs),
            clock: self.clock,
        }
    }

    /// Estimated per-qubit AVG&NORM resources.
    pub fn avg_norm_resources(&self) -> Resources {
        avg_norm_resources(2 * self.design_samples, 2 * self.outputs_per_channel)
    }

    /// Estimated per-qubit network resources.
    pub fn network_resources(&self) -> Resources {
        let layer_inputs: Vec<usize> = self.layers.iter().map(QuantizedDense::input_dim).collect();
        let params: usize = self
            .layers
            .iter()
            .map(|l| l.input_dim() * l.output_dim() + l.output_dim())
            .sum();
        network_resources(&layer_inputs, params)
    }
}

/// The averaging unit over one quantized channel: `out.len()` groups of
/// `len / out.len()` samples (trailing samples dropped), each summed by
/// the adder tree and divided by a shift (power-of-two group) or the
/// reciprocal multiply.
///
/// Each group sums its raw samples in a plain `i64` into `sums`: `Σx`
/// shifted left by 16 is the hardware's wrapping Q32.32 sum `Σ(x << 16)`,
/// to the bit. One write-back pass then renormalizes and divides every
/// sum, with the divide chosen once per call, so it has no branch and
/// vectorizes. A group of one is a copy: a single sample renormalizes to
/// itself, and `>> 0` keeps it.
fn average_into(x: &[Q16_16], sums: &mut Vec<i64>, out: &mut [Q16_16]) {
    let m = out.len();
    assert!(
        x.len() >= m,
        "trace too short: {} samples for {m} outputs",
        x.len()
    );
    let group = x.len() / m;
    if group == 1 {
        out.copy_from_slice(&x[..m]);
        return;
    }
    let sums = grown(sums, m);
    for (sum, samples) in sums.iter_mut().zip(x.chunks_exact(group)) {
        *sum = samples.iter().map(|s| i64::from(s.to_bits())).sum();
    }
    let mean = |sum: i64| WideAccumulator::from_raw(sum << FRAC_BITS).to_fixed_saturating();
    if group.is_power_of_two() {
        let shift = group.trailing_zeros();
        for (v, &sum) in out.iter_mut().zip(sums.iter()) {
            *v = mean(sum) >> shift;
        }
    } else {
        let recip = Q16_16::from_f64(1.0 / group as f64);
        for (v, &sum) in out.iter_mut().zip(sums.iter()) {
            *v = mean(sum).saturating_mul(recip);
        }
    }
}

/// The first `len` slots of `buf`, growing it but never shrinking it, so
/// a warm scratch neither reallocates nor clears: every slot handed out
/// is written before it is read.
fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// One feature through the shift normalizer, `(x − min) >> e`.
/// `shift_divide` has no branch, so loops of this vectorize.
#[inline]
fn normalized(x: Q16_16, min: Q16_16, exponent: i32) -> Q16_16 {
    shift_divide(x.saturating_sub(min), exponent)
}

/// The decision and detail of one inference from its final logit: read
/// as |1⟩ when the sign bit is clear and the logit non-zero.
fn detail(logit: Q16_16, overflow_count: usize) -> InferenceDetail {
    InferenceDetail {
        excited: !logit.is_negative() && logit != Q16_16::ZERO,
        logit,
        overflow_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klinq_dsp::FeatureSpec;
    use klinq_nn::network::FnnBuilder;
    use klinq_nn::train::{train_supervised, Dataset, TrainConfig};
    use klinq_nn::{Dense, Matrix};

    /// Owned (i, q) traces for one prepared class.
    type ClassTraces = Vec<(Vec<f32>, Vec<f32>)>;

    /// `n` synthetic traces of `len` samples around one class level.
    fn class_traces(level: f32, n: usize, len: usize) -> ClassTraces {
        (0..n)
            .map(|k| {
                let jit = 0.15 * (((k * 13) % 9) as f32 - 4.0);
                let i: Vec<f32> = (0..len)
                    .map(|t| level + jit + 0.3 * ((t % 7) as f32 - 3.0))
                    .collect();
                let q: Vec<f32> = (0..len)
                    .map(|t| -0.5 * level + 0.2 * ((t % 5) as f32 - 2.0))
                    .collect();
                (i, q)
            })
            .collect()
    }

    /// Builds a trained 31-feature student on separable synthetic classes
    /// and returns (net, pipeline, sample traces per class).
    fn trained_setup() -> (Fnn, FeaturePipeline, ClassTraces, ClassTraces) {
        let ground = class_traces(1.0, 48, 120);
        let excited = class_traces(-1.0, 48, 120);
        let g: Vec<(&[f32], &[f32])> = ground
            .iter()
            .map(|(i, q)| (i.as_slice(), q.as_slice()))
            .collect();
        let e: Vec<(&[f32], &[f32])> = excited
            .iter()
            .map(|(i, q)| (i.as_slice(), q.as_slice()))
            .collect();
        let pipeline = FeaturePipeline::fit(FeatureSpec::fnn_a(), &g, &e).unwrap();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (i, q) in &ground {
            rows.push(pipeline.extract(i, q));
            labels.push(0.0);
        }
        for (i, q) in &excited {
            rows.push(pipeline.extract(i, q));
            labels.push(1.0);
        }
        let data = Dataset::from_rows(&rows, &labels).unwrap();
        let mut net = FnnBuilder::new(31)
            .hidden(16, Activation::Relu)
            .hidden(8, Activation::Relu)
            .output(1)
            .seed(5)
            .build();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            learning_rate: 0.01,
            ..TrainConfig::default()
        };
        train_supervised(&mut net, &data, &cfg);
        (net, pipeline, ground, excited)
    }

    #[test]
    fn compile_and_dimensions() {
        let (net, pipeline, _, _) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        assert_eq!(hw.input_dim(), 31);
        assert_eq!(hw.design_group(), 8); // 120 / 15
    }

    #[test]
    fn hardware_agrees_with_float_reference() {
        let (net, pipeline, ground, excited) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        let mut mismatches = 0usize;
        let mut total = 0usize;
        for (traces, want) in [(&ground, false), (&excited, true)] {
            for (i, q) in traces.iter() {
                let float_pred = net.predict(&pipeline.extract(i, q));
                let detail = hw.infer_detailed(i, q);
                assert_eq!(detail.overflow_count, 0, "unexpected overflow");
                if detail.excited != float_pred {
                    mismatches += 1;
                }
                assert_eq!(detail.excited, want, "classification shifted");
                total += 1;
            }
        }
        assert_eq!(mismatches, 0, "{mismatches}/{total} fixed-point mismatches");
    }

    #[test]
    fn logit_error_vs_float_is_small() {
        let (net, pipeline, ground, _) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        for (i, q) in ground.iter().take(8) {
            let float_logit = net.logit(&pipeline.extract(i, q));
            let detail = hw.infer_detailed(i, q);
            // The shift normalizer snaps σ to powers of two, so feature
            // scales differ from the float pipeline by up to √2; the
            // decision must survive but logits only agree loosely.
            assert_eq!(detail.excited, float_logit > 0.0);
        }
    }

    #[test]
    fn scratch_inference_is_bitwise_identical() {
        let (net, pipeline, ground, excited) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        let mut scratch = HwScratch::new();
        for (i, q) in ground.iter().chain(&excited) {
            // Full detail (logit included) must match exactly, and the
            // scratch must stay valid across consecutive shots.
            assert_eq!(hw.infer_detailed_with(i, q, &mut scratch), hw.infer_detailed(i, q));
            assert_eq!(hw.infer_with(i, q, &mut scratch), hw.infer(i, q));
        }
        // Truncated traces shrink the buffers in place without issue.
        assert_eq!(
            hw.infer_with(&ground[0].0[..72], &ground[0].1[..72], &mut scratch),
            hw.infer(&ground[0].0[..72], &ground[0].1[..72])
        );
    }

    #[test]
    fn one_scratch_serves_designs_of_different_widths() {
        // The serving path runs FNN-A (31 features) and FNN-B (201) qubits
        // through one scratch. Its buffers keep their widest size, so each
        // design must read only its own widths of them.
        let (net_a, pipeline_a, ground, excited) = trained_setup();
        let hw_a = FpgaDiscriminator::compile(&net_a, &pipeline_a, 120).unwrap();
        let g: Vec<(&[f32], &[f32])> = ground.iter().map(|(i, q)| (&i[..], &q[..])).collect();
        let e: Vec<(&[f32], &[f32])> = excited.iter().map(|(i, q)| (&i[..], &q[..])).collect();
        let pipeline_b = FeaturePipeline::fit(FeatureSpec::fnn_b(), &g, &e).unwrap();
        let net_b = FnnBuilder::new(FeatureSpec::fnn_b().input_dim())
            .hidden(16, Activation::Relu)
            .hidden(8, Activation::Relu)
            .output(1)
            .seed(9)
            .build();
        let hw_b = FpgaDiscriminator::compile(&net_b, &pipeline_b, 120).unwrap();
        let mut scratch = HwScratch::new();
        for (i, q) in ground.iter().chain(&excited) {
            for hw in [&hw_b, &hw_a] {
                assert_eq!(
                    hw.infer_detailed_with(i, q, &mut scratch),
                    hw.infer_detailed(i, q)
                );
            }
        }
    }

    /// The front end by its definition: samples quantized through
    /// `from_f64`, one adder-tree accumulator per averaging group and per
    /// matched-filter channel, the divide as a shift or a reciprocal
    /// multiply. The oracle for the shortcuts the datapath takes (the
    /// `f32` quantizer, raw `i64` group sums, the group-of-one copy).
    fn reference_features(hw: &FpgaDiscriminator, i: &[f32], q: &[f32]) -> Vec<Q16_16> {
        let m = hw.outputs_per_channel;
        let adc = |t: &[f32]| -> Vec<Q16_16> {
            t.iter().map(|&v| Q16_16::from_f64(f64::from(v))).collect()
        };
        let (i, q) = (adc(i), adc(q));
        let group = (i.len() / m).max(1);
        let mut features = Vec::new();
        for channel in [&i, &q] {
            for samples in channel.chunks_exact(group).take(m) {
                let mut acc = WideAccumulator::new();
                for &s in samples {
                    acc.add_fixed(s);
                }
                let mean = acc.to_fixed_saturating();
                features.push(if group.is_power_of_two() {
                    shift_divide(mean, group.trailing_zeros() as i32)
                } else {
                    mean.saturating_mul(Q16_16::from_f64(1.0 / group as f64))
                });
            }
        }
        let mut mf = WideAccumulator::new();
        for (envelope, channel) in [(&hw.mf_env_i, &i), (&hw.mf_env_q, &q)] {
            for (&e, &x) in envelope.iter().zip(channel) {
                mf.mac(e, x);
            }
        }
        features.push(mf.to_fixed_saturating());
        features
            .iter()
            .zip(&hw.norm_min)
            .zip(&hw.norm_exp)
            .map(|((&x, &mn), &e)| shift_divide(x.saturating_sub(mn), e))
            .collect()
    }

    #[test]
    fn front_end_matches_the_reference_datapath() {
        let (net, pipeline, ground, excited) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        // Traces past the 120-sample envelope, and loud ones that saturate
        // the ADC and the averaging sums.
        let long = class_traces(-1.0, 2, 240);
        let loud: ClassTraces = ground[..2]
            .iter()
            .map(|(i, q)| {
                (
                    i.iter().map(|v| v * 2e4).collect(),
                    q.iter().map(|v| v * -3e4).collect(),
                )
            })
            .collect();
        let mut scratch = LaneScratch::default();
        let mut row = vec![Q16_16::ZERO; hw.input_dim()];
        for (i, q) in ground[..3]
            .iter()
            .chain(&excited[..3])
            .chain(&long)
            .chain(&loud)
        {
            // Groups of 1 (15–29 samples), 2, 3, 4, 5, 7 and 8, and 10 and
            // 16 on the long traces.
            for len in [15, 16, 29, 30, 45, 60, 75, 105, 119, 120, 150, 240] {
                let Some((i, q)) = i.get(..len).zip(q.get(..len)) else {
                    continue;
                };
                hw.front_end(i, q, &mut scratch, &mut row);
                assert_eq!(row, reference_features(&hw, i, q), "{len} samples");
            }
        }
    }

    /// Runs one block through `infer_batch_with` and asserts every lane
    /// equals `infer_detailed` on its traces — full detail, logit bits
    /// and overflow count included. Returns the lanes' details.
    fn assert_lanes_match_per_shot(
        hw: &FpgaDiscriminator,
        block: [(&[f32], &[f32]); TraceBatch::LANES],
        scratch: &mut HwBatchScratch,
    ) -> [InferenceDetail; TraceBatch::LANES] {
        let mut batch = TraceBatch::new();
        assert!(batch.gather(block));
        let details = hw.infer_batch_with(&batch, scratch);
        for (l, (i, q)) in block.into_iter().enumerate() {
            let want = hw.infer_detailed(i, q);
            assert_eq!(details[l], want, "lane {l}, {} samples", i.len());
        }
        details
    }

    /// Two ground and two excited traces, cut to `len` samples.
    fn mixed_block<'a>(
        ground: &'a ClassTraces,
        excited: &'a ClassTraces,
        len: usize,
    ) -> [(&'a [f32], &'a [f32]); TraceBatch::LANES] {
        let (g, e) = (&ground[..2], &excited[..2]);
        [&g[0], &g[1], &e[0], &e[1]].map(|(i, q)| (&i[..len], &q[..len]))
    }

    #[test]
    fn batched_inference_is_bitwise_identical_per_lane() {
        let (net, pipeline, _, _) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        let (ground, excited) = (class_traces(1.0, 2, 150), class_traces(-1.0, 2, 150));
        let mut scratch = HwBatchScratch::new();
        // Averaging groups of 10 and 3 (the reciprocal write-back) as
        // well as 8 and 4 (the shift), one scratch reused throughout.
        for (len, group) in [(150usize, 10usize), (120, 8), (72, 4), (45, 3)] {
            assert_eq!(len / hw.outputs_per_channel, group);
            assert_lanes_match_per_shot(&hw, mixed_block(&ground, &excited, len), &mut scratch);
        }
    }

    #[test]
    fn batched_overflow_counts_are_per_lane() {
        let (net, pipeline, ground, excited) = trained_setup();
        let mut hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        // A first layer of large weights: in-range features stay in range,
        // a lane driven 200× past the calibration saturates.
        let (inputs, width) = (hw.input_dim(), hw.layers[0].output_dim());
        let big = Matrix::from_vec(width, inputs, vec![64.0; width * inputs]);
        let big = Dense::from_parts(big, vec![0.0; width], Activation::Relu);
        hw.layers[0] = QuantizedDense::from_dense(&big);
        let scale = |t: &[f32]| t.iter().map(|v| v * 200.0).collect::<Vec<f32>>();
        let (loud_i, loud_q) = (scale(&ground[2].0), scale(&ground[2].1));
        let mut block = mixed_block(&ground, &excited, 120);
        block[1] = (&loud_i, &loud_q);
        let details = assert_lanes_match_per_shot(&hw, block, &mut HwBatchScratch::new());
        assert!(details[1].overflow_count > 0, "{details:?}");
        assert_eq!(details[0].overflow_count, 0, "{details:?}");
    }

    #[test]
    fn batched_negative_exponents_match_per_shot() {
        let (net, pipeline, ground, excited) = trained_setup();
        let mut hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        // Shift-left normalization (σ < 1), from one bit to past the
        // width, among in-range right shifts.
        let exponents = [-1, -3, 2, -12, 0, -33, -47, 1, -5];
        for (e, &x) in hw.norm_exp.iter_mut().zip(exponents.iter().cycle()) {
            *e = x;
        }
        let mut scratch = HwBatchScratch::new();
        for len in [120, 72] {
            assert_lanes_match_per_shot(&hw, mixed_block(&ground, &excited, len), &mut scratch);
        }
    }

    #[test]
    fn shortened_traces_still_classify() {
        let (net, pipeline, ground, excited) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap();
        for (i, q) in ground.iter().take(8) {
            assert!(!hw.infer(&i[..72], &q[..72]));
        }
        for (i, q) in excited.iter().take(8) {
            assert!(hw.infer(&i[..72], &q[..72]));
        }
    }

    #[test]
    fn latency_and_resources_are_reported() {
        let (net, pipeline, _, _) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 500).unwrap();
        let lat = hw.latency();
        assert_eq!(lat.network, network_stages(&[31, 16, 8]));
        assert_eq!(lat.mf, mf_stages(500));
        assert!(lat.total_stages() > 0);
        let r = hw.network_resources();
        assert_eq!(r.dsp, 55);
        assert!(hw.avg_norm_resources().lut > 0);
    }

    #[test]
    fn compile_rejects_dimension_mismatch() {
        let (_, pipeline, _, _) = trained_setup();
        let wrong = FnnBuilder::new(10).output(1).build();
        let err = FpgaDiscriminator::compile(&wrong, &pipeline, 120).unwrap_err();
        assert_eq!(
            err,
            CompileError::DimensionMismatch {
                pipeline: 31,
                network: 10
            }
        );
        assert!(err.to_string().contains("31"));
    }

    #[test]
    fn compile_rejects_multi_output() {
        let (_, pipeline, _, _) = trained_setup();
        let multi = FnnBuilder::new(31).output(2).build();
        let err = FpgaDiscriminator::compile(&multi, &pipeline, 120).unwrap_err();
        assert_eq!(err, CompileError::MultiOutput(2));
    }

    #[test]
    fn compile_rejects_sigmoid() {
        let (_, pipeline, _, _) = trained_setup();
        let net = FnnBuilder::new(31)
            .hidden(4, Activation::Sigmoid)
            .output(1)
            .build();
        let err = FpgaDiscriminator::compile(&net, &pipeline, 120).unwrap_err();
        assert_eq!(err, CompileError::UnsupportedActivation);
    }

    #[test]
    fn clock_override_scales_ns() {
        let (net, pipeline, _, _) = trained_setup();
        let hw = FpgaDiscriminator::compile(&net, &pipeline, 500)
            .unwrap()
            .with_clock(Clock::new(500.0));
        let lat = hw.latency();
        assert_eq!(lat.total_ns(), lat.total_stages() as f64 * 2.0);
    }
}
