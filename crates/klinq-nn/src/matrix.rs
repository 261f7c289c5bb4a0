//! Minimal row-major `f32` matrix with the GEMM variants training needs.
//!
//! Three multiply kernels cover every pass of backpropagation without ever
//! materializing a transpose:
//!
//! - [`Matrix::matmul`]: `C = A · B` (forward with pre-transposed weights)
//! - [`Matrix::matmul_bt`]: `C = A · Bᵀ` (forward: `X · Wᵀ`; input grads)
//! - [`Matrix::matmul_at`]: `C = Aᵀ · B` (weight grads: `dZᵀ · X`)
//!
//! All kernels use i-k-j loop order over row-major storage so the inner
//! loop streams contiguously.
//!
//! A fourth kernel, [`Matrix::gemm_block`], is the inference-serving GEMM:
//! a register-blocked `C = A · Bᵀ + bias` that processes
//! [`ROW_BLOCK`] × [`LANES`] output tiles per pass so a whole batch runs
//! as one `B × in × out` multiply instead of `B` independent GEMVs, while
//! every accumulator keeps the exact bias-first, input-order summation of
//! the single-sample path.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Neuron-lane width of the blocked inference GEMM: 16 `f32` accumulator
/// lanes — two AVX2 registers — per output tile column block.
pub const LANES: usize = 16;

/// Row-block height of the blocked inference GEMM micro-kernel: four
/// batch rows share each packed-weight load.
pub const ROW_BLOCK: usize = 4;

/// A dense row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use klinq_nn::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Iterator over mutable row slices.
    pub fn iter_rows_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        self.data.chunks_exact_mut(self.cols)
    }

    /// Reshapes in place to `rows × cols`, zero-filled, keeping any
    /// existing allocation (the inference hot path reuses one matrix
    /// across batches).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `C = A · B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != b.rows`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let mut c = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let c_row = &mut c.data[i * b.cols..(i + 1) * b.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
                for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                    *c_ij += a_ik * b_kj;
                }
            }
        }
        c
    }

    /// `C = A · Bᵀ` — the forward-pass kernel (`X · Wᵀ`) and the input-grad
    /// kernel, without materializing `Bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != b.cols`.
    pub fn matmul_bt(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, b.cols,
            "matmul_bt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, b.rows, b.cols
        );
        let mut c = Matrix::zeros(self.rows, b.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let c_row = &mut c.data[i * b.rows..(i + 1) * b.rows];
            for (j, c_ij) in c_row.iter_mut().enumerate() {
                let b_row = &b.data[j * b.cols..(j + 1) * b.cols];
                let mut acc = 0.0f32;
                for (&x, &w) in a_row.iter().zip(b_row) {
                    acc += x * w;
                }
                *c_ij = acc;
            }
        }
        c
    }

    /// `C = Aᵀ · B` — the weight-gradient kernel (`dZᵀ · X`), without
    /// materializing `Aᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != b.rows`.
    pub fn matmul_at(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, b.rows,
            "matmul_at shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let mut c = Matrix::zeros(self.cols, b.cols);
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
            for (i, &a_ki) in a_row.iter().enumerate() {
                if a_ki == 0.0 {
                    continue;
                }
                let c_row = &mut c.data[i * b.cols..(i + 1) * b.cols];
                for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                    *c_ij += a_ki * b_kj;
                }
            }
        }
        c
    }

    /// Register-blocked inference GEMM: `C = A · Bᵀ + bias`, with the bias
    /// broadcast across rows and **seeded first** into every accumulator.
    ///
    /// `b` (e.g. a layer's `output_dim × input_dim` weights) is packed once
    /// per call into `packed` in lane-blocked, input-major order; the
    /// micro-kernel then computes [`ROW_BLOCK`] × [`LANES`] output tiles,
    /// so one pass over the packed weights serves four batch rows and the
    /// whole product runs `rows × in × out` instead of `rows` independent
    /// GEMVs. Every output element still accumulates in exactly the
    /// single-sample order — bias first, then products in input order — so
    /// each `C[i][j]` is bitwise-identical to a scalar
    /// `bias[j] + Σ_k A[i][k]·B[j][k]` loop, for any batch size. (Note
    /// this differs bitwise from [`Self::matmul_bt`] followed by
    /// [`Self::add_row_broadcast`], which adds the bias last.)
    ///
    /// `out` is resized to `self.rows × b.rows`; `packed` is a reusable
    /// scratch that grows to `b`'s padded size.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != b.cols` or `bias.len() != b.rows`.
    pub fn gemm_block(&self, b: &Matrix, bias: &[f32], out: &mut Matrix, packed: &mut Vec<f32>) {
        assert_eq!(
            self.cols, b.cols,
            "gemm_block shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, b.rows, b.cols
        );
        assert_eq!(bias.len(), b.rows, "gemm_block bias length mismatch");
        let (k_dim, n) = (self.cols, b.rows);
        out.resize(self.rows, n);

        // Lane-blocked transpose: packed[(jb·k_dim + k)·LANES + l] holds
        // B[jb·LANES + l][k] (zero in the padding lanes of the last
        // block). One pass over B, amortized over every row of the batch.
        let blocks = n.div_ceil(LANES);
        packed.clear();
        packed.resize(blocks * k_dim * LANES, 0.0);
        for (j, b_row) in b.iter_rows().enumerate() {
            let (jb, l) = (j / LANES, j % LANES);
            let block = &mut packed[jb * k_dim * LANES..(jb + 1) * k_dim * LANES];
            for (k, &w) in b_row.iter().enumerate() {
                block[k * LANES + l] = w;
            }
        }

        let mut i = 0;
        while i + ROW_BLOCK <= self.rows {
            self.gemm_row_block::<ROW_BLOCK>(i, bias, packed, out);
            i += ROW_BLOCK;
        }
        while i < self.rows {
            self.gemm_row_block::<1>(i, bias, packed, out);
            i += 1;
        }
    }

    /// One `M × n` slab of the blocked GEMM: rows `i..i + M` of `A`
    /// against every packed lane block.
    #[inline]
    fn gemm_row_block<const M: usize>(&self, i: usize, bias: &[f32], packed: &[f32], out: &mut Matrix) {
        let (k_dim, n) = (self.cols, out.cols);
        let a: [&[f32]; M] = std::array::from_fn(|r| &self.data[(i + r) * k_dim..(i + r + 1) * k_dim]);
        for jb in 0..n.div_ceil(LANES) {
            let live = (n - jb * LANES).min(LANES);
            let block = &packed[jb * k_dim * LANES..(jb + 1) * k_dim * LANES];
            let bias_lane = &bias[jb * LANES..jb * LANES + live];
            let acc = gemm_micro::<M>(&a, block, bias_lane);
            for (r, acc_row) in acc.iter().enumerate() {
                let row = (i + r) * n + jb * LANES;
                out.data[row..row + live].copy_from_slice(&acc_row[..live]);
            }
        }
    }

    /// Adds `v` to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols`.
    pub fn add_row_broadcast(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols, "broadcast length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(v) {
                *x += b;
            }
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (s, &x) in sums.iter_mut().zip(row) {
                *s += x;
            }
        }
        sums
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// The `M × LANES` register tile of [`Matrix::gemm_block`]: `M`
/// independent accumulator rows over one packed lane block, each seeded
/// with the bias and summing products in input order (the exact
/// single-sample order). Padding lanes accumulate zeros and are discarded
/// by the caller.
#[inline]
fn gemm_micro<const M: usize>(a: &[&[f32]; M], block: &[f32], bias_lane: &[f32]) -> [[f32; LANES]; M] {
    let mut acc = [[0.0f32; LANES]; M];
    for acc_row in &mut acc {
        acc_row[..bias_lane.len()].copy_from_slice(bias_lane);
    }
    for (k, w) in block.chunks_exact(LANES).enumerate() {
        for (acc_row, a_row) in acc.iter_mut().zip(a) {
            let x = a_row[k];
            for (slot, &wl) in acc_row.iter_mut().zip(w) {
                *slot += x * wl;
            }
        }
    }
    acc
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (useful as a lazily-grown scratch buffer).
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let rc = self.cols.min(8);
            for c in 0..rc {
                write!(f, "{:>10.4}", self.get(r, c))?;
                if c + 1 < rc {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn test_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for _ in 0..rows * cols {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push(((s >> 8) as f32 / (1u32 << 24) as f32) - 0.5);
        }
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_matrix(5, 5, 1);
        assert_close(&a.matmul(&Matrix::identity(5)), &a);
        assert_close(&Matrix::identity(5).matmul(&a), &a);
    }

    #[test]
    fn matmul_matches_naive() {
        let a = test_matrix(7, 13, 2);
        let b = test_matrix(13, 5, 3);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = test_matrix(6, 10, 4);
        let b = test_matrix(9, 10, 5);
        // Build Bᵀ explicitly.
        let mut bt = Matrix::zeros(10, 9);
        for r in 0..9 {
            for c in 0..10 {
                bt.set(c, r, b.get(r, c));
            }
        }
        assert_close(&a.matmul_bt(&b), &naive_matmul(&a, &bt));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = test_matrix(12, 4, 6);
        let b = test_matrix(12, 7, 7);
        let mut at = Matrix::zeros(4, 12);
        for r in 0..12 {
            for c in 0..4 {
                at.set(c, r, a.get(r, c));
            }
        }
        assert_close(&a.matmul_at(&b), &naive_matmul(&at, &b));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = test_matrix(2, 3, 0).matmul(&test_matrix(2, 3, 1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_bt_rejects_bad_shapes() {
        let _ = test_matrix(2, 3, 0).matmul_bt(&test_matrix(2, 4, 1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_at_rejects_bad_shapes() {
        let _ = test_matrix(2, 3, 0).matmul_at(&test_matrix(3, 4, 1));
    }

    /// Scalar reference for `gemm_block`: bias-first, input-order
    /// accumulation per output element.
    fn naive_gemm_bias_first(a: &Matrix, b: &Matrix, bias: &[f32]) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for (j, &bj) in bias.iter().enumerate() {
                let mut acc = bj;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(j, k);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn gemm_block_is_bitwise_identical_to_scalar_bias_first() {
        // Row counts around the ROW_BLOCK boundary, output widths around
        // the LANES boundary (including multi-block), assorted depths.
        let mut packed = Vec::new();
        let mut out = Matrix::default();
        for &rows in &[1usize, 2, 3, 4, 5, 7, 8, 9, 16, 21] {
            for &(n, k) in &[(1usize, 5usize), (5, 11), (16, 7), (17, 31), (37, 13)] {
                let a = test_matrix(rows, k, (rows * 31 + n) as u32);
                let b = test_matrix(n, k, (n * 17 + k) as u32);
                let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.7).sin()).collect();
                a.gemm_block(&b, &bias, &mut out, &mut packed);
                let reference = naive_gemm_bias_first(&a, &b, &bias);
                assert_eq!(out.rows(), rows);
                assert_eq!(out.cols(), n);
                // Bitwise, not approximate: the tile kernel replays the
                // exact scalar summation order per accumulator.
                assert_eq!(out.data(), reference.data(), "rows={rows} n={n} k={k}");
            }
        }
    }

    #[test]
    fn gemm_block_handles_empty_batch() {
        let b = test_matrix(3, 4, 1);
        let mut out = Matrix::default();
        Matrix::zeros(0, 4).gemm_block(&b, &[0.0; 3], &mut out, &mut Vec::new());
        assert_eq!(out.rows(), 0);
        assert_eq!(out.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn gemm_block_rejects_bad_shapes() {
        let mut out = Matrix::default();
        test_matrix(2, 3, 0).gemm_block(&test_matrix(2, 4, 1), &[0.0; 2], &mut out, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn gemm_block_rejects_bad_bias() {
        let mut out = Matrix::default();
        test_matrix(2, 3, 0).gemm_block(&test_matrix(2, 3, 1), &[0.0; 3], &mut out, &mut Vec::new());
    }

    #[test]
    fn broadcast_and_scale() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.add_row_broadcast(&[10.0, 20.0, 30.0]);
        assert_eq!(m.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(m.row(1), &[14.0, 25.0, 36.0]);
        m.scale(0.5);
        assert_eq!(m.get(0, 0), 5.5);
    }

    #[test]
    fn col_sums_reference() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn from_rows_round_trip() {
        let r0 = [1.0f32, 2.0];
        let r1 = [3.0f32, 4.0];
        let m = Matrix::from_rows(&[&r0, &r1]);
        assert_eq!(m.row(0), &r0);
        assert_eq!(m.row(1), &r1);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let r0 = [1.0f32, 2.0];
        let r1 = [3.0f32];
        let _ = Matrix::from_rows(&[&r0, &r1]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn frobenius_norm_reference() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn display_is_nonempty_and_truncates() {
        let m = test_matrix(10, 12, 9);
        let s = m.to_string();
        assert!(s.contains("Matrix 10x12"));
        assert!(s.contains('…'));
    }
}
