//! Dense row-major `f32` matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernels;

/// A dense matrix of `f32` in row-major order.
///
/// Vectors are represented as `1×n` or `n×1` matrices; scalars as `1×1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `1×1` tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_accum_into(other, &mut out);
        out
    }

    /// Accumulates `self × other` into `out` (`out += self × other`).
    ///
    /// In [`KernelMode::Strict`](kernels::KernelMode) this is the tiled
    /// loop of [`Tensor::matmul_accum_into_tiled`] with its inner columns
    /// run as explicit 8-wide register-accumulator blocks, and the output
    /// rows optionally sharded across worker threads
    /// ([`crate::kernels::set_matmul_threads`]; small products stay
    /// serial under the work floor). For each output element the partial
    /// products are still summed in ascending `k` — unroll lanes are
    /// independent elements and shards are whole rows — so results are
    /// bitwise-identical to the textbook i-k-j loop at **any** thread
    /// count, which is what keeps batched forwards equal to per-sample
    /// forwards. Dense data takes no branches in the inner loop and
    /// `0 × NaN` propagates as NaN (IEEE semantics, no zero-skip).
    ///
    /// In [`KernelMode::Fast`](kernels::KernelMode) the same tile
    /// structure runs with fused `mul_add` accumulators
    /// ([`kernels::fast`]), and tall-thin products whose row count caps
    /// row sharding split the reduction dimension across workers instead
    /// ([`kernels::k_split_shards`]), each worker producing a partial
    /// `m×n` sum combined on the caller — ε-close to strict, identical
    /// `NaN`/`±∞` propagation, identical decisions.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_accum_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        let _timer = nvc_obs::time_op(nvc_obs::Op::MatMul);
        let (m, kd, n) = (self.rows, self.cols, other.cols);
        let madds = m.saturating_mul(kd).saturating_mul(n);
        if kernels::kernel_mode() == kernels::KernelMode::Fast {
            if let Some(shards) = kernels::k_split_shards(m, kd, madds) {
                kernels::run_mm_k_split(shards, m, n, kd, &mut out.data, &|k0, k1, partial| {
                    kernels::fast::mm_rows_fast(
                        &self.data,
                        &other.data,
                        kd,
                        n,
                        k0,
                        k1,
                        0,
                        m,
                        partial,
                    );
                });
                return;
            }
            let threads = kernels::effective_threads(m, madds);
            kernels::run_row_sharded(threads, m, n, &mut out.data, &|r0, r1, rows| {
                kernels::fast::mm_rows_fast(&self.data, &other.data, kd, n, 0, kd, r0, r1, rows);
            });
            return;
        }
        let threads = kernels::effective_threads(m, madds);
        kernels::run_row_sharded(threads, m, n, &mut out.data, &|r0, r1, rows| {
            kernels::mm_rows(&self.data, &other.data, kd, n, r0, r1, rows);
        });
    }

    /// The cache-blocked single-threaded kernel, retained as the
    /// reference baseline the threaded/unrolled
    /// [`Tensor::matmul_accum_into`] is parity-tested and benchmarked
    /// against: 64×64 tiles of `other` stay L1-resident while every row
    /// of `self` streams over them, and each output element sums its
    /// partial products in ascending `k` (bitwise-equal to the textbook
    /// i-k-j loop).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_accum_into_tiled(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        const MM_KB: usize = 64;
        const MM_JB: usize = 64;
        let (m, kd, n) = (self.rows, self.cols, other.cols);
        let mut kb = 0;
        while kb < kd {
            let k_end = (kb + MM_KB).min(kd);
            let mut jb = 0;
            while jb < n {
                let j_end = (jb + MM_JB).min(n);
                for i in 0..m {
                    let a_row = &self.data[i * kd..(i + 1) * kd];
                    let out_row = &mut out.data[i * n + jb..i * n + j_end];
                    for k in kb..k_end {
                        let a = a_row[k];
                        let b_row = &other.data[k * n + jb..k * n + j_end];
                        for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += a * b;
                        }
                    }
                }
                jb = j_end;
            }
            kb = k_end;
        }
    }

    /// `selfᵀ × other` without materializing the transpose.
    ///
    /// This is the `xᵀ·g` shape reverse-mode matmul produces for its
    /// left-operand gradient: the k-outer/i-mid/j-inner order reads both
    /// inputs strictly row-by-row (sequential memory), where transposing
    /// first would stride-walk a freshly allocated copy. Accumulation per
    /// output element is ascending `k`, matching
    /// `self.transposed().matmul(other)` bitwise.
    ///
    /// # Panics
    ///
    /// Panics unless `self.rows == other.rows`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_accum_into(other, &mut out);
        out
    }

    /// Accumulates `selfᵀ × other` into `out` (see [`Tensor::matmul_tn`]).
    ///
    /// Output rows (columns of `self`) shard across worker threads under
    /// the same parity contract as [`Tensor::matmul_accum_into`]; the
    /// inner columns run through the 8-wide unrolled `axpy` block.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_tn_accum_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ᵀ× {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _timer = nvc_obs::time_op(nvc_obs::Op::MatMulTn);
        let (m, n) = (self.cols, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn output shape mismatch");
        let kr = self.rows;
        let threads = kernels::effective_threads(m, kr.saturating_mul(m).saturating_mul(n));
        if kernels::kernel_mode() == kernels::KernelMode::Fast {
            kernels::run_row_sharded(threads, m, n, &mut out.data, &|i0, i1, rows| {
                kernels::fast::tn_rows_fast(&self.data, &other.data, kr, m, n, i0, i1, rows);
            });
            return;
        }
        kernels::run_row_sharded(threads, m, n, &mut out.data, &|i0, i1, rows| {
            kernels::tn_rows(&self.data, &other.data, kr, m, n, i0, i1, rows);
        });
    }

    /// `self × otherᵀ` without materializing the transpose.
    ///
    /// The `g·wᵀ` shape of reverse-mode matmul's right-operand gradient:
    /// every output element is a dot product of two rows, so both inputs
    /// are read sequentially. Ascending-`k` accumulation matches
    /// `self.matmul(&other.transposed())` bitwise.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols == other.cols`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_accum_into(other, &mut out);
        out
    }

    /// Accumulates `self × otherᵀ` into `out` (see [`Tensor::matmul_nt`]).
    ///
    /// Output rows shard across worker threads under the same parity
    /// contract as [`Tensor::matmul_accum_into`]; four output columns run
    /// as independent dot-product accumulators per step.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_nt_accum_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} ×ᵀ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _timer = nvc_obs::time_op(nvc_obs::Op::MatMulNt);
        let (m, kd, n) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        let threads = kernels::effective_threads(m, m.saturating_mul(kd).saturating_mul(n));
        if kernels::kernel_mode() == kernels::KernelMode::Fast {
            kernels::run_row_sharded(threads, m, n, &mut out.data, &|i0, i1, rows| {
                kernels::fast::nt_rows_fast(&self.data, &other.data, kd, n, i0, i1, rows);
            });
            return;
        }
        kernels::run_row_sharded(threads, m, n, &mut out.data, &|i0, i1, rows| {
            kernels::nt_rows(&self.data, &other.data, kd, n, i0, i1, rows);
        });
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Consumes the tensor, returning its backing buffer (used by the
    /// arena to recycle allocations across graphs).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Elementwise map in place (no allocation).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// In-place elementwise combination: `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c.data()[0], 32.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().shape(), (3, 2));
        assert_eq!(a.transposed()[(2, 1)], 6.0);
    }

    #[test]
    fn indexing() {
        let mut a = Tensor::zeros(2, 2);
        a[(1, 0)] = 7.0;
        assert_eq!(a[(1, 0)], 7.0);
        assert_eq!(a.row(1), &[7.0, 0.0]);
    }

    /// The seed kernel skipped `a == 0.0` rows entirely, which silently
    /// swallowed NaNs in the right operand (`0 × NaN` is NaN, not 0).
    /// The tiled kernel must follow IEEE semantics.
    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        let a = Tensor::from_rows(&[vec![0.0, 0.0]]);
        let b = Tensor::from_rows(&[vec![f32::NAN, 1.0], vec![2.0, 3.0]]);
        let c = a.matmul(&b);
        assert!(c[(0, 0)].is_nan(), "0 × NaN must propagate NaN");
        assert_eq!(c[(0, 1)], 0.0);
    }

    /// Textbook i-k-j reference the tiled kernel must match bitwise
    /// (identical ascending-k accumulation order).
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                for j in 0..b.cols() {
                    out[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        out
    }

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        )
    }

    /// Tiled kernel on shapes spanning several tile boundaries, including
    /// dimensions beyond one 64-wide block.
    #[test]
    fn tiled_matmul_matches_reference_across_blocks() {
        // Deployed-vs-reference bitwise equality is a *strict*-contract
        // claim; pin the mode so the NVC_KERNEL_MODE=fast CI leg keeps
        // asserting it (fast is covered by tests/fast_parity.rs).
        let _guard = crate::kernels::KNOB_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::kernels::set_kernel_mode(crate::kernels::KernelMode::Strict);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 70, 5),
            (17, 130, 65),
            (64, 64, 64),
            (2, 200, 130),
        ] {
            let a = random_tensor(m, k, (m * 1000 + n) as u64);
            let b = random_tensor(k, n, (k * 7 + 3) as u64);
            let tiled = a.matmul(&b);
            let reference = matmul_reference(&a, &b);
            assert_eq!(tiled, reference, "tiled kernel diverged at {m}x{k}x{n}");
        }
        crate::kernels::set_kernel_mode(crate::kernels::default_kernel_mode());
    }

    /// The deployed (unrolled, optionally threaded) kernel and the tiled
    /// reference baseline must agree bitwise at every thread count,
    /// including shapes that straddle the 8-wide unroll blocks.
    #[test]
    fn deployed_matmul_matches_tiled_baseline_at_any_thread_count() {
        let _guard = crate::kernels::KNOB_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::kernels::set_matmul_grain(1);
        // Bitwise equality to the tiled baseline is the strict contract.
        crate::kernels::set_kernel_mode(crate::kernels::KernelMode::Strict);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 70, 13),
            (17, 130, 65),
            (9, 3, 100),
        ] {
            let a = random_tensor(m, k, (m * 31 + n) as u64);
            let b = random_tensor(k, n, (k * 17 + 5) as u64);
            let mut tiled = Tensor::zeros(m, n);
            a.matmul_accum_into_tiled(&b, &mut tiled);
            for threads in [1usize, 2, 3, 8] {
                crate::kernels::set_matmul_threads(threads);
                assert_eq!(
                    a.matmul(&b),
                    tiled,
                    "deployed kernel diverged at {m}x{k}x{n}, {threads} threads"
                );
            }
        }
        // Restore the configured defaults (env-aware, not a hardcoded 1)
        // so the NVC_MATMUL_THREADS CI leg stays threaded after this test.
        crate::kernels::set_matmul_threads(crate::kernels::default_matmul_threads());
        crate::kernels::set_matmul_grain(crate::kernels::DEFAULT_MATMUL_GRAIN);
        crate::kernels::set_kernel_mode(crate::kernels::default_kernel_mode());
    }

    #[test]
    fn matmul_tn_nt_match_materialized_transposes() {
        // Holds at either mode (both sides share one madd chain per
        // element), but the mode must not *flip between* the two deployed
        // calls — serialize against the mode-pinning tests.
        let _guard = crate::kernels::KNOB_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for &(m, k, n) in &[(1, 4, 3), (9, 70, 11), (33, 5, 80)] {
            // tn: aᵀ·b where a is k×m (shared leading dim k).
            let a = random_tensor(k, m, 11 + m as u64);
            let b = random_tensor(k, n, 13 + n as u64);
            assert_eq!(a.matmul_tn(&b), a.transposed().matmul(&b));
            // nt: g·wᵀ where g is m×k, w is n×k (shared trailing dim k).
            let g = random_tensor(m, k, 17 + m as u64);
            let w = random_tensor(n, k, 19 + n as u64);
            assert_eq!(g.matmul_nt(&w), g.matmul(&w.transposed()));
        }
    }

    #[test]
    fn inplace_helpers_match_allocating_versions() {
        let a = random_tensor(4, 5, 23);
        let b = random_tensor(4, 5, 29);
        let mut m = a.clone();
        m.map_inplace(|x| x * 2.0 + 1.0);
        assert_eq!(m, a.map(|x| x * 2.0 + 1.0));
        let mut z = a.clone();
        z.zip_inplace(&b, |x, y| x - y);
        assert_eq!(z, a.zip(&b, |x, y| x - y));
    }

    #[test]
    fn into_data_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let buf = a.clone().into_data();
        assert_eq!(Tensor::from_vec(2, 3, buf), a);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.add_scaled(&b, 0.5);
        assert_eq!(a, Tensor::full(2, 2, 2.0));
    }

    proptest! {
        /// The tiled kernel is bitwise-identical to the textbook i-k-j
        /// loop on arbitrary shapes (tile-boundary straddling included).
        #[test]
        fn prop_tiled_matmul_matches_reference(
            m in 1usize..12, n in 1usize..80, k in 1usize..80,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            // Strict-contract claim: pin the mode for this case (fast is
            // covered ε-wise in tests/fast_parity.rs).
            let _guard = crate::kernels::KNOB_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            crate::kernels::set_kernel_mode(crate::kernels::KernelMode::Strict);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let b = Tensor::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let got = a.matmul(&b);
            crate::kernels::set_kernel_mode(crate::kernels::default_kernel_mode());
            prop_assert_eq!(got, matmul_reference(&a, &b));
        }

        /// Transpose-free kernels agree bitwise with transpose-then-matmul.
        #[test]
        fn prop_tn_nt_match_transposed_matmul(
            m in 1usize..8, n in 1usize..40, k in 1usize..40,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            // Mode-stable comparison (see matmul_tn_nt_match_...).
            let _guard = crate::kernels::KNOB_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(k, m, (0..k*m).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let b = Tensor::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect());
            prop_assert_eq!(a.matmul_tn(&b), a.transposed().matmul(&b));
            let g = Tensor::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let w = Tensor::from_vec(n, k, (0..n*k).map(|_| rng.gen_range(-2.0..2.0)).collect());
            prop_assert_eq!(g.matmul_nt(&w), g.matmul(&w.transposed()));
        }

        /// (A B)ᵀ = Bᵀ Aᵀ
        #[test]
        fn prop_transpose_of_product(
            m in 1usize..5, n in 1usize..5, k in 1usize..5,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let b = Tensor::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let lhs = a.matmul(&b).transposed();
            let rhs = b.transposed().matmul(&a.transposed());
            for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Matmul distributes over addition.
        #[test]
        fn prop_matmul_distributes(
            m in 1usize..4, n in 1usize..4, k in 1usize..4,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut t = |r: usize, c: usize| {
                Tensor::from_vec(r, c, (0..r*c).map(|_| rng.gen_range(-1.0..1.0)).collect())
            };
            let a = t(m, k);
            let b = t(k, n);
            let c = t(k, n);
            let sum = b.zip(&c, |x, y| x + y);
            let lhs = a.matmul(&sum);
            let rhs_b = a.matmul(&b);
            let rhs = rhs_b.zip(&a.matmul(&c), |x, y| x + y);
            for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Sum is invariant under transpose.
        #[test]
        fn prop_sum_transpose_invariant(m in 1usize..6, n in 1usize..6, seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(m, n, (0..m*n).map(|_| rng.gen_range(-1.0..1.0)).collect());
            prop_assert!((a.sum() - a.transposed().sum()).abs() < 1e-4);
        }
    }
}
