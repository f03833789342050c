//! Dense complex matrices for gate algebra and batched state evolution.
//!
//! Gates are at most 8×8 (three-qubit CSWAP), so a simple row-major
//! `Vec<C64>` representation is both adequate and cache-friendly. The type is
//! used for gate definitions, unitarity checks, transpiler verification,
//! Kraus-channel algebra — and, through the blocked [`CMatrix::matmul`]
//! kernel, for applying a fused unitary to many statevectors packed
//! column-wise in one matrix–matrix product (the batched analytic scoring
//! path) or a fused superoperator to many `vec(ρ)` columns (the batched
//! density scoring path). The panel kernel itself lives in
//! [`crate::kernel`]: a split-complex structure-of-arrays loop with an
//! optional runtime-dispatched AVX2/FMA path (`--features simd`), pinned
//! against the scalar oracle kept on [`CMatrix::matmul_scalar`].
//! Single-state evolution uses specialised kernels in
//! [`crate::statevector`] and [`crate::density`]. [`RMatrix`] is the real
//! counterpart: the dense density engines score folded (real-symmetric)
//! states with it, through the kernel module's real panel GEMM.

use crate::complex::C64;
use crate::error::QsimError;
use crate::kernel::{self, PanelScratch};
use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Output columns per GEMM panel — the unit of parallelism in
/// [`CMatrix::matmul_threaded`] and the width of the split-complex repack
/// in [`crate::kernel`]. Measured on the flagship GEMM shapes
/// (`8×8·8×96` encoder and `64×64·64×96` superoperator products),
/// widths 32–128 are equivalent within noise for the scalar, SoA and
/// AVX2 kernels alike while 16 trails slightly (repack overhead and
/// partial register tiles); 64 is chosen from that plateau because it
/// halves the panel count — and thus stitch/fan-out overhead — relative
/// to the previous 32-column blocks while keeping the SoA panel copy
/// (`2 × a_cols × 64` doubles — 64 KiB at the flagship density width
/// `4³ = 64`) comfortably L2-resident at every supported register
/// width.
pub const GEMM_COL_BLOCK: usize = 64;

// Panel starts must preserve lane alignment: threaded panels and the
// sequential full-width panel have to agree on which columns sit in
// vector tiles vs the scalar remainder, or FMA builds would diverge
// bit-wise across thread counts.
const _: () = assert!(GEMM_COL_BLOCK.is_multiple_of(kernel::LANES));

thread_local! {
    /// Panel scratch for sequential GEMMs: repeated products on a fixed
    /// configuration (one per group per scoring pass) reuse one repack
    /// buffer per thread instead of reallocating every call. Worker
    /// threads of a threaded GEMM ([`CMatrix::matmul_threaded`],
    /// [`RMatrix::matmul_threaded_into`]) get their own per-call scratch
    /// through [`crate::parallel::map_indexed_with`] instead.
    static SEQ_SCRATCH: RefCell<PanelScratch> = RefCell::new(PanelScratch::new());
}

/// The panel fan-out both matrix types' GEMMs share: fills the row-major
/// `rows × cols` output `out` (storage reused) through `panel_kernel`,
/// which writes the row-major block of output columns `c0..c1` into the
/// buffer it is given. Sequentially that is one full-width panel straight
/// into `out` — no zero-fill, no stitching — through the thread-local
/// scratch; otherwise fixed [`GEMM_COL_BLOCK`]-wide panels are fanned over
/// up to `threads` workers (one scratch each) and stitched back. Panel
/// boundaries never depend on `threads`, so neither does any column.
fn panel_gemm_into<T: Copy + Default + Send>(
    rows: usize,
    cols: usize,
    threads: usize,
    out: &mut Vec<T>,
    panel_kernel: impl Fn(usize, usize, &mut PanelScratch, &mut Vec<T>) + Sync,
) {
    if rows == 0 || cols == 0 {
        out.clear();
        return;
    }
    if threads <= 1 {
        SEQ_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            panel_kernel(0, cols, &mut scratch, out);
            // Don't pin extreme-shape buffers on this thread forever.
            scratch.trim();
        });
        return;
    }
    out.clear();
    out.resize(rows * cols, T::default());
    let num_panels = cols.div_ceil(GEMM_COL_BLOCK);
    let panels =
        crate::parallel::map_indexed_with(num_panels, threads, PanelScratch::new, |s, p| {
            let c0 = p * GEMM_COL_BLOCK;
            let mut panel = Vec::new();
            panel_kernel(c0, (c0 + GEMM_COL_BLOCK).min(cols), s, &mut panel);
            panel
        });
    for (p, panel) in panels.iter().enumerate() {
        let c0 = p * GEMM_COL_BLOCK;
        let width = panel.len() / rows;
        for (i, src) in panel.chunks_exact(width).enumerate() {
            out[i * cols + c0..][..width].copy_from_slice(src);
        }
    }
}

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qsim::matrix::CMatrix;
/// use qsim::complex::C64;
///
/// let x = CMatrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert!((&x * &x).approx_eq(&CMatrix::identity(2), 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Reshapes to `rows × cols` with every entry zero, reusing the
    /// backing allocation when its capacity suffices — the reset step for
    /// pooled scratch matrices on steady-state scoring paths.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, C64::ZERO);
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a square matrix from a flat row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when `data.len()` is not a
    /// perfect square.
    pub fn from_flat(data: &[C64]) -> Result<Self, QsimError> {
        let n = (data.len() as f64).sqrt().round() as usize;
        if n * n != data.len() {
            return Err(QsimError::DimensionMismatch {
                expected: n * n,
                actual: data.len(),
            });
        }
        Ok(CMatrix {
            rows: n,
            cols: n,
            data: data.to_vec(),
        })
    }

    /// Builds a `dim × columns.len()` matrix whose `j`-th column is
    /// `columns[j]` — convenient when each column is a statevector to be
    /// pushed through [`CMatrix::matmul`] (hot paths that already own
    /// scratch buffers write columns in place instead).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the columns have inconsistent
    /// lengths.
    pub fn from_columns(columns: &[Vec<C64>]) -> Self {
        assert!(!columns.is_empty(), "matrix must have at least one column");
        let rows = columns[0].len();
        let mut m = CMatrix::zeros(rows, columns.len());
        for (j, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "inconsistent column length");
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the row-major backing storage — the door for
    /// in-place panel kernels (e.g. the lockstep prep's batched RY
    /// conjugation, [`crate::density::ry_conjugate_columns`]) that update
    /// a packed batch without reallocating it.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Immutable view of row `i` (contiguous in the row-major layout).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[C64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` out of the row-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vec<C64> {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Matrix trace. Defined for square matrices only.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scaled(&self, k: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        let mut out = vec![C64::ZERO; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, x) in row.iter().zip(v) {
                acc += *a * *x;
            }
            *slot = acc;
        }
        out
    }

    /// Matrix–matrix product `A·B` through the blocked GEMM kernel.
    ///
    /// Sequential convenience wrapper around
    /// [`CMatrix::matmul_threaded`]; see there for the kernel layout.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &CMatrix) -> Result<CMatrix, QsimError> {
        self.matmul_threaded(rhs, 1)
    }

    /// Matrix–matrix product `A·B`, blocked over column panels of `rhs`
    /// and fanned out over up to `threads` OS threads via
    /// [`crate::parallel::map_indexed_with`] (each worker owns one panel
    /// scratch for its whole panel stream).
    ///
    /// Each panel of [`GEMM_COL_BLOCK`] output columns is computed
    /// independently by the split-complex register-tile kernel in
    /// [`crate::kernel`], so the per-column accumulation order is
    /// identical for every thread count — results are bit-for-bit
    /// deterministic regardless of `threads`. Without the `simd` feature
    /// the kernel is value-identical to the scalar oracle on
    /// [`CMatrix::matmul_scalar`] (see [`crate::kernel`] for the exact
    /// equality contract); with it, an AVX2/FMA path is selected at
    /// runtime where the CPU supports it.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul_threaded(&self, rhs: &CMatrix, threads: usize) -> Result<CMatrix, QsimError> {
        let mut out = CMatrix::zeros(0, 0);
        self.matmul_threaded_into(rhs, threads, &mut out)?;
        Ok(out)
    }

    /// [`CMatrix::matmul_threaded`] writing into a caller-owned output
    /// matrix — the allocation-free seam for steady-state scoring loops
    /// that run the same product shape every batch. `out` is reshaped to
    /// `self.rows() × rhs.cols()` and overwritten; its backing storage is
    /// reused across calls. Results are bit-identical to the allocating
    /// path (the output buffer never feeds back into the product).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`; `out` is untouched on error.
    pub fn matmul_threaded_into(
        &self,
        rhs: &CMatrix,
        threads: usize,
        out: &mut CMatrix,
    ) -> Result<(), QsimError> {
        if self.cols != rhs.rows {
            return Err(QsimError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        out.rows = self.rows;
        out.cols = rhs.cols;
        panel_gemm_into(
            self.rows,
            rhs.cols,
            threads,
            &mut out.data,
            |c0, c1, s, panel| {
                kernel::mul_panel_into(
                    &self.data, self.rows, self.cols, &rhs.data, rhs.cols, c0, c1, s, panel,
                )
            },
        );
        Ok(())
    }

    /// Matrix–matrix product through the scalar oracle kernel only — the
    /// bit-exact reference the SoA/AVX2 kernels are pinned against, and
    /// the baseline the SIMD speedup is benchmarked from. Always
    /// sequential; production code wants [`CMatrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul_scalar(&self, rhs: &CMatrix) -> Result<CMatrix, QsimError> {
        if self.cols != rhs.rows {
            return Err(QsimError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        if rhs.cols == 0 || self.rows == 0 {
            return Ok(CMatrix::zeros(self.rows, rhs.cols));
        }
        Ok(CMatrix {
            rows: self.rows,
            cols: rhs.cols,
            data: kernel::mul_panel_scalar(
                &self.data, self.rows, self.cols, &rhs.data, rhs.cols, 0, rhs.cols,
            ),
        })
    }

    /// Returns `true` when every entry is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` when `self` equals `other` up to a global phase
    /// `e^{iφ}`. Used to validate transpiler rewrites, which are only
    /// required to preserve physics (global phase is unobservable).
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the entry of largest modulus in `other` to anchor the phase.
        let (idx, _) = other
            .data
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.norm_sqr().total_cmp(&b.norm_sqr()))
            .expect("matrix is non-empty");
        if other.data[idx].norm_sqr() < tol * tol {
            return self.approx_eq(other, tol);
        }
        let phase = self.data[idx] / other.data[idx];
        if (phase.abs() - 1.0).abs() > tol.max(1e-9) {
            return false;
        }
        self.approx_eq(&other.scaled(phase), tol)
    }

    /// Checks `A†A = I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let product = &self.dagger() * self;
        product.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Checks `A = A†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.rows == self.cols && self.approx_eq(&self.dagger(), tol)
    }
}

impl Default for CMatrix {
    /// The empty `0 × 0` matrix — the initial state of pooled scratch
    /// matrices that grow on first use.
    fn default() -> Self {
        CMatrix::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        self.matmul(rhs).expect("dimensions checked above")
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

/// A dense, row-major real matrix — the operand type of the real panel
/// GEMM ([`kernel::rmul_panel_into`]). The dense density engines score in
/// real-symmetric coordinates, so their cached operators and sample
/// panels are real.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes to `rows × cols` with every entry zero, reusing the
    /// backing allocation when its capacity suffices.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A·v`, each entry the same `k`-ordered
    /// `acc + a·v` chain as the real scalar oracle
    /// ([`kernel::rmul_panel_scalar`]).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(0.0, |acc, (a, x)| acc + a * x)
            })
            .collect()
    }

    /// `A·B` through the real panel kernel, written into a caller-owned
    /// output (reshaped to `self.rows() × rhs.cols()`, storage reused).
    /// Mirrors [`CMatrix::matmul_threaded_into`]: one full-width panel
    /// when sequential, fixed [`GEMM_COL_BLOCK`]-wide panels fanned over
    /// up to `threads` workers otherwise. Every output element is one
    /// fixed `k`-ordered chain (see [`kernel::rmul_panel_into`]), so
    /// results are bit-identical for every thread count and panel width.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`; `out` is untouched on error.
    pub fn matmul_threaded_into(
        &self,
        rhs: &RMatrix,
        threads: usize,
        out: &mut RMatrix,
    ) -> Result<(), QsimError> {
        if self.cols != rhs.rows {
            return Err(QsimError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        out.rows = self.rows;
        out.cols = rhs.cols;
        panel_gemm_into(
            self.rows,
            rhs.cols,
            threads,
            &mut out.data,
            |c0, c1, s, panel| {
                kernel::rmul_panel_into(
                    &self.data, self.rows, self.cols, &rhs.data, rhs.cols, c0, c1, s, panel,
                )
            },
        );
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for RMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for RMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = CMatrix::from_rows(&[&[c(1.0, 1.0), c(2.0, 0.0)], &[c(0.0, -1.0), c(3.0, 0.5)]]);
        let i = CMatrix::identity(2);
        assert!((&a * &i).approx_eq(&a, 1e-12));
        assert!((&i * &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = CMatrix::from_rows(&[&[c(1.0, 0.0), c(2.0, 0.0)], &[c(3.0, 0.0), c(4.0, 0.0)]]);
        let b = CMatrix::from_rows(&[&[c(5.0, 0.0), c(6.0, 0.0)], &[c(7.0, 0.0), c(8.0, 0.0)]]);
        let p = &a * &b;
        assert!(p.approx_eq(
            &CMatrix::from_rows(&[&[c(19.0, 0.0), c(22.0, 0.0)], &[c(43.0, 0.0), c(50.0, 0.0)]]),
            1e-12
        ));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = CMatrix::from_rows(&[&[c(1.0, 2.0), c(0.0, 1.0)], &[c(2.0, 0.0), c(1.0, -1.0)]]);
        let b = CMatrix::from_rows(&[&[c(0.5, 0.0), c(1.0, 1.0)], &[c(0.0, -2.0), c(3.0, 0.0)]]);
        let lhs = (&a * &b).dagger();
        let rhs = &b.dagger() * &a.dagger();
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_is_sum_of_diagonal() {
        let a = CMatrix::from_rows(&[&[c(1.0, 2.0), c(9.0, 9.0)], &[c(9.0, 9.0), c(3.0, -1.0)]]);
        assert!(a.trace().approx_eq(c(4.0, 1.0), 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let i = CMatrix::identity(2);
        let xi = x.kron(&i);
        assert_eq!(xi.rows(), 4);
        // X ⊗ I swaps the two-qubit basis blocks: |0a> <-> |1a>.
        let v = vec![c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0), c(4.0, 0.0)];
        let w = xi.mul_vec(&v);
        assert!(w[0].approx_eq(c(3.0, 0.0), 1e-12));
        assert!(w[1].approx_eq(c(4.0, 0.0), 1e-12));
        assert!(w[2].approx_eq(c(1.0, 0.0), 1e-12));
        assert!(w[3].approx_eq(c(2.0, 0.0), 1e-12));
    }

    #[test]
    fn unitarity_check_accepts_hadamard_rejects_scaled() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let h = CMatrix::from_rows(&[&[c(s, 0.0), c(s, 0.0)], &[c(s, 0.0), c(-s, 0.0)]]);
        assert!(h.is_unitary(1e-12));
        assert!(!h.scaled(c(2.0, 0.0)).is_unitary(1e-9));
    }

    #[test]
    fn hermitian_check() {
        let a = CMatrix::from_rows(&[&[c(2.0, 0.0), c(1.0, 1.0)], &[c(1.0, -1.0), c(5.0, 0.0)]]);
        assert!(a.is_hermitian(1e-12));
        let b = CMatrix::from_rows(&[&[c(2.0, 0.0), c(1.0, 1.0)], &[c(1.0, 1.0), c(5.0, 0.0)]]);
        assert!(!b.is_hermitian(1e-9));
    }

    #[test]
    fn phase_insensitive_equality() {
        let a = CMatrix::identity(2);
        let b = a.scaled(C64::cis(0.7));
        assert!(b.approx_eq_up_to_phase(&a, 1e-12));
        assert!(!b.approx_eq(&a, 1e-9));
        let c_ = CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        assert!(!c_.approx_eq_up_to_phase(&a, 1e-9));
    }

    #[test]
    fn from_flat_rejects_non_square() {
        assert!(CMatrix::from_flat(&[C64::ZERO; 3]).is_err());
        assert!(CMatrix::from_flat(&[C64::ZERO; 4]).is_ok());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CMatrix::from_rows(&[&[c(1.0, 1.0), c(2.0, 2.0)], &[c(3.0, 3.0), c(4.0, 4.0)]]);
        let b = CMatrix::identity(2);
        let sum = &a + &b;
        let back = &sum - &b;
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 2);
        let _ = &a * &b;
    }

    /// Pseudo-random but deterministic dense test matrix.
    fn dense(rows: usize, cols: usize, salt: u64) -> CMatrix {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let t = (i * cols + j) as f64 + salt as f64 * 0.37;
                m[(i, j)] = c((t * 0.7311).sin(), (t * 1.1931).cos());
            }
        }
        m
    }

    #[test]
    fn gemm_identity_law() {
        let m = dense(8, 40, 1);
        let i = CMatrix::identity(8);
        assert!(i.matmul(&m).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn gemm_composition_law() {
        // U·(V·M) = (U·V)·M across a panel boundary (40 > GEMM_COL_BLOCK).
        let u = dense(8, 8, 2);
        let v = dense(8, 8, 3);
        let m = dense(8, 40, 4);
        let nested = u.matmul(&v.matmul(&m).unwrap()).unwrap();
        let fused = u.matmul(&v).unwrap().matmul(&m).unwrap();
        assert!(nested.approx_eq(&fused, 1e-9));
    }

    #[test]
    fn gemm_agrees_with_repeated_apply_unitary_matvecs() {
        use crate::circuit::Circuit;
        use crate::statevector::Statevector;

        let mut qc = Circuit::new(3);
        qc.h(0).ry(0.8, 1).cx(0, 1).rz(1.3, 2).cx(1, 2);
        let u = qc.to_unitary().unwrap();

        // 37 unit-norm columns (crosses the panel boundary with a ragged
        // final panel).
        let cols: Vec<Vec<C64>> = (0..37)
            .map(|j| {
                let raw: Vec<C64> = (0..8)
                    .map(|i| c(((i * 37 + j) as f64 * 0.51).sin(), 0.0))
                    .collect();
                let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
                raw.iter().map(|&a| a * c(1.0 / norm, 0.0)).collect()
            })
            .collect();
        let packed = CMatrix::from_columns(&cols);
        let product = u.matmul(&packed).unwrap();

        for (j, col) in cols.iter().enumerate() {
            let mut sv = Statevector::from_amplitudes(col.clone()).unwrap();
            sv.apply_unitary(&u).unwrap();
            for (i, &expected) in sv.amplitudes().iter().enumerate() {
                assert!(
                    product[(i, j)].approx_eq(expected, 1e-12),
                    "column {j} row {i}: {} vs {}",
                    product[(i, j)],
                    expected
                );
            }
        }
    }

    #[test]
    fn gemm_non_square_shapes() {
        let a = dense(3, 5, 7);
        let b = dense(5, 2, 8);
        let p = a.matmul(&b).unwrap();
        assert_eq!((p.rows(), p.cols()), (3, 2));
        // Spot-check one entry against the definition.
        let mut expected = C64::ZERO;
        for k in 0..5 {
            expected += a[(2, k)] * b[(k, 1)];
        }
        assert!(p[(2, 1)].approx_eq(expected, 1e-12));
    }

    #[test]
    fn gemm_shape_mismatch_is_an_error() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(QsimError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn gemm_threaded_matches_sequential_bit_for_bit() {
        let a = dense(16, 16, 11);
        let b = dense(16, 100, 12); // four panels, ragged tail
        let seq = a.matmul_threaded(&b, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = a.matmul_threaded(&b, threads).unwrap();
            assert_eq!(seq.as_slice(), par.as_slice(), "threads = {threads}");
        }
    }

    #[test]
    fn gemm_matches_scalar_oracle_across_shapes() {
        // The dispatching kernel (SoA, or AVX2 under `--features simd`)
        // against the bit-exact scalar oracle, over shapes that exercise
        // ragged panels and remainder lanes.
        for (rows, inner, cols) in [(1, 1, 1), (3, 5, 2), (8, 8, 96), (16, 16, 100), (5, 9, 67)] {
            let a = dense(rows, inner, 31);
            let b = dense(inner, cols, 32);
            let oracle = a.matmul_scalar(&b).unwrap();
            let fast = a.matmul(&b).unwrap();
            if qsim_kernel_simd_active() {
                assert!(fast.approx_eq(&oracle, 1e-12), "{rows}x{inner}x{cols}");
            } else {
                assert_eq!(fast.as_slice(), oracle.as_slice(), "{rows}x{inner}x{cols}");
            }
            let threaded = a.matmul_threaded(&b, 4).unwrap();
            assert_eq!(fast.as_slice(), threaded.as_slice());
        }
    }

    fn qsim_kernel_simd_active() -> bool {
        crate::kernel::simd_active()
    }

    #[test]
    fn matmul_scalar_validates_shapes_like_matmul() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 2);
        assert!(matches!(
            a.matmul_scalar(&b),
            Err(QsimError::DimensionMismatch { .. })
        ));
        let empty = CMatrix::zeros(0, 4);
        let tall = CMatrix::zeros(4, 7);
        let p = empty.matmul_scalar(&tall).unwrap();
        assert_eq!((p.rows(), p.cols()), (0, 7));
    }

    #[test]
    fn gemm_matches_operator_mul() {
        let a = dense(6, 6, 21);
        let b = dense(6, 6, 22);
        assert!((&a * &b).approx_eq(&a.matmul(&b).unwrap(), 1e-15));
    }

    #[test]
    fn from_columns_round_trips_through_column() {
        let cols = vec![
            vec![c(1.0, 0.0), c(2.0, -1.0)],
            vec![c(0.0, 3.0), c(4.0, 0.5)],
            vec![c(5.0, 5.0), c(6.0, -6.0)],
        ];
        let m = CMatrix::from_columns(&cols);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(&m.column(j), col);
        }
        assert_eq!(m.row(0), &[cols[0][0], cols[1][0], cols[2][0]]);
    }
}
