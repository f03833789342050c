//! Property pins for the GEMM kernel layer: the dispatching split-complex
//! kernel (autovectorised SoA, AVX-recompiled SoA, or AVX2/FMA intrinsics
//! under `--features simd`) against the bit-exact scalar oracle on
//! [`CMatrix::matmul_scalar`], across non-square, odd and remainder-lane
//! shapes, ragged panels, structural zeros and thread counts — and the
//! real panel kernel behind [`RMatrix::matmul_threaded_into`] against its
//! scalar oracle ([`rmul_panel_scalar`]): bit-exact without the FMA rung,
//! ≤ 1e-12 with it, and in every build one fixed chain per output
//! element, so a column's bits never depend on panel width, column
//! position or thread count.
//!
//! The fast blocks run on every `cargo test`; the `#[ignore]`d block is
//! the exhaustive suite CI executes with `cargo test -- --ignored` and a
//! bumped `PROPTEST_CASES` — under both the default and the `simd`
//! feature builds.

use proptest::prelude::*;
use quorum::sim::complex::C64;
use quorum::sim::kernel::{rmul_panel_into, rmul_panel_scalar, simd_active, PanelScratch};
use quorum::sim::matrix::{CMatrix, RMatrix, GEMM_COL_BLOCK};

/// Pseudo-random but deterministic dense matrix.
fn dense(rows: usize, cols: usize, salt: u64) -> CMatrix {
    let mut m = CMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let t = (i * cols + j) as f64 + salt as f64 * 0.377;
            m[(i, j)] = C64::new((t * 0.7311).sin(), (t * 1.1931).cos());
        }
    }
    m
}

/// Like [`dense`], with a deterministic sprinkle of structural zeros so
/// the oracle's sparse-term skip and the branchless kernels disagree on
/// nothing but the sign of zero.
fn sparse(rows: usize, cols: usize, salt: u64) -> CMatrix {
    let mut m = dense(rows, cols, salt);
    for i in 0..rows {
        for j in 0..cols {
            if (i * 7 + j * 3 + salt as usize).is_multiple_of(5) {
                m[(i, j)] = C64::ZERO;
            }
        }
    }
    m
}

fn check_against_oracle(a: &CMatrix, b: &CMatrix) {
    let oracle = a.matmul_scalar(b).unwrap();
    let fast = a.matmul(b).unwrap();
    assert_eq!((fast.rows(), fast.cols()), (oracle.rows(), oracle.cols()));
    for (i, (f, o)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert!(
            f.approx_eq(*o, 1e-12),
            "{}x{}·{}x{} entry {i}: dispatched {f} vs oracle {o}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
    }
    // Thread-count invariance is bit-for-bit: panels are position-fixed
    // and every panel runs the same kernel.
    for threads in [2usize, 4] {
        let threaded = a.matmul_threaded(b, threads).unwrap();
        assert_eq!(fast.as_slice(), threaded.as_slice(), "threads {threads}");
    }
}

/// Pseudo-random but deterministic real matrix.
fn real(rows: usize, cols: usize, salt: u64) -> RMatrix {
    let mut m = RMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let t = (i * cols + j) as f64 + salt as f64 * 0.377;
            m[(i, j)] = (t * 0.7311).sin() + 0.5 * (t * 1.1931).cos();
        }
    }
    m
}

fn real_product(a: &RMatrix, b: &RMatrix, threads: usize) -> RMatrix {
    let mut out = RMatrix::default();
    a.matmul_threaded_into(b, threads, &mut out).unwrap();
    out
}

fn check_real_against_oracle(a: &RMatrix, b: &RMatrix) {
    let oracle = rmul_panel_scalar(
        a.as_slice(),
        a.rows(),
        a.cols(),
        b.as_slice(),
        b.cols(),
        0,
        b.cols(),
    );
    let fast = real_product(a, b, 1);
    assert_eq!((fast.rows(), fast.cols()), (a.rows(), b.cols()));
    let shape = format!("{}x{}·{}x{}", a.rows(), a.cols(), b.rows(), b.cols());
    if simd_active() {
        for (i, (f, o)) in fast.as_slice().iter().zip(&oracle).enumerate() {
            assert!((f - o).abs() <= 1e-12, "{shape} entry {i}: {f} vs {o}");
        }
    } else {
        // Mul-then-add in the oracle's order at every rung: bit-exact.
        assert_eq!(fast.as_slice(), oracle.as_slice(), "{shape}");
    }
    for threads in [2usize, 3, 4] {
        let threaded = real_product(a, b, threads);
        assert_eq!(
            fast.as_slice(),
            threaded.as_slice(),
            "{shape} threads {threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The real kernel over random shapes straddling its 4-row/8-lane
    /// tiles and the panel boundary.
    #[test]
    fn real_gemm_matches_scalar_oracle(
        rows in 1usize..40,
        inner in 1usize..40,
        cols in 1usize..150,
        salt in 0u64..10_000,
    ) {
        check_real_against_oracle(&real(rows, inner, salt), &real(inner, cols, salt + 1));
    }

    /// Random shapes straddling the 4-row/4-lane register tiles and the
    /// panel boundary, dense and zero-sprinkled alike.
    #[test]
    fn dispatched_gemm_matches_scalar_oracle(
        rows in 1usize..24,
        inner in 1usize..24,
        cols in 1usize..90,
        salt in 0u64..10_000,
    ) {
        check_against_oracle(&dense(rows, inner, salt), &dense(inner, cols, salt + 1));
        check_against_oracle(&sparse(rows, inner, salt + 2), &sparse(inner, cols, salt + 3));
    }

    /// Unitary-shaped products (the batched engines' shapes): a square
    /// power-of-two operator times a wide batch.
    #[test]
    fn dispatched_gemm_matches_oracle_on_engine_shapes(
        log_dim in 1u32..7,
        batch in 1usize..100,
        salt in 0u64..10_000,
    ) {
        let dim = 1usize << log_dim;
        check_against_oracle(&dense(dim, dim, salt), &dense(dim, batch, salt + 1));
    }
}

#[test]
fn panel_boundary_shapes_are_exact() {
    // Widths around GEMM_COL_BLOCK exercise full panels, ragged tails and
    // the single-panel sequential fast path.
    for cols in [
        GEMM_COL_BLOCK - 1,
        GEMM_COL_BLOCK,
        GEMM_COL_BLOCK + 1,
        2 * GEMM_COL_BLOCK + 3,
    ] {
        check_against_oracle(&dense(16, 16, 5), &dense(16, cols, 6));
    }
}

#[test]
fn real_gemm_columns_ignore_panel_width_and_position() {
    // Every output column must carry the same bits whichever tile lane,
    // remainder path or panel offset computes it: one sample scored alone
    // must match the same sample inside a coalesced batch.
    let a = real(37, 29, 11);
    let b = real(29, 48, 12);
    let full = real_product(&a, &b, 1);
    let mut scratch = PanelScratch::new();
    let mut panel = Vec::new();
    for width in 1..=40usize {
        for offset in [0usize, 1, 3, 7] {
            if offset + width > b.cols() {
                continue;
            }
            // A panel of the full matrix…
            rmul_panel_into(
                a.as_slice(),
                a.rows(),
                a.cols(),
                b.as_slice(),
                b.cols(),
                offset,
                offset + width,
                &mut scratch,
                &mut panel,
            );
            // …and the same columns as a matrix of their own.
            let mut sub = RMatrix::zeros(b.rows(), width);
            for k in 0..b.rows() {
                for j in 0..width {
                    sub[(k, j)] = b[(k, offset + j)];
                }
            }
            let alone = real_product(&a, &sub, 1);
            for i in 0..a.rows() {
                for j in 0..width {
                    let want = full[(i, offset + j)].to_bits();
                    assert_eq!(
                        panel[i * width + j].to_bits(),
                        want,
                        "panel w{width} o{offset}"
                    );
                    assert_eq!(alone[(i, j)].to_bits(), want, "matrix w{width} o{offset}");
                }
            }
        }
    }
}

#[test]
fn identity_and_zero_operands() {
    let m = dense(8, 40, 9);
    let id = CMatrix::identity(8);
    let through = id.matmul(&m).unwrap();
    assert!(through.approx_eq(&m, 1e-12));
    let z = CMatrix::zeros(8, 8);
    let zero = z.matmul(&m).unwrap();
    assert!(zero.approx_eq(&CMatrix::zeros(8, 40), 1e-12));
}

proptest! {
    // Source default of 256 cases, overridable via PROPTEST_CASES (CI
    // bumps it only for the --ignored job).
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive kernel-equivalence sweep — cheap per case, so it can
    /// afford hundreds of cases in the ignored CI job.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_dispatched_gemm_matches_scalar_oracle(
        rows in 1usize..40,
        inner in 1usize..40,
        cols in 1usize..130,
        salt in 0u64..1_000_000,
    ) {
        check_against_oracle(&dense(rows, inner, salt), &dense(inner, cols, salt + 1));
        check_against_oracle(&sparse(rows, inner, salt + 2), &sparse(inner, cols, salt + 3));
        check_real_against_oracle(&real(rows, inner, salt + 4), &real(inner, cols, salt + 5));
    }
}
