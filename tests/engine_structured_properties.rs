//! Property pins for the structured density noise engine: the per-gate
//! channel-program walk plus the bond-4 MPO SWAP-test readout must
//! reproduce the dense folded-operator engine — across random ansatz
//! draws, register widths n ∈ {2, 3}, reset counts, the
//! ideal/Brisbane/scaled noise models, and batch sizes straddling the
//! lockstep column-block boundary — and the new per-op column kernels
//! (reset, amplitude damping, phase damping, general 2q superoperator)
//! must satisfy their channel laws against the per-sample dense kernels.
//!
//! The dense engine applies the same channel programs and MPO to the
//! real-symmetric basis panels and scores folded states with real GEMMs;
//! the structured path applies them op by op and never folds, so this
//! suite also pins the fold. The two reassociate floating-point products
//! (bond-sweep readout, per-sample accumulation), so the equivalence
//! tolerance is 1e-9 rather than 1e-12.
//!
//! The fast blocks run on every `cargo test`; the `#[ignore]`d blocks
//! are the slow exhaustive suite CI executes with `cargo test --
//! --ignored` and a bumped `PROPTEST_CASES`.

use proptest::prelude::*;
use quorum::core::bucket::BucketPlan;
use quorum::core::engine::{DensityEngine, ScoringEngine, StructuredDensityEngine};
use quorum::core::ensemble::EnsembleGroup;
use quorum::core::{ExecutionMode, QuorumConfig};
use quorum::data::Dataset;
use quorum::sim::complex::C64;
use quorum::sim::density::{
    apply_amplitude_damping_columns, apply_phase_damping_columns, apply_reset_columns,
    apply_superop_2q_columns, superop_from_kraus, superop_to_array_2q, DensityMatrix,
};
use quorum::sim::matrix::{CMatrix, GEMM_COL_BLOCK};
use quorum::sim::NoiseModel;

/// The noise models every equivalence block sweeps: no noise at all, the
/// paper's Brisbane preset, and an ablation-style amplified copy.
fn noise_models() -> Vec<NoiseModel> {
    vec![
        NoiseModel::ideal(),
        NoiseModel::brisbane(),
        NoiseModel::brisbane().scaled(2.0),
    ]
}

/// A spread-out dataset with `features` columns in the embedded range.
fn normalized_dataset(features: usize, samples: usize, salt: u64) -> Dataset {
    let m = features as f64;
    let rows: Vec<Vec<f64>> = (0..samples)
        .map(|i| {
            (0..features)
                .map(|j| {
                    let t = (i * features + j) as f64 + salt as f64 * 0.29;
                    (t * 0.5417).sin().abs() / m
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("structured-props", rows, None).unwrap()
}

/// A group drawn from `config`'s seed (bucket plan sized independently of
/// the scored batch — deviations never touch buckets).
fn group_for(config: &QuorumConfig, num_features: usize, index: usize) -> EnsembleGroup {
    let plan = BucketPlan::from_target(64, 0.1, config.bucket_probability);
    EnsembleGroup::generate(index, config, num_features, &plan)
}

fn noisy_config(
    data_qubits: usize,
    seed: u64,
    noise: NoiseModel,
    shots: Option<u64>,
) -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(data_qubits)
        .with_seed(seed)
        .with_execution(ExecutionMode::Noisy { noise, shots })
}

/// Runs the structured-vs-dense comparison for one (seed, group) draw at
/// one register width and batch size, over every noise model with the
/// full level sweep.
fn check_structured_vs_dense(data_qubits: usize, seed: u64, group_index: usize, samples: usize) {
    let levels: Vec<usize> = (1..data_qubits).collect();
    for noise in noise_models() {
        let config = noisy_config(data_qubits, seed, noise, None);
        let ds = normalized_dataset(config.features_per_circuit(), samples, seed);
        let group = group_for(&config, ds.num_features(), group_index);
        let dense = DensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap();
        let structured = StructuredDensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap();
        for (level, (d, s)) in dense.iter().zip(&structured).enumerate() {
            assert_eq!(s.len(), samples);
            for (i, (dv, sv)) in d.iter().zip(s).enumerate() {
                assert!(
                    (dv - sv).abs() <= 1e-9,
                    "n={data_qubits} level={} seed={seed} sample {i}: \
                     dense {dv} vs structured {sv}",
                    levels[level]
                );
            }
        }
    }
}

/// Deterministic trace-1 PSD matrix (a valid mixed state).
fn test_state(num_qubits: usize, salt: u64) -> CMatrix {
    let dim = 1usize << num_qubits;
    let mut a = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            let t = (i * dim + j) as f64 + salt as f64 * 0.83;
            a[(i, j)] = C64::new((t * 1.117).sin(), (t * 0.733).cos());
        }
    }
    let mut rho = &a.dagger() * &a;
    let tr: f64 = (0..dim).map(|i| rho[(i, i)].re).sum();
    for i in 0..dim {
        for j in 0..dim {
            rho[(i, j)] = rho[(i, j)].scale(1.0 / tr);
        }
    }
    rho
}

/// Packs `samples` deterministic mixed states into a row-major
/// `4^n × samples` vec(ρ) panel (plus the states themselves).
fn state_panel(num_qubits: usize, samples: usize, salt: u64) -> (Vec<CMatrix>, Vec<C64>) {
    let dim = 1usize << num_qubits;
    let states: Vec<CMatrix> = (0..samples)
        .map(|j| test_state(num_qubits, salt + j as u64))
        .collect();
    let mut panel = vec![C64::ZERO; dim * dim * samples];
    for (j, s) in states.iter().enumerate() {
        for r in 0..dim {
            for c in 0..dim {
                panel[(r * dim + c) * samples + j] = s[(r, c)];
            }
        }
    }
    (states, panel)
}

/// Asserts a panel column equals a dense per-sample result entrywise and
/// that its trace is exactly preserved (the CPTP law every channel
/// kernel must satisfy on valid states).
fn assert_column_matches(
    panel: &[C64],
    samples: usize,
    j: usize,
    dim: usize,
    expect: &DensityMatrix,
    label: &str,
) {
    let expect = expect.as_slice();
    for idx in 0..dim * dim {
        let got = panel[idx * samples + j];
        assert!(
            got.approx_eq(expect[idx], 1e-12),
            "{label} sample {j} entry {idx}: {got} vs {}",
            expect[idx]
        );
    }
    let mut trace = C64::ZERO;
    for r in 0..dim {
        trace += panel[(r * dim + r) * samples + j];
    }
    assert!(
        (trace.re - 1.0).abs() < 1e-12 && trace.im.abs() < 1e-12,
        "{label} sample {j}: trace {trace} not preserved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline pin: structured vs dense across widths, resets and
    /// noise models, over random ansatz draws.
    #[test]
    fn structured_matches_dense(
        seed in 0u64..10_000,
        group_index in 0usize..4,
    ) {
        for data_qubits in 2usize..=3 {
            check_structured_vs_dense(data_qubits, seed, group_index, 6);
        }
    }

    /// Shot-sampled draws through the structured path coincide with the
    /// dense path's: same (to 1e-9) exact deviation, same
    /// per-measurement seeds, same sampler.
    #[test]
    fn structured_sampled_matches_dense_sampled(
        seed in 0u64..10_000,
        shots in 64u64..4096,
    ) {
        let config = noisy_config(3, seed, NoiseModel::brisbane(), Some(shots));
        let ds = normalized_dataset(config.features_per_circuit(), 6, seed);
        let group = group_for(&config, ds.num_features(), 1);
        let dense = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        let structured = StructuredDensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        let again = StructuredDensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        prop_assert_eq!(&structured, &again);
        for (d, s) in dense.iter().zip(&structured) {
            // Identical binomial draws up to knife-edge rounding of the
            // underlying probability (absent at these tolerances).
            prop_assert!((d - s).abs() <= 1.0 / shots as f64, "dense {} vs structured {}", d, s);
        }
    }

    /// Amplitude damping as a column kernel against the per-sample Kraus
    /// oracle, across the whole parameter range, on every qubit of both
    /// widths — entrywise equality and exact trace preservation.
    #[test]
    fn amplitude_damping_columns_match_kraus_and_preserve_trace(
        gamma_ppm in 0u64..=1_000_000,
        salt in 0u64..10_000,
    ) {
        let gamma = gamma_ppm as f64 / 1e6;
        for num_qubits in 1usize..=2 {
            let dim = 1usize << num_qubits;
            let samples = 3;
            for qubit in 0..num_qubits {
                let (states, mut panel) = state_panel(num_qubits, samples, salt);
                apply_amplitude_damping_columns(&mut panel, dim, samples, qubit, gamma);
                for (j, s) in states.iter().enumerate() {
                    let mut rho = DensityMatrix::from_cmatrix(s).unwrap();
                    rho.apply_kraus(&quorum::sim::noise::amplitude_damping(gamma), &[qubit])
                        .unwrap();
                    assert_column_matches(&panel, samples, j, dim, &rho, "amp-damp");
                }
            }
        }
    }

    /// Phase damping as a column kernel against the per-sample Kraus
    /// oracle, across the whole parameter range.
    #[test]
    fn phase_damping_columns_match_kraus_and_preserve_trace(
        lambda_ppm in 0u64..=1_000_000,
        salt in 0u64..10_000,
    ) {
        let lambda = lambda_ppm as f64 / 1e6;
        for num_qubits in 1usize..=2 {
            let dim = 1usize << num_qubits;
            let samples = 3;
            for qubit in 0..num_qubits {
                let (states, mut panel) = state_panel(num_qubits, samples, salt);
                apply_phase_damping_columns(&mut panel, dim, samples, qubit, lambda);
                for (j, s) in states.iter().enumerate() {
                    let mut rho = DensityMatrix::from_cmatrix(s).unwrap();
                    rho.apply_kraus(&quorum::sim::noise::phase_damping(lambda), &[qubit])
                        .unwrap();
                    assert_column_matches(&panel, samples, j, dim, &rho, "phase-damp");
                }
            }
        }
    }
}

/// Reset as a column kernel against the per-sample oracle: the reset
/// qubit collapses to |0⟩, trace preserved, on every qubit position.
#[test]
fn reset_columns_match_per_sample_reset_and_preserve_trace() {
    for num_qubits in 1usize..=3 {
        let dim = 1usize << num_qubits;
        let samples = 4;
        for qubit in 0..num_qubits {
            let (states, mut panel) = state_panel(num_qubits, samples, 5 + qubit as u64);
            apply_reset_columns(&mut panel, dim, samples, qubit);
            for (j, s) in states.iter().enumerate() {
                let mut rho = DensityMatrix::from_cmatrix(s).unwrap();
                rho.reset(qubit).unwrap();
                assert_column_matches(&panel, samples, j, dim, &rho, "reset");
            }
        }
    }
}

/// The general 16×16 two-qubit superoperator column kernel against the
/// per-sample dense oracle, for a non-CX unitary conjugation (the op the
/// channel IR emits for 2q gates surviving lowering) on every ordered
/// qubit pair — including pairs where the sub-index order is reversed
/// relative to the register order.
#[test]
fn superop_2q_columns_match_per_sample_oracle() {
    use quorum::sim::gate::Gate;
    let s_mat = superop_from_kraus(&[Gate::Swap.matrix()]);
    let s = superop_to_array_2q(&s_mat);
    for num_qubits in 2usize..=3 {
        let dim = 1usize << num_qubits;
        let samples = 3;
        for qa in 0..num_qubits {
            for qb in 0..num_qubits {
                if qa == qb {
                    continue;
                }
                let (states, mut panel) = state_panel(num_qubits, samples, 11);
                apply_superop_2q_columns(&mut panel, dim, samples, qa, qb, &s);
                for (j, st) in states.iter().enumerate() {
                    let mut rho = DensityMatrix::from_cmatrix(st).unwrap();
                    rho.apply_superop_2q(qa, qb, &s_mat).unwrap();
                    assert_column_matches(&panel, samples, j, dim, &rho, "superop-2q");
                }
            }
        }
    }
}

/// Batch sizes straddling the lockstep column-block boundary: the
/// structured scorer walks fixed [`GEMM_COL_BLOCK`]-wide blocks, so
/// sizes around the edge (and a single-sample batch) must all agree
/// with the dense path.
#[test]
fn structured_matches_dense_at_block_edges() {
    for samples in [1, GEMM_COL_BLOCK - 1, GEMM_COL_BLOCK, GEMM_COL_BLOCK + 1] {
        check_structured_vs_dense(2, 31, 0, samples);
    }
}

/// Thread-count invariance: block boundaries never move with the worker
/// count, so the structured results are bit-identical across thread
/// counts (same guarantee the lockstep preparation gives).
#[test]
fn structured_results_are_thread_count_invariant() {
    let samples = GEMM_COL_BLOCK + 7;
    let base = noisy_config(3, 41, NoiseModel::brisbane(), None);
    let ds = normalized_dataset(base.features_per_circuit(), samples, 41);
    let group = group_for(&base, ds.num_features(), 2);
    let levels: Vec<usize> = (1..3).collect();
    let single = StructuredDensityEngine
        .deviations_all_levels(&group, &ds, &base.clone().with_threads(1), &levels)
        .unwrap();
    for threads in [2, 4] {
        let multi = StructuredDensityEngine
            .deviations_all_levels(&group, &ds, &base.clone().with_threads(threads), &levels)
            .unwrap();
        assert_eq!(single, multi, "{threads} threads diverged from 1");
    }
}

/// The structured engine is the only density path past the dense width
/// cap: a 7-qubit register scores end to end (no 15-qubit observable,
/// no 16^7 superoperator), and its deviations are valid probabilities.
#[test]
fn structured_scores_registers_past_the_dense_cap() {
    let config = noisy_config(7, 3, NoiseModel::brisbane(), None);
    let ds = normalized_dataset(config.features_per_circuit(), 2, 3);
    let group = group_for(&config, ds.num_features(), 0);
    assert!(
        DensityEngine.deviations(&group, &ds, &config, 1).is_err(),
        "the dense engine must reject n=7"
    );
    let devs = StructuredDensityEngine
        .deviations(&group, &ds, &config, 1)
        .unwrap();
    assert_eq!(devs.len(), 2);
    for d in devs {
        assert!(
            (0.0..=1.0).contains(&d),
            "deviation {d} is not a probability"
        );
    }
}

proptest! {
    // Source default of 256 cases, overridable via PROPTEST_CASES (CI
    // bumps it only for the --ignored job).
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive structured-vs-dense pin — no circuit oracle, so it can
    /// afford the full default case count in the CI ignored job.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_structured_matches_dense(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
    ) {
        for data_qubits in 2usize..=3 {
            check_structured_vs_dense(data_qubits, seed, group_index, 6);
        }
    }

    /// Exhaustive block-edge sweep at randomized batch sizes around the
    /// column-block boundary.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_structured_matches_dense_at_random_batch_sizes(
        seed in 0u64..1_000_000,
        samples in 1usize..=(2 * GEMM_COL_BLOCK),
    ) {
        check_structured_vs_dense(2, seed, seed as usize % 4, samples);
    }
}
