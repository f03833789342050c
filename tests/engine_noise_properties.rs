//! Property pins for the analytic density noise engine: under every noise
//! model the `n`-qubit `vec(ρ)` path (the folded noisy operators and the
//! folded SWAP-test readout, built from the channel program and the
//! readout MPO on the real-symmetric basis) must agree with the
//! paper-literal noisy `2n+1`-qubit circuit simulation — across random
//! ansatz draws, register widths n ∈ {2, 3}, reset counts and the
//! ideal/Brisbane/scaled noise models — and must collapse onto the
//! pure-state analytic engine when the noise model is ideal.
//!
//! The fast blocks run on every `cargo test`; the `#[ignore]`d blocks are
//! the slow exhaustive suite CI executes with `cargo test -- --ignored`
//! and a bumped `PROPTEST_CASES`.

use proptest::prelude::*;
use quorum::core::bucket::BucketPlan;
use quorum::core::engine::{
    AnalyticEngine, CircuitEngine, DensityEngine, SampleDensityEngine, ScoringEngine,
};
use quorum::core::ensemble::EnsembleGroup;
use quorum::core::{ExecutionMode, QuorumConfig};
use quorum::data::Dataset;
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
                    let t = (i * features + j) as f64 + salt as f64 * 0.13;
                    (t * 0.7182).sin().abs() / m
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("noise-props", rows, None).unwrap()
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

/// Runs the density-vs-circuit comparison for one (seed, group) draw at
/// one register width, over every noise model and reset count.
fn check_density_vs_circuit(data_qubits: usize, seed: u64, group_index: usize, samples: usize) {
    for noise in noise_models() {
        let config = noisy_config(data_qubits, seed, noise, None);
        let ds = normalized_dataset(config.features_per_circuit(), samples, seed);
        let group = group_for(&config, ds.num_features(), group_index);
        for reset_count in 1..data_qubits {
            let circuit = CircuitEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap();
            let density = DensityEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap();
            for (i, (c, d)) in circuit.iter().zip(&density).enumerate() {
                assert!(
                    (c - d).abs() <= 1e-9,
                    "n={data_qubits} reset={reset_count} seed={seed} sample {i}: \
                     circuit {c} vs density {d}"
                );
            }
        }
    }
}

/// Ideal-noise density deviations against the pure-state analytic engine,
/// at the tight 1e-12 tolerance.
fn check_ideal_density_vs_analytic(data_qubits: usize, seed: u64, group_index: usize) {
    let exact = QuorumConfig::default()
        .with_data_qubits(data_qubits)
        .with_seed(seed);
    let ideal = noisy_config(data_qubits, seed, NoiseModel::ideal(), None);
    let ds = normalized_dataset(exact.features_per_circuit(), 8, seed);
    let group = group_for(&exact, ds.num_features(), group_index);
    for reset_count in 1..data_qubits {
        let analytic = AnalyticEngine
            .deviations(&group, &ds, &exact, reset_count)
            .unwrap();
        let density = DensityEngine
            .deviations(&group, &ds, &ideal, reset_count)
            .unwrap();
        for (i, (a, d)) in analytic.iter().zip(&density).enumerate() {
            assert!(
                (a - d).abs() <= 1e-12,
                "n={data_qubits} reset={reset_count} seed={seed} sample {i}: \
                 analytic {a} vs density {d}"
            );
        }
    }
}

/// The batched vec(ρ) GEMM path against the per-sample density oracle:
/// both engines over the full level sweep, at one register width, across
/// every noise model. The two paths accumulate each sample in the same
/// index order, so 1e-9 is generous (they are value-identical without the
/// `simd` feature and within FMA rounding with it).
fn check_batched_density_vs_per_sample(
    data_qubits: usize,
    seed: u64,
    group_index: usize,
    samples: usize,
) {
    let levels: Vec<usize> = (1..data_qubits).collect();
    for noise in noise_models() {
        let config = noisy_config(data_qubits, seed, noise, None);
        let ds = normalized_dataset(config.features_per_circuit(), samples, seed);
        let group = group_for(&config, ds.num_features(), group_index);
        let batched = DensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap();
        let per_sample = SampleDensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap();
        for (level, (b, s)) in batched.iter().zip(&per_sample).enumerate() {
            for (i, (bv, sv)) in b.iter().zip(s).enumerate() {
                assert!(
                    (bv - sv).abs() <= 1e-9,
                    "n={data_qubits} level={} seed={seed} sample {i}: \
                     batched {bv} vs per-sample {sv}",
                    levels[level]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fast pin at n=2, where the noisy `2n+1`-qubit oracle is cheap:
    /// density vs circuit across random ansatz draws and all noise models.
    #[test]
    fn density_matches_circuit_n2(
        seed in 0u64..10_000,
        group_index in 0usize..4,
    ) {
        check_density_vs_circuit(2, seed, group_index, 6);
    }

    /// With an ideal noise model the density path must reproduce the
    /// pure-state analytic engine to 1e-12, at both register widths.
    #[test]
    fn ideal_density_matches_analytic(
        seed in 0u64..10_000,
        group_index in 0usize..4,
    ) {
        for data_qubits in 2usize..=3 {
            check_ideal_density_vs_analytic(data_qubits, seed, group_index);
        }
    }

    /// Deterministic sampling: the density engine's Noisy + shots draws are
    /// reproducible, and they coincide with the circuit oracle's draws
    /// (same exact probability, same per-measurement seed, same sampler).
    #[test]
    fn density_sampled_matches_circuit_sampled(
        seed in 0u64..10_000,
        shots in 64u64..4096,
    ) {
        let config = noisy_config(2, seed, NoiseModel::brisbane(), Some(shots));
        let ds = normalized_dataset(config.features_per_circuit(), 6, seed);
        let group = group_for(&config, ds.num_features(), 0);
        let density = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        let again = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        prop_assert_eq!(&density, &again);
        let circuit = CircuitEngine.deviations(&group, &ds, &config, 1).unwrap();
        for (c, d) in circuit.iter().zip(&density) {
            // Identical binomial draws up to knife-edge rounding of the
            // underlying probability (absent at these tolerances).
            prop_assert!((c - d).abs() <= 1.0 / shots as f64, "circuit {} vs density {}", c, d);
        }
    }

    /// The batched vec(ρ) GEMM path against the per-sample density oracle
    /// across widths, resets and noise models — the satellite pin for the
    /// PR 4 batching. Cheap per case (no circuit oracle), n ∈ {2, 3}.
    #[test]
    fn batched_density_matches_per_sample(
        seed in 0u64..10_000,
        group_index in 0usize..4,
    ) {
        for data_qubits in 2usize..=3 {
            check_batched_density_vs_per_sample(data_qubits, seed, group_index, 8);
        }
    }

    /// Shot-sampled draws through the batched path coincide with the
    /// per-sample path's: same (to machine precision) exact deviation,
    /// same per-measurement seeds, same sampler.
    #[test]
    fn batched_density_sampled_matches_per_sample_sampled(
        seed in 0u64..10_000,
        shots in 64u64..4096,
    ) {
        let config = noisy_config(3, seed, NoiseModel::brisbane(), Some(shots));
        let ds = normalized_dataset(config.features_per_circuit(), 6, seed);
        let group = group_for(&config, ds.num_features(), 1);
        let batched = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        let per_sample = SampleDensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        for (b, s) in batched.iter().zip(&per_sample) {
            prop_assert!(
                (b - s).abs() <= 1.0 / shots as f64,
                "batched {} vs per-sample {}", b, s
            );
        }
    }
}

/// The flagship width n=3 against the noisy circuit oracle on pinned
/// seeds — the oracle is a 7-qubit density simulation per sample, so the
/// seed list stays short here and the proptest sweep lives in the
/// `#[ignore]`d suite below.
#[test]
fn density_matches_circuit_n3_pinned_seeds() {
    for seed in [7u64, 5113] {
        check_density_vs_circuit(3, seed, seed as usize % 4, 3);
    }
}

/// Noisy deviations are probabilities: within `[0, 1]`, and squeezed away
/// from the extremes by at least the readout confusion under Brisbane.
#[test]
fn noisy_deviations_stay_in_readout_range() {
    let noise = NoiseModel::brisbane();
    let e = noise.readout_error;
    let config = noisy_config(3, 23, noise, None);
    let ds = normalized_dataset(config.features_per_circuit(), 10, 23);
    let group = group_for(&config, ds.num_features(), 1);
    for reset_count in 1..3 {
        for p in DensityEngine
            .deviations(&group, &ds, &config, reset_count)
            .unwrap()
        {
            assert!(
                (e - 1e-12..=1.0 - e + 1e-12).contains(&p),
                "deviation {p} escapes the readout-confined range"
            );
        }
    }
}

/// Channel law through the public group API: every fused noisy
/// superoperator (the complex map the folded scoring operators are
/// folded from) is trace-preserving — for each matrix-unit column the
/// output trace equals the input trace, across models and levels.
#[test]
fn fused_noisy_superops_preserve_trace_across_models_and_levels() {
    for data_qubits in 2usize..=3 {
        let config = noisy_config(data_qubits, 17, NoiseModel::brisbane(), None);
        let group = group_for(&config, config.features_per_circuit(), 0);
        let dim = 1usize << data_qubits;
        for noise in noise_models() {
            for reset_count in 1..data_qubits {
                let superop = group.fused_noisy_superop(&noise, reset_count).unwrap();
                for i in 0..dim {
                    for j in 0..dim {
                        let mut trace_re = 0.0;
                        let mut trace_im = 0.0;
                        for d in 0..dim {
                            let z = superop[(d * dim + d, i * dim + j)];
                            trace_re += z.re;
                            trace_im += z.im;
                        }
                        let expected = if i == j { 1.0 } else { 0.0 };
                        assert!(
                            (trace_re - expected).abs() < 1e-12 && trace_im.abs() < 1e-12,
                            "n={data_qubits} reset={reset_count} column ({i},{j}): \
                             trace {trace_re}+{trace_im}i"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    // Source default of 256 cases, overridable via PROPTEST_CASES (CI
    // bumps it only for the --ignored job).
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive ideal-density-vs-analytic pin. Cheap per case (no
    /// circuit simulation), so it can afford hundreds of cases.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_ideal_density_matches_analytic(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
    ) {
        for data_qubits in 2usize..=3 {
            check_ideal_density_vs_analytic(data_qubits, seed, group_index);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive noisy equivalence including the n=3 circuit oracle. The
    /// oracle's 7-qubit noisy density simulation dominates, so the case
    /// count is pinned lower than the analytic-only suite (the PR 2
    /// pattern).
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_density_matches_circuit(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
    ) {
        for data_qubits in 2usize..=3 {
            check_density_vs_circuit(data_qubits, seed, group_index, 4);
        }
    }
}

proptest! {
    // Source default of 256 cases, overridable via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive batched-vs-per-sample density pin — no circuit oracle,
    /// so it can afford the full default case count in the CI ignored job.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_batched_density_matches_per_sample(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
    ) {
        for data_qubits in 2usize..=3 {
            check_batched_density_vs_per_sample(data_qubits, seed, group_index, 6);
        }
    }
}
