//! Group-parallel identity suite: scoring a panel with any number of
//! pool participants must be bit-identical to the default path, for
//! every execution mode and engine — the ascending-group merge makes
//! scores invariant to who scores each group, the same way they are
//! invariant to coalescing.

use qdata::Dataset;
use qsim::NoiseModel;
use quorum_core::config::{EngineKind, ExecutionMode};
use quorum_core::QuorumConfig;
use quorum_serve::{FrozenDetector, ServeError, ShardPolicy, ShardedScorer};
use std::sync::Arc;

const GROUPS: usize = 5;

/// A deterministic 12×7 dataset with enough spread for stable buckets.
fn reference() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..7)
                .map(|j| {
                    let x = (i * 7 + j) as f64;
                    (x * 0.37).sin() * (1.0 + 0.1 * j as f64) + 0.01 * x
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("shard-ref", rows, None).unwrap()
}

/// Streamed rows distinct from the reference set.
fn stream_rows(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..7)
                .map(|j| ((i * 13 + j * 5) as f64 * 0.23).cos() * 0.8 + 0.05 * j as f64)
                .collect()
        })
        .collect()
}

fn base_config() -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(3)
        .with_ensemble_groups(GROUPS)
        .with_ansatz_layers(2)
        .with_threads(2)
        .with_seed(0x5EEF_1E55)
}

fn noisy_config(engine: EngineKind) -> QuorumConfig {
    base_config()
        .with_engine(engine)
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(128),
        })
}

/// Pins the core invariance: for every worker count, the scores equal
/// both the default path and the per-group partials summed one group at
/// a time in ascending order, bit for bit.
fn assert_shard_invariant(config: QuorumConfig, shard_counts: &[usize]) {
    let frozen = Arc::new(FrozenDetector::freeze(config, &reference()).unwrap());
    let rows = stream_rows(9);
    let single = frozen.score_samples(&rows, 7).unwrap();
    let mut sequential = vec![0.0; rows.len()];
    for g in 0..frozen.groups().len() {
        let partial = frozen.stream_group_scores(g, &rows, 7, None).unwrap();
        for (t, p) in sequential.iter_mut().zip(partial) {
            *t += p;
        }
    }
    assert_eq!(single, sequential, "the merge must be the ascending sum");
    for &k in shard_counts {
        let sharded = ShardedScorer::new(Arc::clone(&frozen), &ShardPolicy::Workers(k)).unwrap();
        let scores = sharded.score_samples(&rows, 7).unwrap();
        assert_eq!(
            scores, single,
            "K={k} scores must be bit-identical to the default path"
        );
        // Still identical on a second panel (ids advance) and for the
        // empty panel.
        let single_next = frozen.score_samples(&rows[..3], 16).unwrap();
        assert_eq!(sharded.score_samples(&rows[..3], 16).unwrap(), single_next);
        assert!(sharded.score_samples(&[], 0).unwrap().is_empty());
    }
}

#[test]
fn group_parallel_is_bit_identical_exact() {
    assert_shard_invariant(base_config(), &[1, 2, 3, GROUPS, GROUPS + 3]);
}

#[test]
fn group_parallel_is_bit_identical_sampled() {
    assert_shard_invariant(
        base_config().with_execution(ExecutionMode::Sampled { shots: 256 }),
        &[1, 2, 3, GROUPS, GROUPS + 3],
    );
}

#[test]
fn group_parallel_is_bit_identical_noisy() {
    assert_shard_invariant(
        noisy_config(EngineKind::Density),
        &[1, 2, 3, GROUPS, GROUPS + 3],
    );
}

#[test]
fn group_parallel_is_bit_identical_structured() {
    assert_shard_invariant(
        noisy_config(EngineKind::DensityStructured),
        &[1, 2, 3, GROUPS, GROUPS + 3],
    );
}

/// Exhaustive variant for CI's `--ignored` pass: every worker count from
/// 1 to the group count, across execution modes and engines, plus more
/// workers than groups (some idle, scores unchanged).
#[test]
#[ignore = "exhaustive; run explicitly or in CI's --ignored pass"]
fn group_parallel_is_bit_identical_exhaustive() {
    let all: Vec<usize> = (1..=GROUPS).chain([GROUPS + 3]).collect();
    assert_shard_invariant(base_config(), &all);
    assert_shard_invariant(base_config().with_engine(EngineKind::Analytic), &all);
    assert_shard_invariant(
        base_config().with_execution(ExecutionMode::Sampled { shots: 64 }),
        &all,
    );
    assert_shard_invariant(noisy_config(EngineKind::Density), &all);
    assert_shard_invariant(noisy_config(EngineKind::DensityStructured), &all);
}

/// A zero worker count is a typed request error, not a panic.
#[test]
fn zero_workers_are_rejected() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    assert!(matches!(
        ShardedScorer::new(frozen, &ShardPolicy::Workers(0)),
        Err(ServeError::Request(_))
    ));
}

/// Per-group probing still honours engine overrides: a structured
/// override on a dense-configured noisy detector agrees with the dense
/// partial numerically (the two density representations agree to
/// ~1e-12 relative, not bit-exactly), and a pure-state override on a
/// noisy detector or a group out of range is a typed error.
#[test]
fn group_probe_engine_overrides_are_validated() {
    let frozen = FrozenDetector::freeze(noisy_config(EngineKind::Density), &reference()).unwrap();
    let rows = stream_rows(4);
    let dense = frozen.stream_group_scores(1, &rows, 0, None).unwrap();
    let structured = frozen
        .stream_group_scores(1, &rows, 0, Some(EngineKind::DensityStructured))
        .unwrap();
    for (s, d) in structured.iter().zip(&dense) {
        assert!((s - d).abs() <= 1e-9 * d.abs().max(1.0), "{s} vs {d}");
    }
    assert!(frozen
        .stream_group_scores(1, &rows, 0, Some(EngineKind::Batched))
        .is_err());
    assert!(matches!(
        frozen.stream_group_scores(GROUPS, &rows, 0, None),
        Err(ServeError::Request(_))
    ));
}

/// Request validation happens once, up front: a wrong-width panel errors
/// identically for every worker count.
#[test]
fn request_validation_is_independent_of_worker_count() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let sharded = ShardedScorer::new(Arc::clone(&frozen), &ShardPolicy::Workers(2)).unwrap();
    let bad = vec![vec![0.5; 3]];
    let sharded_err = sharded.score_samples(&bad, 0).unwrap_err().to_string();
    let single_err = frozen.score_samples(&bad, 0).unwrap_err().to_string();
    assert_eq!(sharded_err, single_err);
    assert!(sharded_err.contains("expected 7 features, got 3"));
}
