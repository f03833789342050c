//! Chaos suite: deterministic fault injection against the serving
//! runtime's one scoring path.
//!
//! Compiled only under the `failpoints` feature (`cargo test -p
//! quorum-serve --features failpoints --test chaos`). Every test arms a
//! deterministic schedule in `quorum_serve::fault` — mostly at the
//! `"frozen::group"` site inside the per-group job of
//! `FrozenDetector::score_samples` — and asserts the one property that
//! matters: **scores stay bit-identical to an uninterrupted run**, or
//! fail with a typed error when the in-place retry budget runs out. The
//! additive per-group merge in ascending group order makes a retried
//! group indistinguishable from one that never failed.
//!
//! The failpoint registry is process-global, so every test serialises
//! on `fault::tests_serialized()` and resets the registry when done.

#![cfg(feature = "failpoints")]

use qdata::Dataset;
use qsim::NoiseModel;
use quorum_core::config::{EngineKind, ExecutionMode};
use quorum_core::QuorumConfig;
use quorum_serve::fault::{self, FaultAction, FaultSpec};
use quorum_serve::frozen::GROUP_RETRIES;
use quorum_serve::{
    CoalescePolicy, FrozenDetector, OverloadPolicy, QuorumServer, RetryPolicy, ScoreClient,
    ServeError,
};
use std::sync::Arc;
use std::time::Duration;

const SITE: &str = "frozen::group";

/// A deterministic 12×7 reference set (same recipe as the serving suite).
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
    Dataset::from_rows("chaos-ref", rows, None).unwrap()
}

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
        .with_ensemble_groups(5)
        .with_ansatz_layers(2)
        .with_threads(2)
        .with_seed(0x5EEF_1E55)
}

/// A group that panics mid-panel is re-scored in place and the panel
/// stays bit-identical to an uninterrupted run.
#[test]
fn panicking_group_is_retried_in_place_bit_identically() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let groups = frozen.groups().len() as u64;
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Exactly one attempt panics — whichever group draws hit 2. Which
    // group that is depends on scheduling; the scores must not.
    fault::arm(SITE, FaultSpec::on_hit(FaultAction::Panic, 2));
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    assert_eq!(fault::hits(SITE), groups + 1, "one retry, in place");
    for _ in 0..2 {
        assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    }
    fault::reset();
}

/// Slow groups reorder completion but never change a score.
#[test]
fn delayed_groups_do_not_change_scores() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Every third group job finishes late — partials complete out of
    // group order, and the ascending-group merge must not care.
    fault::arm(
        SITE,
        FaultSpec::every(FaultAction::Delay(Duration::from_millis(20)), 3, 0),
    );
    for first_id in [0u64, 4, 8] {
        assert_eq!(frozen.score_samples(&rows, first_id).unwrap(), direct);
    }
    fault::reset();
}

/// A crashed lock holder poisons the per-group derived caches; the
/// byte-bounded caches recover the poisoned mutexes, nothing is purged,
/// and scoring — including the noisy fused-superoperator path — stays
/// bit-identical without rebuilding a single entry.
#[test]
fn poisoned_caches_are_absorbed_bit_identically() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let config = base_config()
        .with_ensemble_groups(3)
        .with_engine(EngineKind::Density)
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        });
    let frozen = FrozenDetector::freeze(config, &reference()).unwrap();
    let rows = stream_rows(2);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let fusions = |f: &FrozenDetector| -> Vec<usize> {
        f.groups()
            .iter()
            .map(|g| g.noisy_superop_fusions())
            .collect()
    };
    let before = fusions(&frozen);
    fault::arm(SITE, FaultSpec::on_hits(FaultAction::PoisonCaches, &[1, 2]));
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    // And again with the recovered caches.
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    assert_eq!(fusions(&frozen), before, "poison must not cost a rebuild");
    fault::reset();
}

/// A group that panics on every attempt fails the panel with a typed
/// `Faulted` error — not a hang, not a panic, not a wrong partial sum —
/// and the detector scores normally once the fault clears.
#[test]
fn exhausted_retry_budget_is_a_typed_faulted_error() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(2);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Only the first group's attempts can be hits 1..=3 when the panel
    // runs on one thread, so exactly that group exhausts its budget.
    let one = FrozenDetector::freeze(base_config().with_threads(1), &reference()).unwrap();
    fault::arm(SITE, FaultSpec::on_hits(FaultAction::Panic, &[1, 2, 3]));
    let err = one.score_samples(&rows, 0).unwrap_err();
    assert!(matches!(err, ServeError::Faulted(_)), "got {err:?}");
    assert!(err.to_string().contains("group 0"), "{err}");
    assert_eq!(fault::hits(SITE), GROUP_RETRIES as u64 + 1 + 4);
    // Every attempt of every group panics on the parallel path too.
    fault::arm(SITE, FaultSpec::every(FaultAction::Panic, 1, 0));
    let err = frozen.score_samples(&rows, 0).unwrap_err();
    assert!(matches!(err, ServeError::Faulted(_)), "got {err:?}");
    fault::disarm(SITE);
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    fault::reset();
}

/// The default `bind` path survives a panicking group: the affected
/// request is retried in place and answered bit-identically; with the
/// budget exhausted the client gets a typed error frame rather than a
/// transport failure; and the next request on the same connection
/// scores bit-identically. (A panic once unwound the batcher thread and
/// every later request got "the batching worker has shut down".)
#[test]
fn default_server_survives_group_panics() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(3);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut client = ScoreClient::connect_with_timeouts(
        server.local_addr(),
        Some(Duration::from_secs(30)),
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    fault::arm(SITE, FaultSpec::on_hit(FaultAction::Panic, 1));
    assert_eq!(client.score(&rows[0]).unwrap(), direct[0]);
    assert!(fault::hits(SITE) > frozen.groups().len() as u64);

    fault::arm(SITE, FaultSpec::every(FaultAction::Panic, 1, 0));
    match client.score(&rows[1]) {
        Err(ServeError::Request(msg)) => assert!(msg.contains("scoring faulted"), "{msg}"),
        other => panic!("expected a typed error frame, got {other:?}"),
    }

    fault::disarm(SITE);
    assert_eq!(client.score(&rows[2]).unwrap(), direct[2]);
    assert_eq!(client.score(&rows[1]).unwrap(), direct[1]);
    assert_eq!(client.health().unwrap().samples_scored, 4);
    drop(client);
    fault::reset();
    server.shutdown();
}

/// Load shedding under a slow backend: shed requests get the typed
/// status-2 frame while the requests that made it into the bounded
/// queue still score correctly.
#[test]
fn overloaded_server_sheds_typed_while_cobatched_requests_score() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(3);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Every panel crawls (every group job sleeps), the queue holds one
    // sample, and panels never coalesce — so three concurrent requests
    // must produce at least one typed shed.
    fault::arm(
        SITE,
        FaultSpec::every(FaultAction::Delay(Duration::from_millis(150)), 1, 0),
    );
    let mut server = QuorumServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy {
            max_batch: 1,
            max_wait: Duration::from_micros(1),
        },
        OverloadPolicy {
            queue_capacity: 1,
            request_deadline: None,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let results: Vec<(usize, Result<f64, ServeError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let row = row.clone();
                s.spawn(move || {
                    let mut client = ScoreClient::connect(addr).unwrap();
                    (i, client.score(&row))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut scored = 0usize;
    let mut shed = 0usize;
    for (i, result) in results {
        match result {
            Ok(score) => {
                assert_eq!(score, direct[i], "a scored request must be exact");
                scored += 1;
            }
            Err(ServeError::Overloaded(_)) => shed += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(scored >= 1, "the in-flight request must still score");
    assert!(shed >= 1, "a full queue must shed at least one request");
    assert_eq!(server.shed_total(), shed as u64);
    fault::reset();
    server.shutdown();
}

/// A torn response frame (server crashes mid-write) surfaces as a
/// transport error without retry, and `score_with_retry` survives it by
/// reconnecting and resending — bit-identically, because scoring is
/// stateless and a resent row is idempotent.
#[test]
fn torn_response_frame_is_survived_by_client_retry() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let row = &stream_rows(1)[0];
    let direct = frozen.score_samples(std::slice::from_ref(row), 0).unwrap()[0];
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    // Without retries a torn frame is a typed transport error.
    fault::arm(
        "server::write_frame",
        FaultSpec::on_hit(FaultAction::TornWrite { keep_bytes: 3 }, 1),
    );
    let mut plain = ScoreClient::connect(server.local_addr()).unwrap();
    plain
        .set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
        .unwrap();
    let err = plain.score(row).unwrap_err();
    assert!(matches!(err, ServeError::Io(_)), "got {err:?}");
    // With retries the client reconnects, resends and gets the exact
    // score the untorn run produces.
    fault::arm(
        "server::write_frame",
        FaultSpec::on_hit(FaultAction::TornWrite { keep_bytes: 3 }, 1),
    );
    let mut retrying = ScoreClient::connect(server.local_addr()).unwrap();
    retrying.set_retry(RetryPolicy {
        max_retries: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        jitter: 0.5,
        seed: 7,
    });
    assert_eq!(retrying.score_with_retry(row).unwrap(), direct);
    fault::reset();
    server.shutdown();
}

/// The exhaustive panic soak: a seeded pseudo-random quarter of all
/// group attempts panic across a 40-panel stream. Every panel either
/// recovers bit-identically to the uninterrupted run or — when one
/// group draws a panic on all of its attempts — fails typed with
/// `Faulted`; the detector never wedges. Run with `--ignored` (the
/// ignored-suite CI job does).
#[test]
#[ignore = "exhaustive chaos soak; run with --ignored"]
fn group_panic_soak_is_bit_identical_over_a_long_stream() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let groups = frozen.groups().len() as u64;
    let rows = stream_rows(6);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // A quarter of all attempts die, chosen by a seeded hash — a crash
    // pattern no fixed schedule gives, replayed exactly on every run.
    fault::arm(SITE, FaultSpec::seeded(FaultAction::Panic, 0xC4A05, 1, 4));
    let mut recovered = 0usize;
    for panel in 0..40 {
        let before = fault::hits(SITE);
        match frozen.score_samples(&rows, 0) {
            Ok(scores) => {
                assert_eq!(scores, direct, "panel {panel} diverged under chaos");
                if fault::hits(SITE) - before > groups {
                    recovered += 1;
                }
            }
            Err(ServeError::Faulted(_)) => {}
            Err(other) => panic!("panel {panel}: unexpected error {other:?}"),
        }
    }
    assert!(recovered >= 10, "only {recovered} panels retried a group");
    fault::disarm(SITE);
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    fault::reset();
}
