//! A worker-count adapter over the one group-parallel scoring path.
//!
//! Quorum's score is a plain sum over independent ensemble groups, and
//! [`FrozenDetector::score_samples`] already spreads the groups over the
//! resident worker pool and sums their partials in ascending group
//! order. A [`ShardedScorer`] runs that same path with an explicit number
//! of pool participants, so its scores are bit-identical to
//! `score_samples` for every worker count and execution mode.
//!
//! It has no threads of its own. It exists only because the benchmark's
//! layer probe and the engine bench's `serve_sharded*` columns construct
//! it to compare worker counts.

use crate::error::ServeError;
use crate::frozen::FrozenDetector;
use std::sync::Arc;

/// How many pool participants a [`ShardedScorer`] spreads the ensemble
/// groups over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// K participants. Zero is rejected with [`ServeError::Request`].
    Workers(usize),
}

/// [`FrozenDetector::score_samples`] with a fixed worker count (see the
/// module docs).
#[derive(Debug)]
pub struct ShardedScorer {
    frozen: Arc<FrozenDetector>,
    workers: usize,
}

impl ShardedScorer {
    /// An adapter scoring `frozen` with the policy's worker count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for `Workers(0)`.
    pub fn new(frozen: Arc<FrozenDetector>, policy: &ShardPolicy) -> Result<Self, ServeError> {
        match *policy {
            ShardPolicy::Workers(0) => Err(ServeError::Request(
                "a sharded scorer needs at least one worker".into(),
            )),
            ShardPolicy::Workers(workers) => Ok(ShardedScorer { frozen, workers }),
        }
    }

    /// Scores a panel of streamed rows on the group-parallel path with
    /// this scorer's worker count — bit-identical to
    /// [`FrozenDetector::score_samples`].
    ///
    /// # Errors
    ///
    /// As [`FrozenDetector::score_samples`].
    pub fn score_samples(
        &self,
        rows: &[Vec<f64>],
        first_sample_id: u64,
    ) -> Result<Vec<f64>, ServeError> {
        self.frozen
            .score_samples_on(rows, first_sample_id, self.workers)
    }
}
