//! Frozen-detector serving runtime for Quorum.
//!
//! Quorum's detectors need no training, but a long-lived service should
//! not redraw and refuse its ensemble per request either. This crate
//! freezes a generated detector — ensemble draws, fused encoders, bucket
//! partitions and pooled reference deviation statistics — into a
//! versioned, checksummed artifact, thaws it back into a resident
//! [`FrozenDetector`], and serves scores from a std-only threadpool TCP
//! server that coalesces concurrently arriving samples into one batched
//! engine panel (N samples or T µs, whichever comes first).
//!
//! Data flow:
//!
//! ```text
//! QuorumConfig + reference Dataset
//!         │ FrozenDetector::freeze
//!         ▼
//! FrozenArtifact bytes  (QUORUMFZ | version | length | checksum | payload)
//!         │ FrozenDetector::from_bytes (thaw + cache pre-warm)
//!         ▼
//! FrozenDetector ── score_dataset (reference replay, bit-identical)
//!         │
//!         └─ QuorumServer ── per-connection handlers ──► BatchScorer
//!                              coalesced 2^n×S panel ──► PanelScorer
//!                                                            │
//!                             FrozenDetector::score_samples ◄┘
//!                               normalise once into a pooled panel
//!                               group 0 ┐
//!                               group 1 ├ WorkerPool jobs, each under
//!                               …       │ catch_unwind with in-place retry
//!                               group G ┘
//!                               Σ per-group partials (ascending g)
//! ```
//!
//! Coalescing is invisible in the results: every per-sample score
//! depends only on the sample's row and its stable id, so batch
//! composition can never change an individual answer. Parallelism is
//! invisible the same way: the ensemble score is an additive sum over
//! independent groups, and summing the per-group partials in ascending
//! group order reproduces the sequential scores bit for bit, whichever
//! thread computed each group. That merge is also the seam a remote
//! shard would plug into — its reply would be exactly a group subset's
//! partials.
//!
//! Fault tolerance builds on the same invariant and lives in one place,
//! the per-group job inside [`FrozenDetector::score_samples`]. A group
//! whose scoring panics is caught and re-scored in place a fixed
//! [`frozen::GROUP_RETRIES`] more times; the recovered panel is
//! bit-identical to an uninterrupted one, and a group that keeps
//! panicking fails the panel with a typed [`ServeError::Faulted`] while
//! the server keeps serving. The server side sheds load with typed
//! [`ServeError::Overloaded`] frames when the batching queue fills,
//! answers `Health` probes with queue and batch counters, and
//! [`ScoreClient`] retries transient failures with seeded exponential
//! backoff. A deterministic failpoint registry (the `fault` module,
//! compiled only under the `failpoints` feature or `cfg(test)`) drives
//! the chaos suite that pins these guarantees.

#![warn(missing_docs)]

pub mod artifact;
pub mod batch;
mod error;
#[cfg(any(test, feature = "failpoints"))]
pub mod fault;
pub mod frozen;
pub mod server;
pub mod shard;
mod wire;

pub use artifact::{FrozenArtifact, FrozenGroup, FrozenNormalizer, LevelStats};
pub use batch::{BatchHandle, BatchScorer, CoalescePolicy, OverloadPolicy, PanelScorer};
pub use error::ServeError;
pub use frozen::FrozenDetector;
pub use server::{HealthReport, QuorumServer, RetryPolicy, ScoreClient};
pub use shard::{ShardPolicy, ShardedScorer};
