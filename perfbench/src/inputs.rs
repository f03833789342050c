//! Workload inputs: datasets and configurations made from the seed, and
//! the timed set-up that turns them into a resident detector. Labels
//! stay here; the program only ever sees label-stripped rows.

use crate::loadgen::derive_seed;
use crate::trace::Tracer;
use qdata::Dataset;
use qsim::NoiseModel;
use quorum_bench::{quorum_config, table1_specs};
use quorum_core::{EngineKind, ExecutionMode, QuorumConfig};
use quorum_serve::{CoalescePolicy, FrozenDetector, QuorumServer};
use std::sync::Arc;
use std::time::Instant;

/// Ensemble groups in every workload's detector.
pub const GROUPS: usize = 30;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Seed salts: each input draws from its own stream of the run's seed.
const LETTER_WORLD: u64 = 1;
const PEN: u64 = 2;
const DETECTOR: u64 = 3;

/// A labelled dataset split into the label-stripped data the program
/// sees and the labels only the benchmark keeps.
pub struct Labelled {
    /// The label-stripped dataset.
    pub unlabelled: Dataset,
    /// Ground truth, row-aligned.
    pub labels: Vec<bool>,
}

impl Labelled {
    fn new(ds: &Dataset) -> Self {
        Labelled {
            unlabelled: ds.strip_labels(),
            labels: ds
                .labels()
                .expect("synthetic datasets are labelled")
                .to_vec(),
        }
    }
}

fn noisy() -> ExecutionMode {
    ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    }
}

/// The Table-1 configuration for `dataset` at `n` data qubits, 30 groups,
/// noisy Brisbane execution without shots, `Auto` engine, all cores.
fn table1_config(dataset: &str, n: usize, seed: u64) -> QuorumConfig {
    let spec = table1_specs()
        .into_iter()
        .find(|s| s.name == dataset)
        .expect("a Table-1 dataset");
    quorum_config(&spec, GROUPS, derive_seed(seed, DETECTOR))
        .with_data_qubits(n)
        .with_execution(noisy())
        .with_engine(EngineKind::Auto)
        .with_threads(0)
}

/// The warm workloads' inputs: a `letter` reference set to freeze
/// against and a held-out labelled `letter` stream to score — the two
/// halves of one 1066-row `letter` draw. (The generator ties its cluster
/// centres to its seed, so separately seeded sets would not share a
/// normal class.)
pub struct LetterInputs {
    /// Freeze-time configuration (n = 3).
    pub config: QuorumConfig,
    /// The reference dataset the detector is frozen against.
    pub reference: Dataset,
    /// The held-out stream.
    pub stream: Labelled,
}

/// Makes the warm workloads' inputs from `seed`.
pub fn letter(seed: u64) -> LetterInputs {
    let world = qdata::synth::letter_with(2 * 533, 2 * 33, derive_seed(seed, LETTER_WORLD));
    let (reference, stream) = world.split(0.5);
    LetterInputs {
        config: table1_config("letter", 3, seed),
        reference: reference.strip_labels(),
        stream: Labelled::new(&stream),
    }
}

/// The cold workload's inputs: labelled `pen-global` at n = 4.
pub struct PenInputs {
    /// Scoring configuration (n = 4).
    pub config: QuorumConfig,
    /// The dataset each call scores.
    pub data: Labelled,
}

/// Makes the cold workload's inputs from `seed`.
pub fn pen(seed: u64) -> PenInputs {
    PenInputs {
        config: table1_config("pen-global", 4, seed),
        data: Labelled::new(&qdata::synth::pen_global(derive_seed(seed, PEN))),
    }
}

/// A resident frozen detector, and what it took to get there.
pub struct Resident {
    /// The thawed detector.
    pub frozen: Arc<FrozenDetector>,
    /// A server over it, when asked for.
    pub server: Option<QuorumServer>,
    /// Seconds per set-up repetition: freeze, encode, thaw (and bind).
    pub setup_s: Vec<f64>,
    /// Seconds per freeze.
    pub freeze_s: Vec<f64>,
    /// Seconds per thaw (decode plus cache pre-warm).
    pub thaw_s: Vec<f64>,
    /// Artifact size.
    pub artifact_bytes: usize,
}

/// Freezes the detector against the reference set, encodes it, thaws it
/// back and, with `serve`, binds a loopback server over it with the
/// default coalescing and overload policies — `reps` times, keeping the
/// last.
///
/// # Errors
///
/// Freeze, thaw and bind failures.
pub fn make_resident(
    inputs: &LetterInputs,
    serve: bool,
    reps: usize,
    t: &mut Tracer,
) -> Result<Resident, String> {
    // One untimed round first, so each timed repetition runs in a warm
    // process (pool threads up, global kernel caches built) as a
    // restarted server on a busy host would.
    let warm = FrozenDetector::freeze(inputs.config.clone(), &inputs.reference)
        .and_then(|f| f.to_bytes())
        .and_then(|b| FrozenDetector::from_bytes(&b));
    warm.map_err(|e| format!("warm-up freeze/thaw: {e}"))?;
    let (mut setup_s, mut freeze_s, mut thaw_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut artifact_bytes = 0;
    let mut resident = None;
    for rep in 0..reps.max(1) as u64 {
        // The previous repetition's server shuts down outside the timing.
        drop(resident.take());
        let start = Instant::now();
        let made = t.span("setup", rep, |t| -> Result<_, String> {
            let frozen = t
                .span("artifact.freeze", rep, |_| {
                    FrozenDetector::freeze(inputs.config.clone(), &inputs.reference)
                })
                .map_err(|e| format!("freeze: {e}"))?;
            freeze_s.push(start.elapsed().as_secs_f64());
            let bytes = t
                .span("artifact.encode", rep, |_| frozen.to_bytes())
                .map_err(|e| format!("encode: {e}"))?;
            artifact_bytes = bytes.len();
            let thaw_start = Instant::now();
            let thawed = Arc::new(
                t.span("artifact.thaw", rep, |_| FrozenDetector::from_bytes(&bytes))
                    .map_err(|e| format!("thaw: {e}"))?,
            );
            thaw_s.push(thaw_start.elapsed().as_secs_f64());
            let server = if serve {
                let bind = t.span("server.bind", rep, |_| {
                    QuorumServer::bind(
                        "127.0.0.1:0",
                        Arc::clone(&thawed),
                        CoalescePolicy::default(),
                    )
                });
                Some(bind.map_err(|e| format!("bind: {e}"))?)
            } else {
                None
            };
            Ok((thawed, server))
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        resident = Some(made);
    }
    let (frozen, server) = resident.expect("at least one repetition");
    Ok(Resident {
        frozen,
        server,
        setup_s,
        freeze_s,
        thaw_s,
        artifact_bytes,
    })
}
