//! The per-layer probe suite. Every probe calls a layer's public
//! functions from outside, inside spans, so each layer's time is read off
//! the trace; nothing inside the program is instrumented. The suite is
//! the same whichever workload's traced run calls it.
//!
//! Which end-to-end metric each probe should move:
//!
//! * `serve-open` `p50_ms` — `server.overhead_p50_ms`, `batch.wait_p50_ms`,
//!   `frozen.panel1_p50_ms`, `engine.{prep,score}_panel1_ms`,
//!   `parallel.fanout_gain_panel1`;
//! * `serve-open` `throughput_sps` and `p99_ms` — `batch.mean_panel`,
//!   `batch.shed` (also `success_share`), `loadgen.late_p99_ms` (a validity
//!   check on the generator), `loadgen.saturation_sps`;
//! * `bulk-frozen` `throughput_sps` — `frozen.panel32_p50_ms`,
//!   `engine.{prep,score}_panel32_ms`, `parallel.fanout_gain_panel32`,
//!   `kernel.gemm_gflops`, `kernel.simd_active`;
//! * both warm workloads' `p99_ms` — `cache.builds_warm`, which stays 0;
//! * `setup_s` — `artifact.{freeze_s,thaw_s,bytes}`;
//! * `oneshot-cold` `throughput_sps` — `ensemble.generate_ms`,
//!   `cache.superop_build_ms`, `cache.superop_builds`, `engine.{prep,score}_ms`,
//!   `ensemble.zscore_ms`, `parallel.fanout_gain`; `engine.structured_ms`
//!   moves it only if `Auto` changes engine;
//! * none — `shard.k2_vs_frozen_panel32`: sharding is on no workload's
//!   path.

use crate::inputs::{LetterInputs, PenInputs, Resident};
use crate::loadgen::{decode_reply, derive_seed, encode_request, saturation_rate, Reply};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workloads::{self, superop_builds, CONNECTIONS, SERVE_RATE};
use crate::Report;
use qdata::Dataset;
use qsim::matrix::CMatrix;
use qsim::NoiseModel;
use quorum_core::bucket::BucketPlan;
use quorum_core::detector::normalize_for_scoring;
use quorum_core::engine::{DensityEngine, StructuredDensityEngine};
use quorum_core::ensemble::EnsembleGroup;
use quorum_core::{EngineKind, ExecutionMode, QuorumConfig, QuorumDetector, QuorumError};
use quorum_serve::{BatchScorer, CoalescePolicy, FrozenDetector, ShardPolicy, ShardedScorer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each one-row probe and each 32-row probe.
const REPS_PANEL1: usize = 300;
const REPS_PANEL32: usize = 100;
/// Closed-loop saturation and open-loop probe lengths.
const SATURATION: Duration = Duration::from_secs(2);
const OPEN_LOOP: Duration = Duration::from_secs(6);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn noise_of(config: &QuorumConfig) -> Result<&NoiseModel, String> {
    match &config.execution {
        ExecutionMode::Noisy { noise, .. } => Ok(noise),
        other => Err(format!(
            "the layer probes need noisy execution, got {other:?}"
        )),
    }
}

/// The score half of the engine seam for whichever density engine the
/// configuration resolves to.
fn score_prepared(
    group: &EnsembleGroup,
    packed: &CMatrix,
    config: &QuorumConfig,
    levels: &[usize],
) -> Result<Vec<Vec<f64>>, QuorumError> {
    match config.effective_engine() {
        EngineKind::DensityStructured => {
            StructuredDensityEngine::score_prepared(group, packed, config, levels)
        }
        _ => DensityEngine::score_prepared(group, packed, config, levels),
    }
}

/// Runs the whole suite, pushing every per-layer metric into `report`
/// and every failed output check into its check list.
///
/// # Errors
///
/// Probe failures that leave a layer unmeasured.
pub fn suite(
    t: &mut Tracer,
    res: &Resident,
    letter: &LetterInputs,
    pen: &PenInputs,
    seed: u64,
    expected: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    report.metric(
        "artifact.freeze_s",
        median(&res.freeze_s),
        "s",
        format!("median of {}", res.freeze_s.len()),
    );
    report.metric(
        "artifact.thaw_s",
        median(&res.thaw_s),
        "s",
        format!("median of {}", res.thaw_s.len()),
    );
    report.metric(
        "artifact.bytes",
        res.artifact_bytes as f64,
        "bytes",
        "encoded QUORUMFZ artifact",
    );

    let builds0 = superop_builds(&res.frozen);
    serve_layers(t, res, letter, seed, expected, report)?;
    bulk_layers(t, res, letter, expected, report)?;
    report.metric(
        "cache.builds_warm",
        (superop_builds(&res.frozen) - builds0) as f64,
        "count",
        "superoperators fused while warm probes ran (expected 0)",
    );
    oneshot_layers(t, pen, report)
}

// -------------------------------------------------------------- serving path

fn serve_layers(
    t: &mut Tracer,
    res: &Resident,
    letter: &LetterInputs,
    seed: u64,
    expected: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let server = res
        .server
        .as_ref()
        .expect("the suite's resident has a server");
    let rows = letter.stream.unlabelled.rows();
    let saturation = saturation_rate(server.local_addr(), rows, CONNECTIONS, SATURATION)?;
    report.metric(
        "loadgen.saturation_sps",
        saturation,
        "samples/s",
        format!(
            "{CONNECTIONS} connections back-to-back for {} s",
            SATURATION.as_secs()
        ),
    );
    report.metric(
        "loadgen.offered_share",
        SERVE_RATE / saturation,
        "share",
        format!("fixed {SERVE_RATE}/s over the saturation rate"),
    );

    let run = workloads::serve_loop(res, letter, derive_seed(seed, 2), OPEN_LOOP, t)?;
    run.account(expected, report);
    report.metric(
        "batch.mean_panel",
        run.samples as f64 / run.batches.max(1) as f64,
        "rows",
        format!("{} samples in {} panels", run.samples, run.batches),
    );
    report.metric(
        "batch.shed",
        run.shed as f64,
        "count",
        format!("of {} sent", run.outcomes.len()),
    );
    let late = stats::tail(&stats::sorted(run.lateness_ms()), 99.0);
    report.metric(
        "loadgen.late_p99_ms",
        late.value,
        "ms",
        format!(
            "{} of send minus due, n={}, {} beyond",
            late.label(),
            late.n,
            late.beyond
        ),
    );

    // One request at a time: over TCP, through the in-process batcher,
    // and straight into the detector, interleaved per row so host noise
    // hits all three alike. The differences are the server's and the
    // coalescing window's shares of a lone request's latency.
    let mut stream =
        TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let batcher = BatchScorer::start(Arc::clone(&res.frozen), CoalescePolicy::default())
        .map_err(|e| format!("batcher: {e}"))?;
    let (mut tcp, mut batch, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    let (mut frame, mut inbox) = (Vec::new(), Vec::new());
    let mut lone_request = |t: &mut Tracer, r: u64, row: usize| -> Result<(), String> {
        frame.clear();
        encode_request(&rows[row], &mut frame);
        let t0 = Instant::now();
        let reply = t.span("server.roundtrip", r, |_| {
            tcp_roundtrip(&mut stream, &frame, &mut inbox)
        })?;
        tcp.push(ms(t0.elapsed()));
        if reply != Reply::Score(expected[row]) {
            failures.push(format!("TCP probe, row {row}: {reply:?}"));
        }
        let t0 = Instant::now();
        let score = t.span("batch.roundtrip", r, |_| batcher.score(rows[row].clone()));
        batch.push(ms(t0.elapsed()));
        if !score
            .as_ref()
            .is_ok_and(|v| v.to_bits() == expected[row].to_bits())
        {
            failures.push(format!("batcher probe, row {row}: {score:?}"));
        }
        Ok(())
    };
    let panel1 = panel_layers(t, res, letter, 1, expected, report, &mut lone_request)?;
    report.check_failures.extend(failures);
    let (tcp, batch) = (median(&tcp), median(&batch));
    report.metric(
        "server.overhead_p50_ms",
        tcp - batch,
        "ms",
        format!("TCP round trip {tcp:.4} minus batcher round trip {batch:.4}, n={REPS_PANEL1}"),
    );
    report.metric(
        "batch.wait_p50_ms",
        batch - panel1,
        "ms",
        format!("batcher round trip {batch:.4} minus 1-row panel {panel1:.4}, n={REPS_PANEL1}"),
    );
    Ok(())
}

/// Writes one request frame and reads its reply.
fn tcp_roundtrip(
    stream: &mut TcpStream,
    frame: &[u8],
    inbox: &mut Vec<u8>,
) -> Result<Reply, String> {
    stream
        .write_all(frame)
        .map_err(|e| format!("probe write: {e}"))?;
    let mut chunk = [0u8; 64];
    loop {
        if let Some((reply, len)) = decode_reply(inbox)? {
            inbox.drain(..len);
            return Ok(reply);
        }
        let k = stream
            .read(&mut chunk)
            .map_err(|e| format!("probe read: {e}"))?;
        if k == 0 {
            return Err("server closed the probe connection".into());
        }
        inbox.extend_from_slice(&chunk[..k]);
    }
}

/// Per-panel decomposition at `size` rows: the detector's whole
/// `score_samples`, the per-group `stream_group_scores` it fans out, and
/// the engine's prepare/score seam summed over groups. `also` runs first
/// in every repetition with the repetition and its first row, so other
/// probes can interleave with these. Returns the median `score_samples`
/// time, ms.
fn panel_layers(
    t: &mut Tracer,
    res: &Resident,
    letter: &LetterInputs,
    size: usize,
    expected: &[f64],
    report: &mut Report,
    also: &mut dyn FnMut(&mut Tracer, u64, usize) -> Result<(), String>,
) -> Result<f64, String> {
    let frozen: &FrozenDetector = &res.frozen;
    let config = frozen.config();
    let levels = config.effective_compression_levels();
    let normalizer = frozen
        .to_artifact()
        .map_err(|e| format!("artifact: {e}"))?
        .normalizer;
    let rows = letter.stream.unlabelled.rows();
    let reps = if size == 1 { REPS_PANEL1 } else { REPS_PANEL32 };
    let (mut whole, mut fanned, mut prep, mut score) = (vec![], vec![], vec![], vec![]);
    for r in 0..reps {
        let base = r * size;
        let panel: Vec<Vec<f64>> = (0..size)
            .map(|j| rows[(base + j) % rows.len()].clone())
            .collect();
        let id = base as u64;
        also(t, r as u64, base % rows.len())?;
        let t0 = Instant::now();
        let scores = t
            .span("frozen.score_samples", id, |_| {
                frozen.score_samples(&panel, id)
            })
            .map_err(|e| format!("score_samples: {e}"))?;
        whole.push(ms(t0.elapsed()));

        let t0 = Instant::now();
        let mut sum = vec![0.0; size];
        t.span("frozen.group_fanout", id, |t| -> Result<(), String> {
            for g in 0..frozen.groups().len() {
                let part = t
                    .span("frozen.stream_group_scores", id, |_| {
                        frozen.stream_group_scores(g, &panel, id, None)
                    })
                    .map_err(|e| format!("stream_group_scores: {e}"))?;
                sum.iter_mut().zip(part).for_each(|(s, p)| *s += p);
            }
            Ok(())
        })?;
        fanned.push(ms(t0.elapsed()));
        for (j, (&whole, &fan)) in scores.iter().zip(&sum).enumerate() {
            let row = (base + j) % rows.len();
            report.check(
                whole.to_bits() == expected[row].to_bits() && fan.to_bits() == whole.to_bits(),
                || {
                    format!(
                        "{size}-row panel, row {row}: whole {whole}, group sum {fan}, reference {}",
                        expected[row]
                    )
                },
            );
        }

        let normalized =
            normalizer.apply(&Dataset::from_rows("panel", panel, None).map_err(|e| e.to_string())?);
        let (mut p, mut s) = (Duration::ZERO, Duration::ZERO);
        t.span("engine.panel", id, |t| -> Result<(), String> {
            for group in frozen.groups() {
                let t0 = Instant::now();
                let packed = t
                    .span("engine.prep", id, |_| {
                        DensityEngine::prepare_batch(group, &normalized, config)
                    })
                    .map_err(|e| format!("prepare_batch: {e}"))?;
                let t1 = Instant::now();
                t.span("engine.score", id, |_| {
                    score_prepared(group, &packed, config, &levels)
                })
                .map_err(|e| format!("score_prepared: {e}"))?;
                p += t1 - t0;
                s += t1.elapsed();
            }
            Ok(())
        })?;
        prep.push(ms(p));
        score.push(ms(s));
    }
    let engine: Vec<f64> = prep.iter().zip(&score).map(|(p, s)| p + s).collect();
    let (whole_p50, fanned_p50) = (median(&whole), median(&fanned));
    let n = format!("n={reps}, {} groups", frozen.groups().len());
    let (panel_name, prep_name, score_name, gain_name, coverage_name) = if size == 1 {
        (
            "frozen.panel1_p50_ms",
            "engine.prep_panel1_ms",
            "engine.score_panel1_ms",
            "parallel.fanout_gain_panel1",
            "trace.engine_coverage_panel1",
        )
    } else {
        (
            "frozen.panel32_p50_ms",
            "engine.prep_panel32_ms",
            "engine.score_panel32_ms",
            "parallel.fanout_gain_panel32",
            "trace.engine_coverage_panel32",
        )
    };
    report.metric(panel_name, whole_p50, "ms", format!("score_samples, {n}"));
    report.metric(
        prep_name,
        median(&prep),
        "ms",
        format!("prepare_batch summed over groups, median, {n}"),
    );
    report.metric(
        score_name,
        median(&score),
        "ms",
        format!("score_prepared summed over groups, median, {n}"),
    );
    report.metric(
        gain_name,
        fanned_p50 / whole_p50,
        "ratio",
        format!("Σ stream_group_scores {fanned_p50:.4} ms over score_samples {whole_p50:.4} ms"),
    );
    report.metric(
        coverage_name,
        median(&engine) / fanned_p50,
        "ratio",
        "engine prep+score spans over Σ stream_group_scores (1 = fully covered)",
    );
    Ok(whole_p50)
}

// ----------------------------------------------------------------- bulk path

fn bulk_layers(
    t: &mut Tracer,
    res: &Resident,
    letter: &LetterInputs,
    expected: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let frozen = &res.frozen;
    let panel32 = panel_layers(t, res, letter, 32, expected, report, &mut |_, _, _| Ok(()))?;

    // The dense engine's GEMM at its panel shape: one level's fused
    // superoperator times the packed 4^n × 32 panel, on one thread.
    let config = frozen.config();
    let group = &frozen.groups()[0];
    let level = config.effective_compression_levels()[0];
    let superop = group
        .fused_noisy_superop(noise_of(config)?, level)
        .map_err(|e| format!("superop: {e}"))?;
    let normalizer = frozen
        .to_artifact()
        .map_err(|e| format!("artifact: {e}"))?
        .normalizer;
    let panel = Dataset::from_rows(
        "panel",
        letter.stream.unlabelled.rows()[..32].to_vec(),
        None,
    )
    .map_err(|e| e.to_string())?;
    let packed = DensityEngine::prepare_batch(group, &normalizer.apply(&panel), config)
        .map_err(|e| format!("prepare_batch: {e}"))?;
    let mut gemm = Vec::with_capacity(REPS_PANEL32 * 3);
    for r in 0..REPS_PANEL32 * 3 {
        let t0 = Instant::now();
        let out = t.span("kernel.gemm", r as u64, |_| {
            superop.matmul_threaded(&packed, 1)
        });
        gemm.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(out.map_err(|e| format!("gemm: {e}"))?);
    }
    let (m, k, n) = (superop.rows(), superop.cols(), packed.cols());
    let flops = 8.0 * (m * k * n) as f64;
    report.metric(
        "kernel.gemm_gflops",
        flops / median(&gemm) / 1e9,
        "GFLOP/s",
        format!(
            "computed flops 8·{m}·{k}·{n} per complex GEMM over its median time, n={}",
            gemm.len()
        ),
    );
    report.metric(
        "kernel.simd_active",
        f64::from(u8::from(qsim::kernel::simd_active())),
        "flag",
        "1 when the AVX2/FMA kernels are dispatched",
    );

    // Sharding is on no workload's path: K = 2 shard workers against the
    // unsharded detector on the same 32-row panels.
    let sharded = ShardedScorer::new(Arc::clone(frozen), &ShardPolicy::Workers(2))
        .map_err(|e| format!("shards: {e}"))?;
    let rows = letter.stream.unlabelled.rows();
    let (mut shard, mut whole) = (Vec::new(), Vec::new());
    for r in 0..REPS_PANEL32 {
        let base = r * 32;
        let panel: Vec<Vec<f64>> = (0..32)
            .map(|j| rows[(base + j) % rows.len()].clone())
            .collect();
        let t0 = Instant::now();
        let a = t.span("shard.score_samples", r as u64, |_| {
            sharded.score_samples(&panel, base as u64)
        });
        shard.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let b = t.span("frozen.score_samples", r as u64, |_| {
            frozen.score_samples(&panel, base as u64)
        });
        whole.push(ms(t0.elapsed()));
        let (a, b) = (
            a.map_err(|e| format!("sharded: {e}"))?,
            b.map_err(|e| format!("frozen: {e}"))?,
        );
        report.check(a == b, || format!("sharded scores differ on panel {r}"));
    }
    let (shard, whole) = (median(&shard), median(&whole));
    report.metric(
        "shard.k2_vs_frozen_panel32",
        shard / whole,
        "ratio",
        format!(
            "Workers(2) {shard:.4} ms over score_samples {whole:.4} ms (frozen probe {panel32:.4})"
        ),
    );
    Ok(())
}

// ----------------------------------------------------------------- cold path

/// Replays `QuorumDetector::score_group_subset`'s steps one group and one
/// thread at a time, then compares with a one-thread and an all-core call.
fn oneshot_layers(t: &mut Tracer, pen: &PenInputs, report: &mut Report) -> Result<(), String> {
    let one = pen.config.clone().with_threads(1);
    let data = &pen.data.unlabelled;
    let noise = noise_of(&one)?.clone();
    let levels = one.effective_compression_levels();
    let structured = one.clone().with_engine(EngineKind::DensityStructured);
    let q = |e: QuorumError| e.to_string();
    let mark = t.mark();

    let normalized = t.span("detector.normalize", 0, |_| {
        normalize_for_scoring(&one, data)
    });
    let plan = BucketPlan::from_target(
        normalized.num_samples(),
        one.anomaly_rate_estimate.unwrap_or(0.05),
        one.bucket_probability,
    );
    let engine = quorum_core::engine::resolve(&one).map_err(q)?;
    let mut replayed = vec![0.0; normalized.num_samples()];
    let mut builds = 0;
    for g in 0..one.ensemble_groups {
        let id = g as u64;
        let group = t.span("ensemble.generate", id, |_| {
            EnsembleGroup::generate(g, &one, normalized.num_features(), &plan)
        });
        t.span("cache.superop_build", id, |_| -> Result<(), QuorumError> {
            for &level in &levels {
                match one.effective_engine() {
                    EngineKind::DensityStructured => drop(group.channel_program(&noise, level)?),
                    _ => drop(group.fused_noisy_superop(&noise, level)?),
                }
            }
            Ok(())
        })
        .map_err(q)?;
        builds += group.noisy_superop_fusions() + group.channel_program_fusions();
        let packed = t
            .span("engine.prep", id, |_| {
                DensityEngine::prepare_batch(&group, &normalized, &one)
            })
            .map_err(q)?;
        t.span("engine.score", id, |_| {
            score_prepared(&group, &packed, &one, &levels)
        })
        .map_err(q)?;
        // Warm: the engine pass alone, then the whole group run, whose
        // extra time is the bucket z-scoring.
        t.span("engine.warm", id, |_| {
            engine.deviations_all_levels(&group, &normalized, &one, &levels)
        })
        .map_err(q)?;
        let part = t
            .span("ensemble.run_with_warm", id, |_| {
                group.run_with(engine, &normalized, &one)
            })
            .map_err(q)?;
        replayed.iter_mut().zip(part).for_each(|(s, p)| *s += p);

        let fresh = EnsembleGroup::generate(g, &structured, normalized.num_features(), &plan);
        t.span("engine.structured", id, |t| -> Result<(), QuorumError> {
            let packed = t.span("structured.prep", id, |_| {
                DensityEngine::prepare_batch(&fresh, &normalized, &structured)
            })?;
            t.span(
                "structured.channel_build",
                id,
                |_| -> Result<(), QuorumError> {
                    for &level in &levels {
                        fresh.channel_program(&noise, level)?;
                    }
                    Ok(())
                },
            )?;
            t.span("structured.score", id, |_| {
                StructuredDensityEngine::score_prepared(&fresh, &packed, &structured, &levels)
            })?;
            Ok(())
        })
        .map_err(q)?;
    }

    let call = |t: &mut Tracer,
                name: &'static str,
                config: &QuorumConfig|
     -> Result<(Vec<f64>, f64), String> {
        let t0 = Instant::now();
        let scores = t
            .span(name, 0, |_| {
                QuorumDetector::new(config.clone()).and_then(|d| d.score(data))
            })
            .map_err(q)?;
        Ok((scores.scores().to_vec(), ms(t0.elapsed())))
    };
    let (one_scores, one_ms) = call(t, "detector.score_one_thread", &one)?;
    let (all_scores, all_ms) = call(t, "detector.score_all_cores", &pen.config)?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    report.check(bits(&one_scores) == bits(&all_scores), || {
        "one-thread and all-core cold scores differ".into()
    });
    report.check(bits(&replayed) == bits(&one_scores), || {
        "the replayed group sum differs from the detector's score".into()
    });

    let total = |name: &str| ms(t.total_self(mark, name));
    let (prep, score) = (total("engine.prep"), total("engine.score"));
    let zscore = total("ensemble.run_with_warm") - total("engine.warm");
    let groups = format!("{} groups, one thread", one.ensemble_groups);
    report.metric(
        "ensemble.generate_ms",
        total("ensemble.generate"),
        "ms",
        groups.clone(),
    );
    report.metric(
        "cache.superop_build_ms",
        total("cache.superop_build"),
        "ms",
        groups.clone(),
    );
    report.metric(
        "cache.superop_builds",
        builds as f64,
        "count",
        format!("{} levels per group", levels.len()),
    );
    report.metric("engine.prep_ms", prep, "ms", groups.clone());
    report.metric(
        "engine.score_ms",
        score,
        "ms",
        format!("{groups}, caches built"),
    );
    report.metric(
        "ensemble.zscore_ms",
        zscore,
        "ms",
        format!("warm run_with minus a warm engine pass, {groups}; a residual of two timings"),
    );
    report.metric(
        "parallel.fanout_gain",
        one_ms / all_ms,
        "ratio",
        format!("one-thread call {one_ms:.1} ms over all-core call {all_ms:.1} ms"),
    );
    report.metric(
        "engine.structured_ms",
        ms(t.total(mark, "engine.structured")),
        "ms",
        format!("prepare_batch + channel-program builds + structured score_prepared, {groups}"),
    );
    let covered = total("detector.normalize")
        + total("ensemble.generate")
        + total("cache.superop_build")
        + prep
        + score
        + zscore;
    report.metric(
        "trace.oneshot_coverage",
        covered / one_ms,
        "ratio",
        format!(
            "layer spans {covered:.1} ms over a one-thread call {one_ms:.1} ms (1 = fully covered)"
        ),
    );
    Ok(())
}
