//! The three workloads: their timed loops, output checks and end-to-end
//! metrics. A traced run repeats the loop untraced and traced (the gap is
//! the tracing overhead) and then runs the per-layer probe suite.

use crate::inputs::{self, LetterInputs, PenInputs, Resident, SETUP_REPS};
use crate::layers;
use crate::loadgen::{
    derive_seed, drive_connection, poisson_schedule, ConnectionPlan, Outcome, Reply,
};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{host::Host, Args, Report};
use qmetrics::curve::roc_auc;
use quorum_core::QuorumDetector;
use quorum_serve::{FrozenDetector, QuorumServer};
use std::time::{Duration, Instant};

/// `serve-open`'s fixed arrival rate, requests per second: about a quarter
/// of the 700–900/s that two back-to-back connections saturate at on the
/// reference two-core host (`loadgen.saturation_sps`). At half of
/// saturation, time stolen by the host pushed the server into queueing
/// often enough that run-to-run spread exceeded the bounds.
pub const SERVE_RATE: f64 = 175.0;
/// Client connections the open-loop generator writes on.
pub const CONNECTIONS: usize = 2;
/// Latency limits, each on a workload's own unit of work.
pub const SERVE_SLO_MS: f64 = 5.0;
const BULK_SLO_MS: f64 = 10.0;
const ONESHOT_SLO_MS: f64 = 10_000.0;
/// Rows per `bulk-frozen` panel.
pub const PANEL: usize = 32;
/// Seed salt of connection 0's arrival schedule (connection `c` adds `c`).
const SCHEDULE: u64 = 10;
/// Unmeasured load before a warm workload's measured phase, so an idle
/// host's first second does not count.
const WARM_UP: Duration = Duration::from_secs(2);

/// Runs the workload `args` names.
///
/// # Errors
///
/// Unknown workloads, and set-up or transport failures that leave nothing
/// to measure.
pub fn run(args: &Args) -> Result<Report, String> {
    let seconds = Duration::from_secs(args.seconds);
    if args.trace {
        return traced(args, seconds);
    }
    let mut report = Report::default();
    let mut off = Tracer::off();
    match args.workload.as_str() {
        "serve-open" => {
            let letter = inputs::letter(args.seed);
            let res = inputs::make_resident(&letter, true, SETUP_REPS, &mut off)?;
            println!("{}", Host::probe(letter.config.threads).line());
            let expected = expected_scores(&res.frozen, &letter)?;
            serve_loop(&res, &letter, derive_seed(args.seed, 3), WARM_UP, &mut off)?;
            let run = serve_loop(&res, &letter, args.seed, seconds, &mut off)?;
            run.account(&expected, &mut report);
            run.metrics(&expected, &letter, &res, &mut report);
        }
        "bulk-frozen" => {
            let letter = inputs::letter(args.seed);
            let res = inputs::make_resident(&letter, false, SETUP_REPS, &mut off)?;
            println!("{}", Host::probe(letter.config.threads).line());
            let expected = expected_scores(&res.frozen, &letter)?;
            check_panel_invariance(&res.frozen, &letter, &expected, &mut report)?;
            bulk_loop(&res.frozen, &letter, WARM_UP, &mut off)?;
            let run = bulk_loop(&res.frozen, &letter, seconds, &mut off)?;
            run.account(&expected, &mut report);
            run.metrics(&letter, &res, &mut report);
        }
        "oneshot-cold" => {
            let (pen, setup_s) = oneshot_setup(args.seed)?;
            println!("{}", Host::probe(pen.config.threads).line());
            let run = oneshot_loop(&pen, seconds, &mut off)?;
            run.account(&mut report);
            run.metrics(&pen, &setup_s, &mut report);
        }
        other => return Err(format!("unknown workload {other}")),
    }
    report.metric(
        "success_share",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "share",
        format!(
            "{} of {} operations failed, were shed or gave a wrong output",
            report.failed, report.attempted
        ),
    );
    Ok(report)
}

/// The traced run: the workload loop for half the time untraced and half
/// traced, then the probe suite, which reports every per-layer metric.
fn traced(args: &Args, seconds: Duration) -> Result<Report, String> {
    let mut report = Report::default();
    let half = seconds / 2;
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    let mut off = Tracer::off();
    let letter = inputs::letter(args.seed);
    let pen = inputs::pen(args.seed);
    let res = inputs::make_resident(&letter, true, SETUP_REPS, &mut t)?;
    let host = Host::probe(letter.config.threads);
    println!("{}", host.line());
    let expected = expected_scores(&res.frozen, &letter)?;
    let (untraced_ms, traced_ms) = match args.workload.as_str() {
        "serve-open" => {
            serve_loop(&res, &letter, derive_seed(args.seed, 3), WARM_UP, &mut off)?;
            let a = serve_loop(&res, &letter, args.seed, half, &mut off)?;
            let b = serve_loop(&res, &letter, derive_seed(args.seed, 1), half, &mut t)?;
            a.account(&expected, &mut report);
            b.account(&expected, &mut report);
            (a.p50_ms(&expected), b.p50_ms(&expected))
        }
        "bulk-frozen" => {
            check_panel_invariance(&res.frozen, &letter, &expected, &mut report)?;
            bulk_loop(&res.frozen, &letter, WARM_UP, &mut off)?;
            let a = bulk_loop(&res.frozen, &letter, half, &mut off)?;
            let b = bulk_loop(&res.frozen, &letter, half, &mut t)?;
            a.account(&expected, &mut report);
            b.account(&expected, &mut report);
            (median(&a.panel_ms), median(&b.panel_ms))
        }
        "oneshot-cold" => {
            let a = oneshot_loop(&pen, half, &mut off)?;
            let b = oneshot_loop(&pen, half, &mut t)?;
            report.check(a.scores[0] == b.scores[0], || {
                "oneshot-cold: traced and untraced cold calls disagree".into()
            });
            a.account(&mut report);
            b.account(&mut report);
            (median(&a.call_ms), median(&b.call_ms))
        }
        other => return Err(format!("unknown workload {other}")),
    };
    // The loops' own metrics are end-to-end ones; the traced run reports
    // only the per-layer suite plus the overhead of tracing this loop.
    report.metrics.clear();
    report.metric(
        "trace.overhead_share",
        traced_ms / untraced_ms - 1.0,
        "share",
        format!("traced p50 {traced_ms:.4} ms vs untraced {untraced_ms:.4} ms"),
    );
    layers::suite(
        &mut t,
        &res,
        &letter,
        &pen,
        args.seed,
        &expected,
        &mut report,
    )?;
    let path = std::path::Path::new(".bench_build/perfbench-traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"host\":{{{}}}",
        args.workload,
        args.seed,
        host.json_members()
    );
    std::fs::create_dir_all(path.parent().expect("a parent directory"))
        .and_then(|()| std::fs::write(&path, t.to_json(&header)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        t.spans().len(),
        path.display()
    );
    Ok(report)
}

fn server(res: &Resident) -> &QuorumServer {
    res.server
        .as_ref()
        .expect("the resident was made with a server")
}

/// In-process `score_samples` scores of every stream row, in panels of
/// [`PANEL`] with running ids — the reference every served and bulk
/// score must equal bit for bit.
///
/// # Errors
///
/// Scoring failures.
pub fn expected_scores(frozen: &FrozenDetector, letter: &LetterInputs) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(letter.stream.unlabelled.num_samples());
    for (k, chunk) in letter.stream.unlabelled.rows().chunks(PANEL).enumerate() {
        let scores = frozen
            .score_samples(chunk, (k * PANEL) as u64)
            .map_err(|e| format!("in-process scoring: {e}"))?;
        out.extend(scores);
    }
    Ok(out)
}

/// Panel-32 scores must equal panel-1 scores on a fixed subset: the first
/// [`PANEL`] stream rows, scored one at a time.
fn check_panel_invariance(
    frozen: &FrozenDetector,
    letter: &LetterInputs,
    expected: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    for (i, row) in letter
        .stream
        .unlabelled
        .rows()
        .iter()
        .take(PANEL)
        .enumerate()
    {
        let alone = frozen
            .score_samples(std::slice::from_ref(row), i as u64)
            .map_err(|e| format!("panel-1 scoring: {e}"))?;
        report.check(alone[0].to_bits() == expected[i].to_bits(), || {
            format!(
                "row {i}: panel-1 score {} != panel-32 score {}",
                alone[0], expected[i]
            )
        });
    }
    Ok(())
}

/// Pushes `p50_ms` for `samples` in milliseconds and prints the tail:
/// the highest percentile (at most p99) with ten samples beyond it. The
/// tail is printed, not gated: on a shared two-core host it follows the
/// host's stolen time more than the program.
fn latency_metrics(samples: &[f64], what: &str, report: &mut Report) {
    let sorted = stats::sorted(samples.to_vec());
    if sorted.is_empty() {
        report.check(false, || format!("no {what} completed"));
        report.metric("p50_ms", f64::NAN, "ms", "");
        return;
    }
    report.metric(
        "p50_ms",
        stats::percentile(&sorted, 50.0),
        "ms",
        format!("per {what}, n={}", sorted.len()),
    );
    let tail = stats::tail(&sorted, 99.0);
    let support = match tail.q {
        Some(_) => format!("{} beyond", tail.beyond),
        None => "too few samples for any percentile above the median".into(),
    };
    println!(
        "tail: {} {:.6} ms per {what}, n={}, {support}",
        tail.label(),
        tail.value,
        tail.n
    );
}

fn setup_metric(setup_s: &[f64], what: &str, report: &mut Report) {
    report.metric(
        "setup_s",
        median(setup_s),
        "s",
        format!("median of {} × {what}", setup_s.len()),
    );
}

// ---------------------------------------------------------------- serve-open

/// One open-loop phase against the server.
pub struct ServeRun {
    /// Every scheduled request's outcome.
    pub outcomes: Vec<Outcome>,
    /// Panels the batcher dispatched during the phase.
    pub batches: u64,
    /// Samples it scored.
    pub samples: u64,
    /// Requests it shed.
    pub shed: u64,
}

/// Noisy superoperators the resident groups have fused so far.
pub fn superop_builds(frozen: &FrozenDetector) -> usize {
    frozen
        .groups()
        .iter()
        .map(|g| g.noisy_superop_fusions())
        .sum()
}

/// Drives the resident's server open-loop at [`SERVE_RATE`] over
/// [`CONNECTIONS`] connections for `duration`, arrivals drawn from `seed`.
///
/// # Errors
///
/// Transport failures.
pub fn serve_loop(
    res: &Resident,
    letter: &LetterInputs,
    seed: u64,
    duration: Duration,
    t: &mut Tracer,
) -> Result<ServeRun, String> {
    let server = server(res);
    let rows = letter.stream.unlabelled.rows();
    let plans: Vec<ConnectionPlan> = (0..CONNECTIONS)
        .map(|c| {
            let due = poisson_schedule(
                derive_seed(seed, SCHEDULE + c as u64),
                SERVE_RATE / CONNECTIONS as f64,
                duration,
            );
            let rows = (0..due.len())
                .map(|k| (k * CONNECTIONS + c) % rows.len())
                .collect();
            ConnectionPlan { due, rows }
        })
        .collect();
    let counters = |s: &QuorumServer| (s.batches_dispatched(), s.samples_scored(), s.shed_total());
    let (b0, s0, shed0) = counters(server);
    let addr = server.local_addr();
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let mut local = t.sibling();
                s.spawn(move || {
                    let out =
                        drive_connection(addr, rows, plan, start, &mut local, (c as u64) << 32);
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut outcomes = Vec::new();
    for (out, local) in results {
        outcomes.extend(out?);
        t.absorb(local);
    }
    let (b1, s1, shed1) = counters(server);
    Ok(ServeRun {
        outcomes,
        batches: b1 - b0,
        samples: s1 - s0,
        shed: shed1 - shed0,
    })
}

impl ServeRun {
    /// The served score, when it equals the in-process score of its row.
    fn correct_score(o: &Outcome, expected: &[f64]) -> Option<f64> {
        match o.reply {
            Some(Reply::Score(v)) if v.to_bits() == expected[o.row].to_bits() => Some(v),
            _ => None,
        }
    }

    /// Latency from due time of every correctly answered request, ms.
    fn latencies_ms(&self, expected: &[f64]) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| Self::correct_score(o, expected).is_some())
            .filter_map(|o| o.done.map(|d| d.saturating_sub(o.due) as f64 / 1e6))
            .collect()
    }

    /// Median request latency from due time, ms.
    pub fn p50_ms(&self, expected: &[f64]) -> f64 {
        median(&self.latencies_ms(expected))
    }

    /// How late the generator wrote frames, ms (sent minus due).
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| o.sent.saturating_sub(o.due) as f64 / 1e6)
            .collect()
    }

    /// Counts attempts and failures and checks every served score against
    /// the in-process score of its row.
    pub fn account(&self, expected: &[f64], report: &mut Report) {
        report.attempted += self.outcomes.len() as u64;
        let bad: Vec<&Outcome> = self
            .outcomes
            .iter()
            .filter(|o| Self::correct_score(o, expected).is_none())
            .collect();
        report.failed += bad.len() as u64;
        if let Some(o) = bad.first() {
            report.check(false, || {
                format!(
                    "{} of {} requests failed; first: row {} got {:?}, in-process score {}",
                    bad.len(),
                    self.outcomes.len(),
                    o.row,
                    o.reply,
                    expected[o.row]
                )
            });
        }
    }

    fn metrics(
        &self,
        expected: &[f64],
        letter: &LetterInputs,
        res: &Resident,
        report: &mut Report,
    ) {
        let sent = self.outcomes.len();
        let good: Vec<(f64, bool)> = self
            .outcomes
            .iter()
            .filter_map(|o| {
                Self::correct_score(o, expected).map(|v| (v, letter.stream.labels[o.row]))
            })
            .collect();
        let latencies = self.latencies_ms(expected);
        let window_s = self
            .outcomes
            .iter()
            .filter_map(|o| o.done)
            .max()
            .unwrap_or(1) as f64
            / 1e9;
        report.metric(
            "throughput_sps",
            good.len() as f64 / window_s,
            "samples/s",
            format!(
                "{} answered in {window_s:.3} s, {SERVE_RATE}/s offered",
                good.len()
            ),
        );
        latency_metrics(&latencies, "request, from its due time", report);
        let within = latencies.iter().filter(|&&l| l <= SERVE_SLO_MS).count();
        report.metric(
            "within_slo_share",
            within as f64 / sent.max(1) as f64,
            "share",
            format!("{within} of {sent} sent answered within {SERVE_SLO_MS} ms"),
        );
        let (scores, labels): (Vec<f64>, Vec<bool>) = good.iter().copied().unzip();
        report.metric(
            "auc",
            roc_auc(&scores, &labels),
            "ratio",
            format!("ROC AUC over {} served scores", scores.len()),
        );
        setup_metric(&res.setup_s, "(freeze + encode + thaw + bind)", report);
        let late = stats::tail(&stats::sorted(self.lateness_ms()), 99.0);
        println!(
            "loadgen: {sent} sent, lateness {} {:.4} ms (n={})",
            late.label(),
            late.value,
            late.n
        );
    }
}

// --------------------------------------------------------------- bulk-frozen

/// One warm bulk phase: 32-row panels over the stream with running ids.
pub struct BulkRun {
    /// Wall time of each `score_samples` panel, ms.
    pub panel_ms: Vec<f64>,
    /// Samples scored.
    pub samples: u64,
    /// Wall time of the whole phase, s.
    pub elapsed_s: f64,
    /// The first score each stream row received.
    pub first: Vec<Option<f64>>,
    /// Scores that differed from the row's in-process reference.
    pub wrong: Vec<(usize, f64)>,
}

/// Scores the stream in [`PANEL`]-row panels for `duration`.
///
/// # Errors
///
/// Scoring failures.
pub fn bulk_loop(
    frozen: &FrozenDetector,
    letter: &LetterInputs,
    duration: Duration,
    t: &mut Tracer,
) -> Result<BulkRun, String> {
    let rows = letter.stream.unlabelled.rows();
    let n = rows.len();
    let mut run = BulkRun {
        panel_ms: Vec::new(),
        samples: 0,
        elapsed_s: 0.0,
        first: vec![None; n],
        wrong: Vec::new(),
    };
    let mut panel: Vec<Vec<f64>> = Vec::with_capacity(PANEL);
    let mut scores_of: Vec<(usize, f64)> = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < duration {
        let base = k as usize * PANEL;
        panel.clear();
        panel.extend((0..PANEL).map(|j| rows[(base + j) % n].clone()));
        let t0 = Instant::now();
        let scores = t
            .span("frozen.score_samples", k, |_| {
                frozen.score_samples(&panel, base as u64)
            })
            .map_err(|e| format!("bulk scoring: {e}"))?;
        run.panel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        scores_of.extend(
            scores
                .into_iter()
                .enumerate()
                .map(|(j, v)| ((base + j) % n, v)),
        );
        k += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.samples = k * PANEL as u64;
    for (row, v) in scores_of {
        run.first[row].get_or_insert(v);
        if run.first[row].map(f64::to_bits) != Some(v.to_bits()) {
            run.wrong.push((row, v));
        }
    }
    Ok(run)
}

impl BulkRun {
    /// Counts panels and checks every score against its row's reference.
    pub fn account(&self, expected: &[f64], report: &mut Report) {
        let panels = self.panel_ms.len() as u64;
        report.attempted += panels;
        let mismatched: Vec<usize> = self
            .first
            .iter()
            .enumerate()
            .filter(|(row, v)| v.is_some_and(|v| v.to_bits() != expected[*row].to_bits()))
            .map(|(row, _)| row)
            .collect();
        // A wrong score fails its panel; repeated rows must also repeat
        // their first score exactly.
        let bad = mismatched.len() + self.wrong.len();
        report.failed += (bad as u64).min(panels);
        report.check(bad == 0, || {
            format!(
                "{} rows scored differently from in-process panels, {} repeats changed",
                mismatched.len(),
                self.wrong.len()
            )
        });
        report.check(self.first.iter().all(Option::is_some), || {
            "the bulk phase did not cover the whole stream".into()
        });
    }

    fn metrics(&self, letter: &LetterInputs, res: &Resident, report: &mut Report) {
        let panels = self.panel_ms.len();
        report.metric(
            "throughput_sps",
            self.samples as f64 / self.elapsed_s,
            "samples/s",
            format!("{} samples in {:.3} s", self.samples, self.elapsed_s),
        );
        latency_metrics(&self.panel_ms, "32-row panel", report);
        let within = self.panel_ms.iter().filter(|&&l| l <= BULK_SLO_MS).count();
        report.metric(
            "within_slo_share",
            within as f64 / panels.max(1) as f64,
            "share",
            format!("{within} of {panels} panels within {BULK_SLO_MS} ms"),
        );
        let (scores, labels): (Vec<f64>, Vec<bool>) = self
            .first
            .iter()
            .zip(&letter.stream.labels)
            .filter_map(|(v, &l)| v.map(|v| (v, l)))
            .unzip();
        report.metric(
            "auc",
            roc_auc(&scores, &labels),
            "ratio",
            format!("ROC AUC over {} stream rows", scores.len()),
        );
        setup_metric(&res.setup_s, "(freeze + encode + thaw)", report);
    }
}

// -------------------------------------------------------------- oneshot-cold

/// Set-up repetitions of the cold workload: its set-up takes about a
/// millisecond, so it is repeated more often than the warm workloads'.
const ONESHOT_SETUP_REPS: usize = 25;

/// Makes the cold workload's inputs and times its set-up — input
/// generation and detector construction — [`ONESHOT_SETUP_REPS`] times.
///
/// # Errors
///
/// Invalid configurations.
pub fn oneshot_setup(seed: u64) -> Result<(PenInputs, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(ONESHOT_SETUP_REPS);
    let mut made = None;
    for _ in 0..ONESHOT_SETUP_REPS {
        let start = Instant::now();
        let pen = inputs::pen(seed);
        QuorumDetector::new(pen.config.clone()).map_err(|e| format!("config: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        made = Some(pen);
    }
    Ok((made.expect("at least one repetition"), setup_s))
}

/// Repeated cold calls: each call redraws its groups and builds every
/// cache entry.
pub struct OneshotRun {
    /// Wall time per call, ms.
    pub call_ms: Vec<f64>,
    /// Each call's scores.
    pub scores: Vec<Vec<f64>>,
    /// Samples per call.
    pub samples: usize,
}

/// Calls `QuorumDetector::score` cold until `duration` has passed, at
/// least twice so the calls can be compared.
///
/// # Errors
///
/// Scoring failures.
pub fn oneshot_loop(
    pen: &PenInputs,
    duration: Duration,
    t: &mut Tracer,
) -> Result<OneshotRun, String> {
    let mut run = OneshotRun {
        call_ms: Vec::new(),
        scores: Vec::new(),
        samples: pen.data.unlabelled.num_samples(),
    };
    let start = Instant::now();
    let mut call = 0u64;
    while call < 2 || start.elapsed() < duration {
        let t0 = Instant::now();
        let report = t
            .span("detector.score", call, |_| {
                QuorumDetector::new(pen.config.clone()).and_then(|d| d.score(&pen.data.unlabelled))
            })
            .map_err(|e| format!("cold scoring: {e}"))?;
        run.call_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        run.scores.push(report.scores().to_vec());
        call += 1;
    }
    Ok(run)
}

impl OneshotRun {
    /// Counts calls; every score must be finite and every call must
    /// reproduce the first bit for bit.
    pub fn account(&self, report: &mut Report) {
        report.attempted += self.scores.len() as u64;
        let bad = self
            .scores
            .iter()
            .filter(|s| {
                s.iter().any(|v| !v.is_finite())
                    || s.iter()
                        .zip(&self.scores[0])
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .count();
        report.failed += bad as u64;
        report.check(bad == 0, || {
            format!(
                "{bad} of {} cold calls gave non-finite or differing scores",
                self.scores.len()
            )
        });
    }

    fn metrics(&self, pen: &PenInputs, setup_s: &[f64], report: &mut Report) {
        let calls = self.call_ms.len();
        let total_s: f64 = self.call_ms.iter().sum::<f64>() / 1e3;
        report.metric(
            "throughput_sps",
            (calls * self.samples) as f64 / total_s,
            "samples/s",
            format!("{calls} calls × {} samples in {total_s:.3} s", self.samples),
        );
        latency_metrics(&self.call_ms, "cold call", report);
        let within = self
            .call_ms
            .iter()
            .filter(|&&l| l <= ONESHOT_SLO_MS)
            .count();
        report.metric(
            "within_slo_share",
            within as f64 / calls.max(1) as f64,
            "share",
            format!("{within} of {calls} calls within {ONESHOT_SLO_MS} ms"),
        );
        report.metric(
            "auc",
            roc_auc(&self.scores[0], &pen.data.labels),
            "ratio",
            format!("ROC AUC over {} samples", self.samples),
        );
        setup_metric(
            setup_s,
            "(input generation + detector construction)",
            report,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` records each workload's rate and limit; they must
    /// be the ones the code runs.
    #[test]
    fn benchmark_json_states_the_rates_and_limits_in_use() {
        let json = include_str!("../../BENCHMARK.json");
        let why = |name: &str| {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .expect("workload listed");
            let line = json[at..].lines().nth(1).expect("why follows name");
            line.to_string()
        };
        assert!(why("serve-open").contains(&format!(
            "Poisson {SERVE_RATE} req/s on {CONNECTIONS} TCP connections, {SERVE_SLO_MS} ms limit"
        )));
        assert!(why("bulk-frozen").contains(&format!(
            "{PANEL}-row score_samples panels, {BULK_SLO_MS} ms limit"
        )));
        assert!(why("oneshot-cold").contains(&format!("{ONESHOT_SLO_MS} ms limit per call")));
    }
}
