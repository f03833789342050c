//! Quorum's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `serve-open` — a frozen `letter` detector behind a real
//!   `QuorumServer` on loopback, driven open-loop by seeded Poisson
//!   arrivals over two connections.
//! * `bulk-frozen` — the same artifact scoring the held-out stream in
//!   warm 32-row `FrozenDetector::score_samples` panels.
//! * `oneshot-cold` — repeated cold `QuorumDetector::score` calls on
//!   `pen-global` at n = 4, where every call redraws its groups and
//!   rebuilds every cache entry.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` reruns the
//! workload untraced and traced (the difference is the tracing overhead)
//! and then runs the per-layer probe suite, writing every span to
//! `.bench_build/perfbench-traces/`. Each metric prints on its own line
//! with unit and sample count; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod inputs;
mod layers;
mod loadgen;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Sample count, percentile used, or how it was derived.
    pub detail: String,
}

/// A workload's result: its metrics, what it attempted, and every output
/// check that failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, panels or calls).
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong output.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        detail: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            detail: detail.into(),
        });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            // Non-finite values are not JSON; `correct` is already false.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// The command line: `--workload`, `--seed`, `--seconds`, `--trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <serve-open|bulk-frozen|oneshot-cold> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!(
            "{:<34} {:>14.6} {:<10} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("--workload bulk-frozen --seed 7 --seconds 3 --trace 1"),
            Ok(Args {
                workload: "bulk-frozen".into(),
                seed: 7,
                seconds: 3,
                trace: true
            })
        );
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("p50_ms", 1.25, "ms", "n=3");
        r.metric("auc", 0.5, "ratio", "");
        assert_eq!(
            r.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"auc\":{\"value\":0.5,\"unit\":\"ratio\"}}}"
        );
        r.check(false, || "bad".into());
        assert!(r.json().starts_with("{\"correct\":false"));
    }
}
