//! CI bench-regression gate: diffs a fresh `snapshot-bench` output (usually
//! `BENCH_ci.json`) against a committed baseline (`BENCH_<pr>.json`) and
//! fails when a gated series' mean regresses by more than the threshold.
//!
//! ```text
//! cargo bench -p symnet-bench
//! cargo run --release -p symnet-bench --bin snapshot-bench -- BENCH_ci.json
//! cargo run --release -p symnet-bench --bin bench-diff -- BENCH_8.json BENCH_ci.json
//! ```
//!
//! Only a curated allowlist of series is gated: the single-process,
//! fixed-size experiments whose means are stable enough on shared CI runners
//! to make a 25% swing meaningful. Load-dependent series (the concurrent
//! serving closed loops) and anything not in the allowlist are reported but
//! never fail the gate. A gated series of the baseline that is missing from
//! the current snapshot fails the gate: a regression gate is only as good as
//! the series it covers. A missing ungated series is reported and skipped.
//!
//! Exit status: 0 when every gated series is present and none regresses by
//! more than the threshold, 1 otherwise. `--threshold <percent>` overrides
//! the default 25.

use serde_json::{Number, Value};
use std::process::ExitCode;

/// Series gated by the regression check (prefix match on `group/id` labels).
/// Curated for CI stability: deterministic single-injection experiments with
/// fixed workload sizes.
const GATED_PREFIXES: &[&str] = &[
    "sec85_department/",
    "service_deltas/",
    "full_scale/",
    "generators/",
];

/// Default regression threshold: mean more than 25% above baseline fails.
const DEFAULT_THRESHOLD_PERCENT: f64 = 25.0;

fn mean_ns(series: &Value) -> Option<f64> {
    match series.get_key("mean").get_key("point_estimate") {
        Value::Number(Number::Int(v)) => Some(*v as f64),
        Value::Number(Number::Float(v)) => Some(*v),
        _ => None,
    }
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    let Value::Object(series) = value.get_key("series") else {
        return Err(format!("{path}: no \"series\" object"));
    };
    let mut out = Vec::new();
    for (label, body) in series.iter() {
        match mean_ns(body) {
            Some(mean) => out.push((label.clone(), mean)),
            None => eprintln!("bench-diff: {path}: {label}: no mean.point_estimate, skipped"),
        }
    }
    Ok(out)
}

fn gated(label: &str) -> bool {
    GATED_PREFIXES.iter().any(|p| label.starts_with(p))
}

/// The result of diffing a current snapshot against a baseline.
#[derive(Debug, Default)]
struct Diff {
    /// One report line per baseline series and per new series.
    lines: Vec<String>,
    /// Series present in both snapshots.
    compared: usize,
    /// Gated series whose mean regressed past the threshold, with the change
    /// in percent.
    regressions: Vec<(String, f64)>,
    /// Gated series of the baseline missing from the current snapshot.
    missing: Vec<String>,
}

impl Diff {
    fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

fn diff(baseline: &[(String, f64)], current: &[(String, f64)], threshold: f64) -> Diff {
    let mut out = Diff::default();
    for (label, base_mean) in baseline {
        let gate = gated(label);
        let Some((_, cur_mean)) = current.iter().find(|(l, _)| l == label) else {
            if gate {
                out.lines.push(format!(
                    "{label}: gated series missing from the current snapshot [MISSING]"
                ));
                out.missing.push(label.clone());
            } else {
                out.lines.push(format!(
                    "{label}: not in the current snapshot (bench not run), skipped"
                ));
            }
            continue;
        };
        let delta_percent = (cur_mean - base_mean) / base_mean * 100.0;
        let verdict = if gate && delta_percent > threshold {
            out.regressions.push((label.clone(), delta_percent));
            "REGRESSED"
        } else if gate {
            "ok"
        } else {
            "info"
        };
        out.compared += 1;
        out.lines.push(format!(
            "{label}: {base_mean:.0} -> {cur_mean:.0} ns ({delta_percent:+.1}%) [{verdict}]"
        ));
    }
    for (label, _) in current {
        if !baseline.iter().any(|(l, _)| l == label) {
            out.lines
                .push(format!("{label}: new series (not in the baseline)"));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD_PERCENT;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threshold" {
            match iter.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold expects a number (percent)");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(arg.clone());
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: bench-diff <baseline.json> <current.json> [--threshold <percent>]");
        return ExitCode::from(2);
    };

    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench-diff: {err}");
            }
            return ExitCode::from(2);
        }
    };

    let result = diff(&baseline, &current, threshold);
    for line in &result.lines {
        println!("bench-diff: {line}");
    }
    if result.passed() {
        println!(
            "bench-diff: {} series compared, no gated mean regression above {threshold}%",
            result.compared
        );
        return ExitCode::SUCCESS;
    }
    if !result.missing.is_empty() {
        eprintln!(
            "bench-diff: {} gated series missing from {current_path}:",
            result.missing.len()
        );
        for label in &result.missing {
            eprintln!("  {label}");
        }
    }
    if !result.regressions.is_empty() {
        eprintln!(
            "bench-diff: {} gated series regressed more than {threshold}%:",
            result.regressions.len()
        );
        for (label, delta) in &result.regressions {
            eprintln!("  {label}: {delta:+.1}%");
        }
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(series: &[(&str, f64)]) -> Vec<(String, f64)> {
        series.iter().map(|&(l, m)| (l.to_string(), m)).collect()
    }

    #[test]
    fn missing_gated_series_fails() {
        let base = snapshot(&[("full_scale/table2_router/egress", 100.0)]);
        let result = diff(&base, &[], DEFAULT_THRESHOLD_PERCENT);
        assert!(!result.passed());
        assert_eq!(result.missing, vec!["full_scale/table2_router/egress"]);
    }

    #[test]
    fn missing_ungated_series_is_reported_and_skipped() {
        let base = snapshot(&[
            ("concurrent_serve/queries/1", 100.0),
            ("sec85_department/inbound_scan", 100.0),
        ]);
        let cur = snapshot(&[("sec85_department/inbound_scan", 101.0)]);
        let result = diff(&base, &cur, DEFAULT_THRESHOLD_PERCENT);
        assert!(result.passed());
        assert_eq!(result.compared, 1);
        assert!(result
            .lines
            .iter()
            .any(|l| l.starts_with("concurrent_serve/queries/1:") && l.ends_with("skipped")));
    }

    #[test]
    fn gated_regression_over_threshold_fails() {
        let base = snapshot(&[
            ("service_deltas/incremental/1", 100.0),
            ("generators/build/fat_tree", 100.0),
        ]);
        let cur = snapshot(&[
            ("service_deltas/incremental/1", 130.0),
            ("generators/build/fat_tree", 120.0),
        ]);
        let result = diff(&base, &cur, DEFAULT_THRESHOLD_PERCENT);
        assert!(!result.passed());
        assert_eq!(result.regressions.len(), 1);
        assert_eq!(result.regressions[0].0, "service_deltas/incremental/1");
        assert!(result.missing.is_empty());
    }
}
