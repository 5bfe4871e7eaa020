//! Turns a [`Run`] into named metrics and the output lines.
//!
//! Three renderings: human-readable lines, a `full:` JSON line with every
//! metric (`null` where a metric does not apply to the workload or its base
//! is zero) and the last line, the result object: the `BENCHMARK.json`
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`), where
//! a layer the workload does not run reads 0.

use crate::harness::{ms, nearest_rank, peak_rss_mb, ratio, Tally, Window};
use crate::trace::{layer_times, LayerTime};
use crate::{Args, Run};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when it does not apply (or its base is zero).
    pub value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// The metrics of one run.
pub struct Report {
    /// End-to-end metrics gated by `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics printed but not gated (tails that need ≥100
    /// samples, the failure ratio, sample counts).
    pub end_to_end_extra: Vec<Metric>,
    /// Per-layer metrics listed in `BENCHMARK.json` (traced run only).
    pub per_layer: Vec<Metric>,
    /// Per-layer metrics printed but not listed (ratios whose base is zero on
    /// some workload).
    pub per_layer_extra: Vec<Metric>,
    /// Span totals by layer (traced run only).
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// All operations of the run.
    pub tally: Tally,
    /// Memo state during the windows.
    pub memo_state: &'static str,
}

fn per_s(count: u64, w: &Window) -> Option<f64> {
    ratio(count as f64, w.wall.as_secs_f64())
}

fn per(total: f64, count: u64) -> Option<f64> {
    ratio(total, count as f64)
}

impl Report {
    /// Computes every metric of a run.
    pub fn new(run: &Run) -> Report {
        let w = &run.timed;
        let mut setup: Vec<f64> = run.setup.iter().map(|d| d.as_secs_f64()).collect();
        setup.sort_by(f64::total_cmp);
        let end_to_end = vec![
            metric("setup_s", "s", nearest_rank(&setup, 500)),
            metric("verdict_ms_p50", "ms", w.verdict.p50()),
            metric("delta_verdict_ms_p50", "ms", w.delta.p50()),
            metric("queries_per_s", "1/s", per_s(w.queries, w)),
            metric("peak_rss_mb", "MiB", peak_rss_mb()),
        ];
        let mut tally = run.setup_failures;
        tally.merge(&w.tally);
        if let Some(t) = &run.traced {
            tally.merge(&t.window.tally);
        }
        let end_to_end_extra = vec![
            metric("verdict_ms_p90", "ms", w.verdict.p90()),
            metric("delta_verdict_ms_p90", "ms", w.delta.p90()),
            metric("failed_ratio", "ratio", tally.failed_ratio()),
            metric("verdict_samples", "count", Some(w.verdict.len() as f64)),
            metric("delta_verdict_samples", "count", Some(w.delta.len() as f64)),
        ];
        let (mut per_layer, mut per_layer_extra, mut layers) =
            (Vec::new(), Vec::new(), BTreeMap::new());
        if let Some(t) = &run.traced {
            layers = layer_times(&t.spans);
            let c = &t.window.counters;
            let span = |name: &str| layers.get(name).copied().unwrap_or_default();
            let engine_time = span("engine.inject").total + span("service.verify").total;
            let runs = c.engine_runs;
            let s = &c.solver;
            let solver_ms = per(ms(s.time_in_solver), runs);
            let inject_ms = per(ms(engine_time), runs);
            let build: Vec<f64> = {
                let mut v: Vec<f64> = t
                    .spans
                    .iter()
                    .filter(|s| s.name == "models.build")
                    .map(|s| ms(s.dur))
                    .collect();
                v.sort_by(f64::total_cmp);
                v
            };
            let hit_ratio = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
            let overhead = t
                .window
                .verdict
                .p50()
                .zip(w.verdict.p50())
                .and_then(|(traced, untraced)| ratio(traced, untraced))
                .map(|r| r - 1.0);
            per_layer = vec![
                metric("models.build_ms", "ms", nearest_rank(&build, 500)),
                metric("engine.inject_ms", "ms", inject_ms),
                metric(
                    "engine.self_ms",
                    "ms",
                    inject_ms.zip(solver_ms).map(|(i, s)| i - s),
                ),
                metric("engine.paths", "count", per(c.paths as f64, runs)),
                metric("engine.delivered", "count", per(c.delivered as f64, runs)),
                metric("solver.time_ms", "ms", solver_ms),
                metric("solver.calls", "count", per(s.calls as f64, runs)),
                metric(
                    "solver.cubes_examined",
                    "count",
                    per(s.cubes_examined as f64, runs),
                ),
                metric(
                    "solver.share",
                    "ratio",
                    ratio(ms(s.time_in_solver), ms(engine_time)),
                ),
                metric(
                    "solver.unknown_ratio",
                    "ratio",
                    ratio(s.unknown as f64, s.calls as f64),
                ),
                metric(
                    "solver.prefix_hit_ratio",
                    "ratio",
                    hit_ratio(s.prefix_hits, s.prefix_misses),
                ),
                metric(
                    "solver.content_hit_ratio",
                    "ratio",
                    hit_ratio(s.content_hits, s.content_misses),
                ),
                metric(
                    "solver.memo_hit_ratio",
                    "ratio",
                    hit_ratio(s.memo_hits, s.memo_misses),
                ),
                metric("intern.evicted", "count", Some(t.evicted as f64)),
                metric(
                    "sched.local_hits",
                    "count",
                    per(c.sched.local_hits as f64, runs),
                ),
                metric("sched.steals", "count", per(c.sched.steals as f64, runs)),
                metric(
                    "sched.overflow_pushes",
                    "count",
                    per(c.sched.overflow_pushes as f64, runs),
                ),
                metric("report.render_ms", "ms", span("report.render").mean_ms()),
                metric("report.bytes", "bytes", per(c.bytes as f64, c.renders)),
                metric("service.apply_ms", "ms", span("service.apply").mean_ms()),
                metric("service.verify_ms", "ms", span("service.verify").mean_ms()),
                metric(
                    "service.kept_paths",
                    "count",
                    per(c.kept as f64, c.verifies),
                ),
                metric(
                    "service.reexplored_paths",
                    "count",
                    per(c.reexplored as f64, c.verifies),
                ),
                metric(
                    "service.invalidated_roots",
                    "count",
                    per(c.invalidated_roots as f64, c.verifies),
                ),
                metric(
                    "service.cache_nodes_cleared",
                    "count",
                    per(c.cache_nodes_cleared as f64, c.verifies),
                ),
                metric("server.wall_ms", "ms", per(ms(c.server_wall), c.served)),
                metric("server.wait_ms", "ms", per(ms(c.server_wait), c.served)),
                metric(
                    "server.delta_publish_ms",
                    "ms",
                    span("server.publish").mean_ms(),
                ),
                metric("server.rejected", "count", Some(t.server.rejected as f64)),
                metric(
                    "server.epochs_published",
                    "count",
                    Some(t.server.epochs_published as f64),
                ),
                metric("trace.overhead_ratio", "ratio", overhead),
            ];
            per_layer_extra = vec![metric(
                "service.kept_ratio",
                "ratio",
                ratio(c.kept as f64, (c.kept + c.reexplored) as f64),
            )];
        }
        Report {
            end_to_end,
            end_to_end_extra,
            per_layer,
            per_layer_extra,
            layers,
            tally,
            memo_state: run.memo_state,
        }
    }

    /// Human-readable summary lines.
    pub fn human_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "memo state: {}; disk cache tier: off",
            self.memo_state
        )];
        let groups = [
            ("end-to-end", &self.end_to_end),
            ("end-to-end (not gated)", &self.end_to_end_extra),
            ("per-layer", &self.per_layer),
            ("per-layer (not gated)", &self.per_layer_extra),
        ];
        for (title, metrics) in groups {
            if metrics.is_empty() {
                continue;
            }
            out.push(format!("{title}:"));
            for m in metrics.iter() {
                let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
                out.push(format!("  {:<30} {:>16} {}", m.name, value, m.unit));
            }
        }
        if !self.layers.is_empty() {
            out.push(format!(
                "span self time: {:<22} {:>8} {:>12} {:>12}",
                "layer", "spans", "mean ms", "self ms/span"
            ));
            for (name, t) in &self.layers {
                out.push(format!(
                    "                {:<22} {:>8} {:>12.4} {:>12.4}",
                    name,
                    t.count,
                    t.mean_ms().unwrap_or(0.0),
                    ms(t.self_time) / t.count.max(1) as f64
                ));
            }
        }
        out
    }

    /// The `full:` line: every metric, `null` where it does not apply.
    pub fn full_json(&self, args: &Args) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"memo_state\":\"{}\",\"disk_cache\":\"off\",\"attempted\":{},\"failed\":{}",
            args.workload, args.seed, args.seconds, args.trace, self.memo_state, self.tally.attempted, self.tally.failed
        );
        let all_e2e: Vec<&Metric> = self
            .end_to_end
            .iter()
            .chain(&self.end_to_end_extra)
            .collect();
        let all_layer: Vec<&Metric> = self.per_layer.iter().chain(&self.per_layer_extra).collect();
        for (key, metrics) in [("end_to_end", all_e2e), ("per_layer", all_layer)] {
            let _ = write!(out, ",\"{key}\":");
            write_metrics(&mut out, metrics.into_iter(), false);
        }
        out.push('}');
        out
    }

    /// The last line: `correct`, `attempted`, `failed` and the listed metrics.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        write_metrics(&mut out, metrics.iter(), true);
        out.push('}');
        out
    }
}

fn write_metrics<'a>(
    out: &mut String,
    metrics: impl Iterator<Item = &'a Metric>,
    result_line: bool,
) {
    out.push('{');
    for (i, m) in metrics.enumerate() {
        let value = match m.value {
            Some(v) if v.is_finite() => v.to_string(),
            // In the result line a layer the workload does not run reads 0;
            // a ratio with a zero base stays `null`.
            None if result_line && m.unit != "ratio" => "0".to_string(),
            _ => "null".to_string(),
        };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Latencies;
    use std::time::Duration;

    fn run_with(verdicts: &[u64], failed: u64) -> Run {
        let mut timed = Window::default();
        let mut lat = Latencies::default();
        for &v in verdicts {
            lat.push(Duration::from_millis(v));
        }
        timed.verdict = lat.clone();
        timed.delta = lat;
        timed.queries = 2 * verdicts.len() as u64;
        timed.wall = Duration::from_secs(2);
        timed.tally = Tally {
            attempted: timed.queries,
            failed,
        };
        Run {
            setup: vec![
                Duration::from_millis(30),
                Duration::from_millis(10),
                Duration::from_millis(20),
            ],
            timed,
            traced: None,
            memo_state: "warm",
            setup_failures: Tally {
                attempted: 1,
                failed: 0,
            },
        }
    }

    #[test]
    fn result_line_has_every_end_to_end_metric() {
        let report = Report::new(&run_with(&[5, 1, 3, 4], 0));
        let line = report.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.02,\"unit\":\"s\"}"));
        assert!(line.contains("\"verdict_ms_p50\":{\"value\":3,\"unit\":\"ms\"}"));
        assert!(line.contains("\"queries_per_s\":{\"value\":4,\"unit\":\"1/s\"}"));
        assert!(line.contains("\"delta_verdict_ms_p50\""));
        assert!(line.contains("\"peak_rss_mb\""));
        assert!(!line.contains("null"));
    }

    #[test]
    fn failures_make_the_run_incorrect_and_tails_need_samples() {
        let report = Report::new(&run_with(&[5, 1, 3, 4], 8));
        assert!(report
            .result_json(false)
            .starts_with("{\"correct\":false,\"attempted\":9,\"failed\":8,"));
        let full = report.full_json(&Args {
            workload: "service_deltas".into(),
            seed: 1,
            seconds: 2,
            trace: false,
        });
        assert!(full.contains("\"failed_ratio\":{\"value\":0.8888888888888888,\"unit\":\"ratio\"}"));
        assert!(full.contains("\"verdict_ms_p90\":{\"value\":null,\"unit\":\"ms\"}"));
        assert!(!full.contains("NaN"));
    }

    #[test]
    fn absent_layers_read_zero_but_zero_base_ratios_stay_null() {
        let mut out = String::new();
        let ms_metric = metric("service.apply_ms", "ms", None);
        let ratio_metric = metric("solver.share", "ratio", None);
        write_metrics(&mut out, [&ms_metric, &ratio_metric].into_iter(), true);
        assert_eq!(
            out,
            "{\"service.apply_ms\":{\"value\":0,\"unit\":\"ms\"},\"solver.share\":{\"value\":null,\"unit\":\"ratio\"}}"
        );
    }
}
