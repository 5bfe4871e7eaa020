//! End-to-end and per-layer benchmark of the SymNet reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2_router|fig8_switch|serve_churn|service_deltas> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set-up (timed several times, median
//! reported), untimed expected answers and priming, then a measurement window
//! of `--seconds`. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the first half of the window runs
//! untraced, the second half records spans, and the last line carries the
//! per-layer metrics (plus the tracing overhead between the two halves). The
//! line before it (`full: {...}`) carries every metric, with `null` where a
//! metric does not apply. See `perfbench/README.md`.

mod churn;
mod cold;
mod harness;
mod metrics;
mod trace;

use harness::Window;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use symnet_core::ServerStats;

/// A built workload, ready to measure.
pub trait Workload {
    /// How the solver memos are pinned during the window.
    fn memo_state(&self) -> &'static str;

    /// Runs operations until `deadline` (the operation in flight finishes).
    fn window(&mut self, deadline: Instant) -> Window;

    /// Adds layer counters the workload cannot read from its timed
    /// operations (traced run only).
    fn probe_layers(&mut self, _w: &mut Window) {}

    /// The server's counters, for workloads that run one.
    fn server_stats(&self) -> Option<ServerStats> {
        None
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "table2_router",
    "fig8_switch",
    "serve_churn",
    "service_deltas",
];

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window length.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if matches!(number()?, 1..=600) => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be 1..=600".into()),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            "--trace" => return Err("--trace must be 0 or 1".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run measured, before it is turned into metrics.
pub struct Run {
    /// Set-up times, one per repetition.
    pub setup: Vec<Duration>,
    /// The untraced window (the whole window in a timed run, the first half
    /// in a traced run).
    pub timed: Window,
    /// The traced half, with its spans and counter deltas.
    pub traced: Option<Traced>,
    /// Memo state during the windows.
    pub memo_state: &'static str,
    /// Failures of set-up, expected answers or priming.
    pub setup_failures: harness::Tally,
}

/// The traced half of a traced run.
pub struct Traced {
    /// Window observations, including the layer probes.
    pub window: Window,
    /// Every span recorded (set-up, traced window, probes).
    pub spans: Vec<trace::Span>,
    /// Interner and content-table evictions during the traced window.
    pub evicted: u64,
    /// Server counters accumulated during the traced window.
    pub server: ServerStats,
}

fn evicted_total() -> u64 {
    let s = symnet_solver::eviction_stats();
    s.formulas.evicted + s.intervals.evicted + s.content.evicted
}

fn server_delta(before: Option<ServerStats>, after: Option<ServerStats>) -> ServerStats {
    match (before, after) {
        (Some(b), Some(a)) => ServerStats {
            rejected: a.rejected - b.rejected,
            epochs_published: a.epochs_published - b.epochs_published,
            ..ServerStats::default()
        },
        _ => ServerStats::default(),
    }
}

/// Measures a built workload: the whole window untraced, or half untraced
/// and half traced.
fn measure(workload: &mut dyn Workload, seconds: u64, traced: bool) -> (Window, Option<Traced>) {
    let total = Duration::from_secs(seconds);
    if !traced {
        return (workload.window(Instant::now() + total), None);
    }
    let timed = workload.window(Instant::now() + total / 2);
    let tracer = trace::global();
    let (evicted, server) = (evicted_total(), workload.server_stats());
    tracer.set_enabled(true);
    let mut window = workload.window(Instant::now() + (total - total / 2));
    let evicted = evicted_total() - evicted;
    let server = server_delta(server, workload.server_stats());
    workload.probe_layers(&mut window);
    tracer.set_enabled(false);
    let traced = Traced {
        window,
        spans: tracer.take(),
        evicted,
        server,
    };
    (timed, Some(traced))
}

fn run(args: &Args) -> Result<Run, String> {
    if symnet_solver::cache::active() {
        return Err("the persistent solver cache is active; this benchmark runs without it".into());
    }
    // Set-up spans (`models.build`) belong to the traced run's layer data.
    trace::global().set_enabled(args.trace);
    let mut setup_failures = harness::Tally::default();
    let (setup, timed, traced, memo_state) = match args.workload.as_str() {
        "table2_router" | "fig8_switch" => {
            let kind = if args.workload == "table2_router" {
                cold::ColdKind::Table2Router
            } else {
                cold::ColdKind::Fig8Switch
            };
            let (mut w, setup) =
                harness::repeat_setup(|| cold::Cold::build(kind, kind.paper_entries(), args.seed));
            trace::global().set_enabled(false);
            setup_failures.record(w.prime());
            let (timed, traced) = measure(&mut w, args.seconds, args.trace);
            (setup, timed, traced, w.memo_state())
        }
        _ => {
            let kind = if args.workload == "serve_churn" {
                churn::ChurnKind::ServeChurn
            } else {
                churn::ChurnKind::ServiceDeltas
            };
            let (mut w, setup) = churn::setup(kind, args.seed, kind.routes())?;
            trace::global().set_enabled(false);
            setup_failures.record(w.prime());
            let (timed, traced) = measure(&mut w, args.seconds, args.trace);
            (setup, timed, traced, w.memo_state())
        }
    };
    let persisted = timed.counters.solver.persisted_hits
        + traced
            .as_ref()
            .map_or(0, |t| t.window.counters.solver.persisted_hits);
    if symnet_solver::cache::active() || persisted != 0 {
        return Err(format!(
            "the persistent solver cache was used ({persisted} persisted hits); this benchmark runs without it"
        ));
    }
    Ok(Run {
        setup,
        timed,
        traced,
        memo_state,
        setup_failures,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(traced) = &run.traced {
        // Next to the executable, inside the build directory.
        let file = format!("{}-seed{}.jsonl", args.workload, args.seed);
        match std::env::current_exe() {
            Ok(exe) => {
                let path = exe.with_file_name("traces").join(file);
                match trace::write_spans(&path, &traced.spans) {
                    Ok(()) => println!(
                        "spans: {} written to {}",
                        traced.spans.len(),
                        path.display()
                    ),
                    Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
                }
            }
            Err(e) => eprintln!("perfbench: spans not written, no executable path: {e}"),
        }
    }
    let report = metrics::Report::new(&run);
    for line in report.human_lines() {
        println!("{line}");
    }
    println!("full: {}", report.full_json(&args));
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv(
            "--workload serve_churn --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_churn".into(),
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_churn --seed x --seconds 1 --trace 0",
            "--workload serve_churn --seed 1 --seconds 0 --trace 0",
            "--workload serve_churn --seed 1 --seconds 1 --trace 2",
            "--workload serve_churn --seed 1 --seconds 1",
            "--workload serve_churn --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
