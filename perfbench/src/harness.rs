//! Measurement plumbing shared by every workload: nearest-rank percentiles,
//! ratios, failure counting, layer counters, report digests and the seeded
//! random stream the workloads draw their inputs from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use symnet_core::engine::{ExecutionReport, PathStatus, SchedStats};
use symnet_core::network::ElementId;
use symnet_core::ServiceStats;
use symnet_solver::SolverStats;

/// Nearest-rank percentile of an ascending-sorted sample; `permille` is the
/// percentile in tenths of a percent (500 = median, 900 = p90). `None` for an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], permille: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (permille as usize * sorted.len()).div_ceil(1000);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank `permille` percentile
/// of a sample of size `n`.
fn samples_beyond(n: usize, permille: u32) -> usize {
    n - (permille as usize * n).div_ceil(1000).max(1).min(n)
}

/// The tail percentiles a latency may be reported at, in permille.
pub const TAIL_PERMILLE: [u32; 3] = [900, 990, 999];

/// The highest tail percentile (permille) that still has at least ten
/// samples beyond it in a sample of size `n`, or `None` when even p90 has
/// fewer (n < 100).
pub fn highest_supported_tail(n: usize) -> Option<u32> {
    TAIL_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// `num / base`, or `None` when the base is zero (reported as JSON `null`,
/// never NaN).
pub fn ratio(num: f64, base: f64) -> Option<f64> {
    (base != 0.0).then(|| num / base)
}

/// Milliseconds of a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// A latency sample in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Records one latency.
    pub fn push(&mut self, d: Duration) {
        self.0.push(ms(d));
    }

    /// Appends another sample.
    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True without samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank median.
    pub fn p50(&self) -> Option<f64> {
        nearest_rank(&self.sorted(), 500)
    }

    /// Nearest-rank p90, only when at least ten samples lie beyond it.
    pub fn p90(&self) -> Option<f64> {
        highest_supported_tail(self.len()).and_then(|_| nearest_rank(&self.sorted(), 900))
    }
}

/// Attempted and failed operations. A failure is a wrong verdict, an engine
/// or server error (`Overloaded` included) or a panic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; prints the reason of a failure to stderr.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: operation failed: {reason}");
            }
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted operations (`None` when nothing was attempted).
    pub fn failed_ratio(&self) -> Option<f64> {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Runs one operation, turning a panic into a failure.
pub fn attempt(op: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Counters the program exposes, summed over one measurement window.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Engine explorations whose reports were read (`SymNet::inject` or
    /// `VerifyService::verify`).
    pub engine_runs: u64,
    /// Paths in those reports.
    pub paths: u64,
    /// Delivered paths in those reports.
    pub delivered: u64,
    /// Solver counters of those reports.
    pub solver: SolverStats,
    /// Scheduler counters of those reports.
    pub sched: SchedStats,
    /// Canonical reports rendered.
    pub renders: u64,
    /// Bytes of rendered canonical reports.
    pub bytes: u64,
    /// `VerifyService::verify` calls.
    pub verifies: u64,
    /// Summed `ServiceStats` of those calls.
    pub kept: u64,
    /// Paths re-explored by those calls.
    pub reexplored: u64,
    /// Invalidated roots re-explored by those calls.
    pub invalidated_roots: u64,
    /// Path-condition nodes cleared for those calls.
    pub cache_nodes_cleared: u64,
    /// Served verdicts.
    pub served: u64,
    /// Summed `ServedReport::wall`.
    pub server_wall: Duration,
    /// Summed client-observed time beyond `ServedReport::wall` (reply
    /// hand-off and client wake-up).
    pub server_wait: Duration,
}

impl Counters {
    /// Reads an engine report's counters.
    pub fn engine(&mut self, report: &ExecutionReport) {
        self.engine_runs += 1;
        self.paths += report.paths.len() as u64;
        self.delivered += report.delivered().count() as u64;
        self.solver.merge(&report.solver_stats);
        self.sched.merge(&report.sched);
    }

    /// Reads a service verification's counters.
    pub fn service(&mut self, stats: &ServiceStats) {
        self.verifies += 1;
        self.kept += stats.kept_paths as u64;
        self.reexplored += stats.reexplored_paths as u64;
        self.invalidated_roots += stats.invalidated_roots as u64;
        self.cache_nodes_cleared += stats.cache_nodes_cleared as u64;
    }

    /// Records one rendered report.
    pub fn rendered(&mut self, json: &str) {
        self.renders += 1;
        self.bytes += json.len() as u64;
    }

    /// Adds another window's (or thread's) counters.
    pub fn merge(&mut self, o: &Counters) {
        self.engine_runs += o.engine_runs;
        self.paths += o.paths;
        self.delivered += o.delivered;
        self.solver.merge(&o.solver);
        self.sched.merge(&o.sched);
        self.renders += o.renders;
        self.bytes += o.bytes;
        self.verifies += o.verifies;
        self.kept += o.kept;
        self.reexplored += o.reexplored;
        self.invalidated_roots += o.invalidated_roots;
        self.cache_nodes_cleared += o.cache_nodes_cleared;
        self.served += o.served;
        self.server_wall += o.server_wall;
        self.server_wait += o.server_wait;
    }
}

/// What one measurement window (or one client thread of it) observed.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Verdict latencies: query submission to rendered canonical report.
    pub verdict: Latencies,
    /// Delta-verdict latencies: delta submission to the rendered canonical
    /// report of the standing query on the new topology.
    pub delta: Latencies,
    /// Verdicts completed (each query counted once).
    pub queries: u64,
    /// Operation outcomes.
    pub tally: Tally,
    /// Program counters.
    pub counters: Counters,
    /// Window wall time.
    pub wall: Duration,
}

impl Window {
    /// Adds a client thread's observations (the wall time is the caller's).
    pub fn merge(&mut self, o: &Window) {
        self.verdict.extend(&o.verdict);
        self.delta.extend(&o.delta);
        self.queries += o.queries;
        self.tally.merge(&o.tally);
        self.counters.merge(&o.counters);
    }
}

/// The `(element, port)` set of a report's delivered paths, sorted, with
/// duplicates kept (so "one path per port" is part of the comparison).
pub fn delivered_ports(report: &ExecutionReport) -> Vec<(ElementId, usize)> {
    let mut ports: Vec<_> = report
        .paths
        .iter()
        .filter_map(|p| match p.status {
            PathStatus::Delivered { element, port } => Some((element, port)),
            PathStatus::Dropped { .. } => None,
        })
        .collect();
    ports.sort_unstable();
    ports
}

/// A 64-bit digest of a rendered report (word-at-a-time multiply-rotate; a
/// change detector, not a cryptographic hash).
pub fn digest(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    h ^ (h >> 29)
}

/// A splitmix64 stream: the workloads derive every input from the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Builds a workload repeatedly and times each build: at least three times
/// and until half a second has passed (at most 1000 times), so `setup_s` is
/// a median of many builds even when one build takes a fraction of a
/// millisecond. Each build is dropped before the next starts; the last one is
/// returned with every build time.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<Duration>) {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 1000;
    const BUDGET: Duration = Duration::from_millis(500);
    let started = Instant::now();
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < MIN_REPS || (started.elapsed() < BUDGET && times.len() < MAX_REPS) {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed());
    }
    (built.expect("at least one build"), times)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 500), Some(5.0));
        assert_eq!(nearest_rank(&v, 900), Some(9.0));
        assert_eq!(nearest_rank(&v, 910), Some(10.0));
        assert_eq!(nearest_rank(&v, 1000), Some(10.0));
        assert_eq!(nearest_rank(&v, 0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 500), Some(7.0));
        assert_eq!(nearest_rank(&[], 500), None);
        // Four samples: the median is the second, not an interpolation.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 500), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(0), None);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(900));
        assert_eq!(highest_supported_tail(999), Some(900));
        assert_eq!(highest_supported_tail(1000), Some(990));
        assert_eq!(highest_supported_tail(10_000), Some(999));
        let mut few = Latencies::default();
        let mut many = Latencies::default();
        for i in 0..99 {
            few.push(Duration::from_millis(i));
            many.push(Duration::from_millis(i));
        }
        many.push(Duration::from_millis(99));
        assert_eq!(few.p90(), None);
        assert_eq!(many.p90(), Some(89.0));
        assert_eq!(many.p50(), Some(49.0));
    }

    #[test]
    fn zero_base_ratio_is_null_not_nan() {
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(3.0, 0.0), None);
        assert_eq!(ratio(1.0, 4.0), Some(0.25));
        assert_eq!(Tally::default().failed_ratio(), None);
    }

    #[test]
    fn failures_count_errors_and_panics() {
        let mut tally = Tally::default();
        tally.record(attempt(|| Ok(())));
        tally.record(attempt(|| Err("wrong verdict".into())));
        tally.record(attempt(|| panic!("worker died")));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        assert_eq!(tally.failed_ratio(), Some(2.0 / 3.0));
        let mut total = Tally::default();
        total.merge(&tally);
        total.merge(&Tally {
            attempted: 1,
            failed: 0,
        });
        assert_eq!(
            total,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
    }

    #[test]
    fn digest_sees_every_byte() {
        let base = "x".repeat(37);
        let mut changed = base.clone().into_bytes();
        changed[36] = b'y';
        assert_ne!(
            digest(&base),
            digest(std::str::from_utf8(&changed).unwrap())
        );
        assert_ne!(digest("ab"), digest("ab\0"));
        assert_eq!(digest(&base), digest(&base.clone()));
    }
}
