//! Solver instrumentation.
//!
//! §8.1 of the paper reports that "more than 90% of time is spent in Z3" and
//! measures the number of solver calls per experiment; [`SolverStats`] records
//! the equivalent counters for this solver so the benchmark harness can report
//! the same breakdown.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters accumulated by a [`crate::Solver`] across queries.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Number of satisfiability queries issued.
    pub calls: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown` (cube budget exceeded).
    pub unknown: u64,
    /// Total number of cubes examined.
    pub cubes_examined: u64,
    /// Prefix-cache hits: queries (or sub-steps of queries) answered from the
    /// analysis cached on a shared [`crate::PathCond`] node — either a whole
    /// cached verdict or the cached cube normalisation of the prefix that only
    /// the newest conjunct was folded into. Deterministic across thread
    /// counts: the cache lives on the shared node, not on the worker.
    pub prefix_hits: u64,
    /// Prefix-cache misses: path-condition nodes whose analysis had to be
    /// computed (each node is analysed at most once, process-wide).
    pub prefix_misses: u64,
    /// Per-worker memo-cache hits (formula→result and projection memos).
    /// Excluded from serialized reports: which worker answers a query — and
    /// therefore which per-worker memo it hits — is scheduling-dependent.
    #[serde(skip)]
    pub memo_hits: u64,
    /// Per-worker memo-cache misses (excluded from serialized reports, see
    /// [`SolverStats::memo_hits`]).
    #[serde(skip)]
    pub memo_misses: u64,
    /// Process-wide content-memo hits: path queries answered from the global
    /// memo keyed on interned content ids (see [`crate::intern`]), which is
    /// what a re-injected scenario hits instead of re-solving. Excluded from
    /// serialized reports: warm-vs-cold memo state must not change report
    /// bytes (hits replay the counter pattern of a real computation).
    #[serde(skip)]
    pub content_hits: u64,
    /// Process-wide content-memo misses (excluded from serialized reports,
    /// see [`SolverStats::content_hits`]).
    #[serde(skip)]
    pub content_misses: u64,
    /// Always 0: the disk-backed solver cache tier that counted these hits
    /// was removed. The benchmark under `perfbench/` asserts that the tier is
    /// off through this field; it goes with the benchmark's next revision.
    #[doc(hidden)]
    #[serde(skip)]
    pub persisted_hits: u64,
    /// Cumulative wall-clock time spent inside the solver.
    #[serde(with = "duration_micros")]
    pub time_in_solver: Duration,
}

impl SolverStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = SolverStats::default();
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.calls += other.calls;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.cubes_examined += other.cubes_examined;
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.content_hits += other.content_hits;
        self.content_misses += other.content_misses;
        self.time_in_solver += other.time_in_solver;
    }
}

mod duration_micros {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_micros(u64::deserialize(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = SolverStats {
            calls: 2,
            sat: 1,
            unsat: 1,
            unknown: 0,
            cubes_examined: 5,
            prefix_hits: 4,
            prefix_misses: 2,
            memo_hits: 1,
            memo_misses: 3,
            content_hits: 2,
            content_misses: 1,
            time_in_solver: Duration::from_millis(10),
            ..SolverStats::default()
        };
        let b = SolverStats {
            calls: 3,
            sat: 2,
            unsat: 0,
            unknown: 1,
            cubes_examined: 7,
            prefix_hits: 1,
            prefix_misses: 1,
            memo_hits: 2,
            memo_misses: 1,
            content_hits: 1,
            content_misses: 4,
            time_in_solver: Duration::from_millis(5),
            ..SolverStats::default()
        };
        a.merge(&b);
        assert_eq!(a.calls, 5);
        assert_eq!(a.sat, 3);
        assert_eq!(a.unsat, 1);
        assert_eq!(a.unknown, 1);
        assert_eq!(a.cubes_examined, 12);
        assert_eq!(a.prefix_hits, 5);
        assert_eq!(a.prefix_misses, 3);
        assert_eq!(a.memo_hits, 3);
        assert_eq!(a.memo_misses, 4);
        assert_eq!(a.content_hits, 3);
        assert_eq!(a.content_misses, 5);
        assert_eq!(a.time_in_solver, Duration::from_millis(15));
        a.reset();
        assert_eq!(a, SolverStats::default());
    }

    #[test]
    fn default_stats_are_zero() {
        let s = SolverStats::default();
        assert_eq!(s.calls, 0);
        assert_eq!(s.time_in_solver, Duration::ZERO);
    }
}
