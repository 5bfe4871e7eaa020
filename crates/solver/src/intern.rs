//! Hash-consed interning of solver terms.
//!
//! The solver's incremental interface keys its memo tables on *what* a prefix
//! says, not on *which node* says it. This module provides the identity layer
//! that makes such keys sound and cheap:
//!
//! * [`Interned<T>`] — an `Arc`-shared, hash-consed value with a precomputed
//!   structural hash and a process-unique `u64` id. Two `Interned` handles
//!   obtained from the same interner are equal exactly when their values are
//!   structurally equal, and the common case is decided by pointer comparison.
//! * [`Interner<T>`] — a sharded, mutex-guarded hash-cons table. Process-wide
//!   instances for [`Formula`] and [`IntervalSet`] are exposed through
//!   [`formulas`], [`intervals`], [`intern_formula`] and [`canonical_interval`].
//! * [`content_id`] — interning of `(parent content, conjunct)` pairs, giving
//!   every distinct path-condition *content* a process-unique id. Two
//!   [`PathCond`](crate::path::PathCond)s built independently from the same
//!   conjunct sequence map to the same content id, which is what lets a
//!   re-injected scenario hit the cross-run solve memos instead of re-solving
//!   every prefix (see [`crate::Solver::check_path`]).
//!
//! # Lifecycle and eviction
//!
//! Interners hold *strong* references to their canonical values: an interned
//! formula stays resident after the last path referencing it dies, so the next
//! injection of the same scenario re-derives identical ids and hits the memos.
//! To bound memory, every shard runs a **second-chance sweep** once it reaches
//! capacity: entries hit since the previous sweep keep their slot (their
//! reference bit is cleared, arming them for the next round), one-shot entries
//! are evicted. A working set that genuinely exceeds capacity degrades to the
//! old clear-at-capacity behaviour — the sweep falls back to a full clear when
//! it frees nothing — so memory stays bounded either way, but a hot working
//! set (the memo-backing formulas of a long `--full`-scale chain) survives
//! instead of being thrashed out by cold traffic. [`eviction_stats`] exposes
//! the per-table eviction and sweep counters. Ids are never reused — after an
//! eviction, re-interning a value yields a *fresh* id, so stale memo entries
//! keyed on evicted ids can never be confused with new content; they simply
//! stop matching and age out with their own table's eviction.
//!
//! `Arc` rather than `Rc` because interned values cross threads: the engine's
//! work-stealing workers push and steal paths (whose nodes hold `Interned<
//! Formula>`) freely, and the global memo tables are shared by every worker.

use crate::formula::Formula;
use crate::interval::IntervalSet;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Process-wide id allocator shared by every interner (formulas, interval
/// sets, content pairs), so any two interned objects — of any type — have
/// distinct ids. Starts at 1; 0 is reserved for [`EMPTY_CONTENT_ID`].
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Content id of the empty path condition (no conjuncts).
pub const EMPTY_CONTENT_ID: u64 = 0;

/// Number of independently locked shards per interner.
const SHARD_COUNT: usize = 16;
/// Distinct values a shard holds before it runs a second-chance sweep.
const SHARD_CAP: usize = 8192;
/// Distinct `(parent, formula)` pairs the content-id table holds before it
/// runs a second-chance sweep.
const CONTENT_CAP: usize = 1 << 17;

/// Values evicted from the content-id table over the process lifetime.
static CONTENT_EVICTED: AtomicU64 = AtomicU64::new(0);
/// Second-chance sweeps run on the content-id table.
static CONTENT_SWEEPS: AtomicU64 = AtomicU64::new(0);

/// Lifetime eviction counters of one interning table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictionStats {
    /// Canonical values dropped by second-chance sweeps (including full-clear
    /// fallbacks).
    pub evicted: u64,
    /// Sweeps run.
    pub sweeps: u64,
}

/// Eviction counters of every process-wide interning table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoEvictionStats {
    /// The [`formulas`] interner.
    pub formulas: EvictionStats,
    /// The [`intervals`] interner.
    pub intervals: EvictionStats,
    /// The [`content_id`] table.
    pub content: EvictionStats,
}

/// Snapshot of the eviction and sweep counters of the process-wide tables.
///
/// `evicted == 0` after a long run means the hot working set (memo-backing
/// formulas, content chains) fit in the tables and no memo layer was thrashed;
/// a large count with few sweeps means mostly one-shot traffic aged out, which
/// is the intended behaviour.
pub fn eviction_stats() -> MemoEvictionStats {
    MemoEvictionStats {
        formulas: formulas().eviction_stats(),
        intervals: intervals().eviction_stats(),
        content: EvictionStats {
            evicted: CONTENT_EVICTED.load(Ordering::Relaxed),
            sweeps: CONTENT_SWEEPS.load(Ordering::Relaxed),
        },
    }
}

struct Entry<T> {
    hash: u64,
    id: u64,
    value: T,
}

/// A hash-consed, `Arc`-shared value with precomputed hash and unique id.
///
/// Obtained from an [`Interner`]; see the module docs for the equality and
/// lifecycle guarantees.
pub struct Interned<T>(Arc<Entry<T>>);

impl<T> Interned<T> {
    /// The process-unique id of this canonical value.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The precomputed structural hash of the value.
    pub fn precomputed_hash(&self) -> u64 {
        self.0.hash
    }

    /// True when both handles point at the same canonical allocation.
    pub fn ptr_eq(a: &Interned<T>, b: &Interned<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> Clone for Interned<T> {
    fn clone(&self) -> Self {
        Interned(Arc::clone(&self.0))
    }
}

impl<T> Deref for Interned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: PartialEq> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality decides the common case; the structural fallback
        // covers handles that straddle a shard eviction (same value interned
        // twice into distinct canonical allocations).
        Interned::ptr_eq(self, other)
            || (self.0.hash == other.0.hash && self.0.value == other.0.value)
    }
}

impl<T: Eq> Eq for Interned<T> {}

impl<T: Hash> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: std::fmt::Display> std::fmt::Display for Interned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.value.fmt(f)
    }
}

/// One resident canonical value plus its second-chance reference bit (set on
/// every hit, cleared by a sweep — an entry survives a sweep iff it was hit
/// since the previous one).
struct Slot<T> {
    handle: Interned<T>,
    touched: bool,
}

struct Shard<T> {
    /// Hash → canonical entries with that hash (almost always one).
    entries: HashMap<u64, Vec<Slot<T>>>,
    /// Total canonical values across all buckets.
    live: usize,
    /// Values evicted by sweeps over this shard's lifetime.
    evicted: u64,
    /// Second-chance sweeps run on this shard.
    sweeps: u64,
}

impl<T> Shard<T> {
    /// The second-chance eviction pass: keep entries whose reference bit is
    /// set (clearing it, so surviving another round requires another hit),
    /// evict the rest. When everything is hot — the working set genuinely
    /// exceeds capacity — fall back to a full clear so memory stays bounded.
    fn sweep(&mut self) {
        let mut freed = 0usize;
        self.entries.retain(|_, bucket| {
            bucket.retain_mut(|slot| {
                if slot.touched {
                    slot.touched = false;
                    true
                } else {
                    freed += 1;
                    false
                }
            });
            !bucket.is_empty()
        });
        self.live -= freed;
        self.evicted += freed as u64;
        self.sweeps += 1;
        if self.live >= SHARD_CAP {
            self.evicted += self.live as u64;
            self.entries.clear();
            self.live = 0;
        }
    }
}

/// A sharded hash-cons table. See the module docs.
pub struct Interner<T> {
    shards: Vec<Mutex<Shard<T>>>,
}

fn structural_hash<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl<T: Hash + Eq> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            shards: (0..SHARD_COUNT)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        live: 0,
                        evicted: 0,
                        sweeps: 0,
                    })
                })
                .collect(),
        }
    }

    /// Returns the canonical [`Interned`] handle for `value`, creating it if
    /// this value has not been seen (since the last shard eviction).
    pub fn intern(&self, value: T) -> Interned<T> {
        let hash = structural_hash(&value);
        let shard = &self.shards[(hash as usize) % SHARD_COUNT];
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(bucket) = guard.entries.get_mut(&hash) {
            if let Some(found) = bucket.iter_mut().find(|s| s.handle.0.value == value) {
                // A hit sets the reference bit: this entry survives the next
                // sweep.
                found.touched = true;
                return found.handle.clone();
            }
        }
        if guard.live >= SHARD_CAP {
            guard.sweep();
        }
        let interned = Interned(Arc::new(Entry {
            hash,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value,
        }));
        // New entries start cold: a value never hit again is evicted by the
        // next sweep, so one-shot traffic cannot thrash the hot working set.
        guard.entries.entry(hash).or_default().push(Slot {
            handle: interned.clone(),
            touched: false,
        });
        guard.live += 1;
        interned
    }

    /// Number of canonical values currently resident (for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).live)
            .sum()
    }

    /// Lifetime eviction counters of this interner, summed over its shards.
    pub fn eviction_stats(&self) -> EvictionStats {
        let mut stats = EvictionStats::default();
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            stats.evicted += guard.evicted;
            stats.sweeps += guard.sweeps;
        }
        stats
    }

    /// True when no value is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Hash + Eq> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

/// The process-wide [`Formula`] interner.
pub fn formulas() -> &'static Interner<Formula> {
    static FORMULAS: OnceLock<Interner<Formula>> = OnceLock::new();
    FORMULAS.get_or_init(Interner::new)
}

/// The process-wide [`IntervalSet`] interner.
pub fn intervals() -> &'static Interner<IntervalSet> {
    static INTERVALS: OnceLock<Interner<IntervalSet>> = OnceLock::new();
    INTERVALS.get_or_init(Interner::new)
}

/// Interns a formula in the process-wide table.
pub fn intern_formula(formula: Formula) -> Interned<Formula> {
    formulas().intern(formula)
}

/// Returns the canonical copy of an interval set, so structurally equal big
/// sets share one `Arc`-backed allocation (making their equality O(1) and
/// their clones reference bumps). Sets small enough to live inline (≤ 2
/// ranges) are returned unchanged — interning them would only add lookup cost.
pub fn canonical_interval(set: IntervalSet) -> IntervalSet {
    if set.interval_count() <= 2 {
        return set;
    }
    let interned = intervals().intern(set);
    interned.deref().clone()
}

/// Interns the `(parent content, formula)` pair and returns the content id of
/// the extended prefix. Pass [`EMPTY_CONTENT_ID`] as `parent` for the first
/// conjunct; `formula` is the id of an [`Interned<Formula>`].
pub fn content_id(parent: u64, formula: u64) -> u64 {
    /// Content id plus the second-chance reference bit of one `(parent,
    /// formula)` pair.
    type ContentSlot = (u64, bool);
    static CONTENT: OnceLock<Mutex<HashMap<(u64, u64), ContentSlot>>> = OnceLock::new();
    let map = CONTENT.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(slot) = guard.get_mut(&(parent, formula)) {
        slot.1 = true;
        return slot.0;
    }
    if guard.len() >= CONTENT_CAP {
        // Same second-chance discipline as the shard sweep: keep pairs looked
        // up since the previous sweep (clearing their bit), evict the rest,
        // and fall back to a full clear when everything is hot.
        let before = guard.len();
        guard.retain(|_, slot| std::mem::replace(&mut slot.1, false));
        if guard.len() >= CONTENT_CAP {
            guard.clear();
        }
        CONTENT_EVICTED.fetch_add((before - guard.len()) as u64, Ordering::Relaxed);
        CONTENT_SWEEPS.fetch_add(1, Ordering::Relaxed);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    guard.insert((parent, formula), (id, false));
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::SymVar;

    fn v(id: u64) -> SymVar {
        SymVar::new(id, 16)
    }

    #[test]
    fn interning_the_same_formula_yields_the_same_id_and_pointer() {
        // Use constants unlikely to collide with other tests sharing the
        // process-wide interner.
        let f = Formula::eq_const(v(70_001), 12_345);
        let a = intern_formula(f.clone());
        let b = intern_formula(f.clone());
        assert!(Interned::ptr_eq(&a, &b));
        assert_eq!(a.id(), b.id());
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        assert_eq!(*a, f);
        let other = intern_formula(Formula::eq_const(v(70_001), 12_346));
        assert!(!Interned::ptr_eq(&a, &other));
        assert_ne!(a.id(), other.id());
        assert_ne!(a, other);
    }

    #[test]
    fn content_ids_depend_only_on_content() {
        let f1 = intern_formula(Formula::eq_const(v(70_002), 7));
        let f2 = intern_formula(Formula::ne_const(v(70_003), 8));
        let a = content_id(EMPTY_CONTENT_ID, f1.id());
        let b = content_id(a, f2.id());
        // Rebuilding the same chain reproduces the same ids.
        assert_eq!(content_id(EMPTY_CONTENT_ID, f1.id()), a);
        assert_eq!(content_id(a, f2.id()), b);
        // Different chains get different ids.
        assert_ne!(content_id(EMPTY_CONTENT_ID, f2.id()), a);
        assert_ne!(a, EMPTY_CONTENT_ID);
        assert_ne!(b, a);
    }

    #[test]
    fn canonical_interval_shares_big_storage_and_skips_small() {
        let big = IntervalSet::from_ranges((0..40i128).map(|i| (3 * i + 900_000, 3 * i + 900_000)));
        let a = canonical_interval(big.clone());
        let b = canonical_interval(big.clone());
        assert!(a.ptr_eq(&b), "canonical big sets share one allocation");
        assert_eq!(a, big);
        let small = IntervalSet::range(0, 5);
        let s = canonical_interval(small.clone());
        assert_eq!(s, small);
        assert!(!s.ptr_eq(&small), "small sets are inline, never Arc-backed");
    }

    #[test]
    fn hot_values_survive_sweeps_while_cold_traffic_is_evicted() {
        let local: Interner<Formula> = Interner::new();
        let hot = Formula::eq_const(v(70_010), 42);
        let hot_handle = local.intern(hot.clone());
        // Enough distinct cold values to drive every shard past capacity
        // (twice over, so variance in hash distribution cannot save a shard
        // from sweeping), re-touching the hot value often enough that its
        // reference bit is always set when its shard sweeps.
        let total = SHARD_COUNT * SHARD_CAP * 2;
        for i in 0..total {
            local.intern(Formula::eq_const(v(80_000 + (i as u64 % 64)), i as u64));
            if i % 1024 == 0 {
                let again = local.intern(hot.clone());
                assert!(Interned::ptr_eq(&hot_handle, &again));
            }
        }
        let stats = local.eviction_stats();
        assert!(stats.sweeps > 0, "cold traffic must trigger sweeps");
        assert!(stats.evicted > 0, "one-shot values must be evicted");
        assert!(
            local.len() < total,
            "table stays bounded: {} resident after {} inserts",
            local.len(),
            total
        );
        // The hot value kept its slot — same canonical allocation, same id —
        // so memo entries keyed on it never went stale.
        let again = local.intern(hot);
        assert!(Interned::ptr_eq(&hot_handle, &again));
        assert_eq!(again.id(), hot_handle.id());
    }

    #[test]
    fn process_wide_eviction_stats_are_readable() {
        let stats = eviction_stats();
        // Counters are monotone and only move together: an eviction implies at
        // least one sweep on that table.
        assert!(stats.formulas.evicted == 0 || stats.formulas.sweeps > 0);
        assert!(stats.intervals.evicted == 0 || stats.intervals.sweeps > 0);
        assert!(stats.content.evicted == 0 || stats.content.sweeps > 0);
    }

    #[test]
    fn interned_equality_survives_distinct_allocations() {
        // Simulate the post-eviction case: equal values behind different Arcs.
        let local: Interner<Formula> = Interner::new();
        let a = local.intern(Formula::eq_const(v(70_004), 1));
        let other: Interner<Formula> = Interner::new();
        let b = other.intern(Formula::eq_const(v(70_004), 1));
        assert!(!Interned::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
