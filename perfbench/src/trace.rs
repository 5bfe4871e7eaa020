//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! operation (root span) it belongs to. Recording is off in timed runs:
//! [`span`] then only calls its closure. In the traced run spans are kept in
//! memory and written out when the run ends; a layer's self time is its
//! spans' duration minus the time covered by their child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The root span of the operation this span belongs to.
    pub op: u64,
    /// Layer call name, e.g. `engine.inject`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// A span recorder.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread as `(span id, op id)`, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` (only timed when recording).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let outer = open.last().copied();
            let op = outer.map_or(id, |(_, op)| op);
            open.push((id, op));
            (outer.map(|(parent, _)| parent), op)
        });
        // Pops the span even when `f` panics (the harness counts panics as
        // failures and carries on).
        struct Close;
        impl Drop for Close {
            fn drop(&mut self) {
                OPEN.with(|open| open.borrow_mut().pop());
            }
        }
        let close = Close;
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        drop(close);
        self.spans
            .lock()
            .expect("span list lock: no span code panics while holding it")
            .push(Span {
                id,
                parent,
                op,
                name,
                start: start - self.origin,
                dur,
            });
        out
    }

    /// Removes and returns every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock: no span code panics while holding it"),
        )
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The process-wide recorder the workloads use.
pub fn global() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Runs `f` inside a span of the process-wide recorder.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    global().span(name, f)
}

/// Per-name totals of a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time: duration minus the child spans' durations.
    pub self_time: Duration,
}

impl LayerTime {
    /// Mean span duration in milliseconds (`None` without spans).
    pub fn mean_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total.as_secs_f64() * 1000.0 / self.count as f64)
    }
}

/// Aggregates spans by name. Children run on their parent's thread inside
/// the parent's interval and never overlap each other, so a parent's
/// covered time is the sum of its children's durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_time: BTreeMap<u64, Duration> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_time.entry(parent).or_default() += s.dur;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.dur;
        t.self_time += s
            .dur
            .saturating_sub(child_time.get(&s.id).copied().unwrap_or_default());
    }
    out
}

/// Writes spans as JSON lines (`id`, `parent`, `op`, `name`, `start_us`,
/// `dur_us`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            s.id,
            parent,
            s.op,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span("op", || {
            t.span("a", || busy(Duration::from_millis(3)));
            t.span("b", || t.span("c", || busy(Duration::from_millis(2))));
        });
        t.span("op", || {});
        let spans = t.take();
        assert_eq!(spans.len(), 5);
        let by = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .cloned()
                .collect::<Vec<_>>()
        };
        let ops = by("op");
        let (a, b, c) = (&by("a")[0], &by("b")[0], &by("c")[0]);
        assert_eq!(a.parent, Some(ops[0].id));
        assert_eq!(c.parent, Some(b.id));
        assert!([a.op, b.op, c.op].iter().all(|&op| op == ops[0].id));
        assert_eq!(ops[1].op, ops[1].id);
        assert_ne!(ops[0].op, ops[1].op);
        let times = layer_times(&spans);
        assert_eq!(times["op"].count, 2);
        assert!(times["b"].self_time < times["b"].total);
        assert_eq!(times["c"].self_time, times["c"].total);
        assert_eq!(
            times["op"].self_time + times["a"].total + times["b"].total,
            times["op"].total
        );
    }

    #[test]
    fn a_panicking_span_is_closed() {
        let t = Tracer::new();
        t.set_enabled(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("outer", || t.span("inner", || panic!("boom")))
        }));
        assert!(caught.is_err());
        t.span("next", || {});
        let spans = t.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, None);
    }
}
