//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end (nanoseconds since the first
//! span), the span that was open on the same thread when it started, the
//! number of calls it stands for and the time those calls were busy. An
//! ordinary span is one call; an aggregated span ([`record_tally`]) folds
//! many short timed calls — per-branch predictor lookups, say — into one
//! record so a traced run keeps thousands of spans, not billions.
//!
//! The layer of a span is the first dot-separated part of its name
//! (`tage.predict` belongs to `tage`). A span's self time is its busy time
//! minus the busy time of its child spans; [`self_time_by_layer`] sums it
//! per layer. Spans are kept in memory while the run measures and written
//! out by [`write_tsv`] when it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.module.call` name.
    pub name: &'static str,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Calls this span stands for (1 for an ordinary span).
    pub calls: u64,
    /// Time those calls were busy (`end - start` for an ordinary span).
    pub busy_ns: u64,
}

impl Span {
    /// The layer the span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(enabled: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard {
    index: Option<usize>,
}

/// Opens a span named `name` on this thread (a no-op while recording is
/// off).
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { index: None };
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let index = {
        let mut spans = spans();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    SpanGuard { index: Some(index) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&index) {
                open.pop();
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            let span = &mut spans[index];
            span.end_ns = end_ns;
            span.busy_ns = end_ns - span.start_ns;
        }
    }
}

/// Runs `f` inside a span named `name` and returns its result with its wall
/// time (measured whether or not spans are being recorded).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _span = span(name);
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Per-call timings of one kind of call, accumulated by the caller and
/// recorded as one aggregated span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls timed.
    pub calls: u64,
    /// Sum of their durations, nanoseconds.
    pub busy_ns: u64,
    first_start_ns: Option<u64>,
    last_end_ns: u64,
}

impl Tally {
    /// Adds one timed call that started at `start` and took `elapsed`.
    #[inline]
    pub fn add(&mut self, start: Instant, elapsed: Duration) {
        self.add_calls(start, elapsed, 1);
    }

    /// Adds `calls` calls timed together: they started at `start` and took
    /// `elapsed` in all.
    #[inline]
    pub fn add_calls(&mut self, start: Instant, elapsed: Duration, calls: u64) {
        let origin = *ORIGIN.get_or_init(Instant::now);
        let start_ns = start.saturating_duration_since(origin).as_nanos() as u64;
        let busy = elapsed.as_nanos() as u64;
        self.first_start_ns.get_or_insert(start_ns);
        self.last_end_ns = start_ns + busy;
        self.calls += calls;
        self.busy_ns += busy;
    }

    /// Times one call of `f` into this tally.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.add(start, start.elapsed());
        result
    }

    /// Mean nanoseconds per call, less `overhead_ns` of timer cost per
    /// call; 0 when nothing was timed.
    pub fn ns_per_call(&self, overhead_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64 - overhead_ns
        }
    }
}

/// Records `tally` as one aggregated span named `name`, a child of the span
/// open on this thread (a no-op while recording is off or when the tally is
/// empty).
pub fn record_tally(name: &'static str, tally: &Tally) {
    let Some(start_ns) = tally.first_start_ns else {
        return;
    };
    if !enabled() {
        return;
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    spans().push(Span {
        name,
        parent,
        start_ns,
        end_ns: tally.last_end_ns,
        calls: tally.calls,
        busy_ns: tally.busy_ns,
    });
}

/// Removes and returns every span recorded so far. Spans still open keep
/// the end they had when taken.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Self time (busy time not covered by child spans) summed per layer,
/// nanoseconds. A child's busy time is charged to its parent's children
/// even when the child belongs to another layer, so the sum over layers
/// equals the busy time of the root spans.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_busy = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_busy[parent] += span.busy_ns;
        }
    }
    let mut layers = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_busy) {
        *layers.entry(span.layer()).or_insert(0) += span.busy_ns.saturating_sub(children);
    }
    layers
}

/// Writes `spans` as tab-separated lines: index, parent (`-` for roots),
/// name, start, end, calls, busy (times in nanoseconds).
///
/// # Errors
///
/// The I/O error from creating or writing the file.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tname\tstart_ns\tend_ns\tcalls\tbusy_ns")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{index}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            span.name, span.start_ns, span.end_ns, span.calls, span.busy_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, busy_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: 0,
            end_ns: busy_ns,
            calls: 1,
            busy_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_across_layers() {
        let spans = [
            span("sim.engine.run_source", None, 100),
            span("tage.predict", Some(0), 30),
            span("confidence.classify", Some(0), 20),
            span("tage.update", Some(0), 10),
        ];
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers["sim"], 40);
        assert_eq!(layers["tage"], 40);
        assert_eq!(layers["confidence"], 20);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn tally_reports_mean_minus_overhead() {
        let mut tally = Tally::default();
        let start = Instant::now();
        tally.add(start, Duration::from_nanos(30));
        tally.add(start, Duration::from_nanos(50));
        assert_eq!(tally.calls, 2);
        assert_eq!(tally.ns_per_call(5.0), 35.0);
        assert_eq!(Tally::default().ns_per_call(5.0), 0.0);
    }
}
