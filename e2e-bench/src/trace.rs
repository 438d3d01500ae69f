//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the programs themselves are not instrumented). Each thread records into
//! its own buffer; a unit of work [`take`]s its buffer when it ends and the
//! buffers are [`Trace::merge`]d afterwards, so recording takes no lock.
//! Nothing is written until the run ends ([`Trace::write_tsv`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the process-wide clock, and the
/// span that was open on the same thread when it began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `model.update`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process-wide epoch.
    pub end_ns: u64,
}

/// Recorded spans plus named counters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in start order per thread.
    pub spans: Vec<Span>,
    /// Summed counters (work done, bytes, cost).
    pub counters: BTreeMap<&'static str, f64>,
    /// Calls too short and frequent to keep one span each: per name, the
    /// call count and summed duration. Their time counts as their parent
    /// span's own time in [`Trace::totals`]; subtract it where it matters.
    pub tallies: BTreeMap<&'static str, (u64, u64)>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Number of spans.
    pub calls: u64,
    /// Summed span durations.
    pub busy_ns: u64,
    /// Summed self time: each span minus what its children cover.
    pub self_ns: u64,
}

#[derive(Default)]
struct Recorder {
    trace: Trace,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` on this thread's recorder.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied();
        let index = r.trace.spans.len();
        r.trace.spans.push(Span {
            name,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        r.open.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.trace.spans[index].end_ns = now_ns();
        r.open.pop();
    });
    out
}

/// Runs `f` and adds its duration to this thread's tally `name` (see
/// [`Trace::tallies`]).
pub fn tally<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = now_ns();
    let out = f();
    let ns = now_ns() - start;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let entry = r.trace.tallies.entry(name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += ns;
    });
    out
}

/// Adds `amount` to this thread's counter `name`.
pub fn count(name: &'static str, amount: f64) {
    RECORDER.with(|r| *r.borrow_mut().trace.counters.entry(name).or_insert(0.0) += amount);
}

/// Takes everything this thread recorded so far.
///
/// # Panics
///
/// Panics when called inside an open span.
pub fn take() -> Trace {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "trace taken inside an open span");
        std::mem::take(&mut r.trace)
    })
}

/// Length of `[start, end)` not covered by the union of `children`
/// (clipped to the interval; children may overlap one another).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

impl Trace {
    /// Appends `other`, re-indexing its parent links.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
        for (name, (calls, ns)) in other.tallies {
            let entry = self.tallies.entry(name).or_insert((0, 0));
            entry.0 += calls;
            entry.1 += ns;
        }
    }

    /// Calls and summed duration of a tally (zeros when never tallied).
    pub fn tally(&self, name: &str) -> (u64, u64) {
        self.tallies.get(name).copied().unwrap_or((0, 0))
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per-name call counts, busy time and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.end_ns - s.start_ns;
            t.self_ns += self_time(s.start_ns, s.end_ns, kids);
        }
        out
    }

    /// Writes every span as one tab-separated line
    /// (`index parent name start_ns end_ns`), every counter as
    /// `counter name value` and every tally as `tally name calls ns`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, v) in &self.counters {
            writeln!(out, "counter\t{name}\t{v:?}")?;
        }
        for (name, (calls, ns)) in &self.tallies {
            writeln!(out, "tally\t{name}\t{calls}\t{ns}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping and nested children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 30), (35, 60)]), 50);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 99)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn spans_nest_and_totals_split_self_time() {
        let _ = take();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            span("inner", || ());
            count("work", 2.0);
        });
        count("work", 1.5);
        tally("tiny", || ());
        tally("tiny", || ());
        let trace = take();
        assert_eq!(trace.tally("tiny").0, 2);
        assert_eq!(trace.tally("never"), (0, 0));
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(0));
        assert_eq!(trace.counter("work"), 3.5);
        let totals = trace.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert_eq!(inner.self_ns, inner.busy_ns);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        assert!(inner.busy_ns >= 3_000_000);
        assert!(take().spans.is_empty(), "take drains the recorder");
    }

    #[test]
    fn merge_reindexes_parents() {
        let _ = take();
        span("a", || span("b", || ()));
        let first = take();
        span("c", || span("d", || ()));
        let mut merged = first;
        merged.merge(take());
        assert_eq!(merged.spans[3].name, "d");
        assert_eq!(merged.spans[3].parent, Some(2));
    }
}
