//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions. Nothing inside the program is
//! instrumented. Spans are kept in memory and written out when the run
//! ends; a span's self time is its duration minus the part of its
//! interval that its children cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.prep`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The enclosing span, if any (an index into the same tracer).
    pub parent: Option<usize>,
    /// The request (or panel, or call) this span served.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder for one thread. A tracer that is off
/// records nothing, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose timestamps count from `epoch`; tracers
    /// that will be merged must share it.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// A tracer for another thread, on when this one is, sharing its
    /// epoch so the two can be merged.
    pub fn sibling(&self) -> Self {
        Tracer {
            on: self.on,
            ..Tracer::new(self.epoch)
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open on this tracer.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.ns(Instant::now());
        out
    }

    /// Records an already-timed span under `parent` and returns its index
    /// (meaningless when the tracer is off).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Links an already-recorded span under `parent`.
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        if self.on {
            self.spans[child].parent = Some(parent);
        }
    }

    /// Appends another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time in nanoseconds, index-aligned with
    /// [`Tracer::spans`]: its duration minus the union of its children's
    /// intervals clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut run: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    run = match run {
                        Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                        Some((ra, rb)) => {
                            covered += rb - ra;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ra, rb)) = run {
                    covered += rb - ra;
                }
                s.duration() - covered
            })
            .collect()
    }

    /// The index the next span will get; pass it to [`Tracer::total`] to
    /// sum only what was recorded from here on.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans named `name` recorded since `mark`.
    pub fn total(&self, mark: usize, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans[mark..]
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration)
                .sum(),
        )
    }

    /// Summed self time of the spans named `name` recorded since `mark`.
    pub fn total_self(&self, mark: usize, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .zip(self.self_times())
                .skip(mark)
                .filter(|(s, _)| s.name == name)
                .map(|(_, t)| t)
                .sum(),
        )
    }

    /// Serialises the spans as a JSON document with a free-form header
    /// object (already-encoded JSON members).
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + header.len() + 32);
        let _ = write!(out, "{{{header},\"spans\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start, s.end, self_ns, parent, s.request
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Tracer {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(epoch);
        let root = t.record("root", 0, at(0), at(100), None);
        let a = t.record("a", 0, at(10), at(30), Some(root));
        // Overlaps `a` (as a parallel sibling would) and `c` spills past
        // the root's end: the union, clipped, covers [10,50) + [90,100).
        t.record("b", 0, at(20), at(50), Some(root));
        t.record("c", 0, at(90), at(120), Some(root));
        t.record("leaf", 0, at(12), at(18), Some(a));
        t.record("leaf", 1, at(22), at(25), Some(a));
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = synthetic();
        assert_eq!(t.self_times(), vec![50, 11, 30, 30, 6, 3]);
        assert_eq!(t.total_self(0, "root"), Duration::from_nanos(50));
        assert_eq!(t.total_self(0, "a"), Duration::from_nanos(11));
        assert_eq!(t.total(0, "root"), Duration::from_nanos(100));
        assert_eq!(t.total(0, "leaf"), Duration::from_nanos(9));
        assert_eq!(t.total(5, "leaf"), Duration::from_nanos(3));
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_when_children_nest() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.span("root", 0, |t| {
            t.span("child", 0, |t| {
                t.span("grandchild", 0, |_| std::hint::black_box(1))
            });
            t.span("child", 1, |_| ());
        });
        let sum: u64 = t.self_times().iter().sum();
        assert_eq!(sum, t.spans()[0].duration());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = synthetic();
        let b = synthetic();
        a.absorb(b);
        assert_eq!(a.spans().len(), 12);
        assert_eq!(a.spans()[7].parent, Some(6));
        assert_eq!(a.self_times()[6..], a.self_times()[..6]);
        assert!(a
            .to_json("\"k\":1")
            .starts_with("{\"k\":1,\"spans\":[{\"name\":\"root\""));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let out = t.span("root", 0, |t| t.span("child", 0, |_| 7));
        let idx = t.record("x", 0, Instant::now(), Instant::now(), None);
        t.set_parent(idx, 0);
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }
}
