//! In-memory span recorder for the `--trace 1` run.
//!
//! The benchmark times calls into each layer's **public** functions from
//! its own files: a span is `{name, start_ns, end_ns, parent, req}`, kept
//! in memory and written as JSON lines when the run ends. Spans caused by
//! one request share its `req` id. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover, so
//! the self times of a request's tree sum to the request span exactly.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.parse`.
    pub name: &'static str,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or repetition) this span belongs to.
    pub req: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store. Single-threaded by design: the traced run drives one
/// client, and intervals measured on other threads (the storage probe's)
/// are merged afterwards with [`Tracer::adopt`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` at the current time.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let req = self.spans[parent].req;
        let id = self.begin(name, Some(parent), req);
        let out = f();
        self.end(id);
        out
    }

    /// Records intervals measured elsewhere (already on this tracer's
    /// clock) as children of the span named `parent_name` whose interval
    /// contains them — with one client there is at most one. Intervals no
    /// such span contains (set-up traffic) are dropped.
    pub fn adopt(&mut self, events: &[(&'static str, u64, u64)], parent_name: &str) {
        // Recording order is start order, so the candidates are sorted.
        let parents: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == parent_name)
            .collect();
        for &(name, start_ns, end_ns) in events {
            let after = parents.partition_point(|&p| self.spans[p].start_ns <= start_ns);
            let Some(&parent) = after.checked_sub(1).and_then(|k| parents.get(k)) else {
                continue;
            };
            if end_ns <= self.spans[parent].end_ns {
                let req = self.spans[parent].req;
                self.spans.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent: Some(parent),
                    req,
                });
            }
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Per-span self time, parallel to [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
            match s.parent {
                Some(p) => writeln!(out, "{p}}}")?,
                None => writeln!(out, "null}}")?,
            }
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = [
            span("request", 0, 100, None),
            span("proto.parse", 5, 15, Some(0)),
            span("service.request", 20, 90, Some(0)),
            span("backend.sync", 40, 70, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, [20, 10, 40, 30]);
        assert_eq!(st.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("parent", 10, 50, None),
            span("a", 15, 30, Some(0)),
            span("b", 25, 40, Some(0)), // overlaps a
            span("c", 45, 60, Some(0)), // overhangs the parent
            span("d", 0, 5, Some(0)),   // entirely outside
        ];
        // Covered: [15,40) ∪ [45,50) = 30 of the parent's 40.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn adopt_finds_the_containing_span() {
        let mut t = Tracer::new(Instant::now());
        t.spans.push(span("service.request", 100, 200, None));
        t.spans[0].req = 7;
        // The second interval lies outside every request: dropped.
        t.adopt(
            &[("backend.sync", 120, 150), ("backend.sync", 300, 310)],
            "service.request",
        );
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        assert_eq!(t.durations("backend.sync"), [30]);
        assert_eq!(t.self_times(), [70, 30]);
    }
}
