//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span open when it began (its parent) and the request id
//! it belongs to. Spans stay in memory until [`Tracer::write_jsonl`]
//! writes them out at the end of the run.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns() as f64 / 1e6
    }

    /// Runs `f` inside a span and returns its result and duration in ms.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, req);
        let out = std::hint::black_box(f());
        let ms = self.end(id);
        (out, ms)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.duration_ns() - covered_ns(&mut kids, s.start_ns, s.end_ns))
            .collect()
    }

    /// Sum of self times over the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        ns as f64 / 1e6
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        let mut iv = [(5, 8), (0, 3), (2, 4)];
        assert_eq!(covered_ns(&mut iv, 0, 10), 7);
        let mut clipped = [(0, 20)];
        assert_eq!(covered_ns(&mut clipped, 5, 10), 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let parent = t.begin("parent", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(parent);
        let own = t.self_times_ns();
        let spans = t.spans();
        assert_eq!(spans[child].parent, Some(parent));
        assert_eq!(own[child], spans[child].duration_ns());
        assert_eq!(
            own[parent],
            spans[parent].duration_ns() - spans[child].duration_ns()
        );
    }
}
