//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed only by benchmark code, around calls into a
//! layer's public functions. They are kept in memory and written out once,
//! when the run ends. The harness is single-threaded, so spans nest
//! strictly and a span's children never overlap: the part of a span its
//! children cover is the sum of their durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`core.ops.spmspv`, `graph.solve`, ...).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The solve this span belongs to (0 = outside any solve).
    pub solve_id: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Where set-up code reports the layer calls it makes. The untraced run
/// passes [`Untraced`], which compiles to the bare call, so the program
/// that measures the end-to-end metrics holds no recorder.
pub trait Tracer {
    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// The tracer of the untraced run: calls `f` and records nothing.
#[derive(Debug, Default)]
pub struct Untraced;

impl Tracer for Untraced {
    fn leaf<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Tracer for Recorder {
    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f()).0
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    solve_id: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), solve_id: 0 }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on carry `id` (0 ends the attribution).
    pub fn set_solve(&mut self, id: u32) {
        self.solve_id = id;
    }

    /// Run `f` inside a span called `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            solve_id: self.solve_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// A span around a call that opens no spans itself; returns the
    /// call's result and its duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.scope(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every closed span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"solve_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.solve_id
            )?;
        }
        w.flush()
    }
}

/// Self time per span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own
}

/// Self time summed by span name, and the total duration of root spans.
/// The two agree by construction; the traced run prints both so a reader
/// can see that no time fell between layers.
pub fn self_time_by_name(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0.0) += own;
    }
    let roots = spans.iter().filter(|s| s.parent.is_none()).map(Span::seconds).sum();
    (by_name, roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, solve_id: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // root 0..100 with children 10..30 and 40..90; the second child
        // has a grandchild 50..60.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        let own = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(own[0]), 30);
        assert_eq!(ns(own[1]), 20);
        assert_eq!(ns(own[2]), 40);
        assert_eq!(ns(own[3]), 10);
    }

    #[test]
    fn self_times_sum_to_the_root_total() {
        let spans = vec![
            span("solve", 0, 1000, None),
            span("kernel", 100, 400, Some(0)),
            span("kernel", 500, 900, Some(0)),
            span("solve", 2000, 2600, None),
            span("kernel", 2100, 2500, Some(3)),
        ];
        let (by_name, roots) = self_time_by_name(&spans);
        let total: f64 = by_name.values().sum();
        assert!((total - roots).abs() < 1e-12);
        assert!((by_name["kernel"] - 1100e-9).abs() < 1e-12);
        assert!((by_name["solve"] - 500e-9).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags_solves() {
        let mut rec = Recorder::default();
        rec.set_solve(7);
        let ((), outer) = rec.scope("outer", |r| {
            r.timed("inner", || std::hint::black_box(1 + 1));
        });
        rec.set_solve(0);
        Tracer::leaf(&mut rec, "after", || ());
        assert_eq!(Untraced.leaf("ignored", || 5), 5);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].solve_id, s[1].solve_id, s[2].solve_id), (7, 7, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(outer >= s[1].seconds());
        assert_eq!(rec.durations("inner").len(), 1);
    }
}
