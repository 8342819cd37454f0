//! In-memory spans for the traced run.
//!
//! Each span has a name, a start and an end (nanoseconds since the
//! recorder was created), the span that caused it, and the id of the
//! request it belongs to. Spans are recorded from the benchmark's own
//! files around calls into each layer's public functions; the program
//! itself carries no extra instrumentation. They stay in memory until
//! [`Recorder::write_tsv`] writes them out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.map`.
    pub name: &'static str,
    /// Request this span belongs to.
    pub request: u64,
    /// Start, in ns since the recorder's epoch.
    pub start: u64,
    /// End, in ns since the recorder's epoch.
    pub end: u64,
}

/// Collects spans; a disabled recorder records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded (the traced run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// span still open. A `request` of 0 inherits the enclosing span's
    /// request id, so a layer call inside a job or an upload carries
    /// that job's or upload's id without being told it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let request = match (request, parent) {
            (0, Some(p)) => self.spans[p].request,
            _ => request,
        };
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[id].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, parent, s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total self time per span name, in seconds: each span's duration
/// minus the part of its interval that its children cover (children
/// clipped to the parent, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(s.start, s.end, c));
        let own = s.end.saturating_sub(s.start).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            request: 1,
            start: s,
            end: e,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, "job", 0, 1_000),
            // Two overlapping children cover 100..400 = 300 ns.
            span(1, Some(0), "core.map", 100, 300),
            span(2, Some(0), "core.fold", 200, 400),
            // A child running past its parent is clipped.
            span(3, Some(0), "core.json", 900, 1_200),
            span(4, Some(1), "leaf", 150, 250),
        ];
        let st = self_times(&spans);
        let ns = |name: &str| (st[name] * 1e9).round() as u64;
        assert_eq!(ns("job"), 1_000 - 300 - 100);
        assert_eq!(ns("core.map"), 200 - 100);
        assert_eq!(ns("core.fold"), 200);
        assert_eq!(ns("core.json"), 300);
        assert_eq!(ns("leaf"), 100);
        // Self times of a tree sum to the root's duration, plus what
        // children spent outside their parent (200 ns) and what
        // overlapping siblings ran twice (100 ns).
        let sum: f64 = st.values().sum();
        assert_eq!((sum * 1e9).round() as u64, 1_000 + 200 + 100);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 7, |rec| {
            rec.span("inner", 0, |_| ());
            rec.span("inner", 8, |_| ());
        });
        rec.span("next", 9, |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!((s[1].request, s[2].request), (7, 8));
        assert!(s.iter().all(|s| s.end >= s.start));
        let selfs = self_times(s);
        let outer = (s[0].end - s[0].start) as f64 * 1e-9;
        assert!(selfs["outer"] <= outer);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
