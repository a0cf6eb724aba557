//! In-memory spans for the traced run, recorded from this package's own
//! files around the calls into each layer (spans inside the crates are a
//! later change) and written out once, when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the request
/// (query index, epoch number or build number) its tree belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A span recorder. Each thread records into its own and the run
/// [`absorb`](Tracer::absorb)s them at the end; all share one time origin.
#[derive(Clone, Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same time origin.
    #[must_use]
    pub fn fork(&self) -> Self {
        Tracer::new(self.origin)
    }

    /// Records a finished span and returns its id (for its children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Records a parent span over `marks[0]..marks[last]` and one child
    /// per consecutive pair of marks.
    pub fn record_tree(
        &mut self,
        parent: &'static str,
        children: &[&'static str],
        marks: &[Instant],
        request: u64,
    ) {
        assert_eq!(children.len() + 1, marks.len(), "one mark per boundary");
        let root = self.record(parent, marks[0], marks[marks.len() - 1], None, request);
        for (name, pair) in children.iter().zip(marks.windows(2)) {
            self.record(name, pair[0], pair[1], Some(root), request);
        }
    }

    /// Appends another recorder's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover.
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The spans as one JSON array, in recording order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }

    /// Writes [`to_json`](Tracer::to_json) to `path`, creating its
    /// directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}
