//! In-memory span recorder for the traced pass. Spans are recorded from
//! the benchmark's side of each layer call (name, start, end, parent)
//! and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::{self_time, Interval};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer::call` or a workload/cell/run label.
    pub name: String,
    /// Interval in ns since the tracer's epoch.
    pub at: Interval,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Modelled spans are layer calls re-timed at the driver's shapes
    /// next to the driver span, not measured inside it.
    pub modelled: bool,
}

/// Records nested spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            at: Interval { start, end: start },
            parent: self.open.last().copied(),
            modelled: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) -> u64 {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].at.end = end;
        end - self.spans[id].at.start
    }

    /// Attaches modelled children to the closed span `parent`, laid end
    /// to end from its start, one per `(name, duration)`. Returns the
    /// parent's self time net of them.
    pub fn model_children(&mut self, parent: usize, children: &[(&str, u64)]) -> u64 {
        let mut cursor = self.spans[parent].at.start;
        for &(name, ns) in children {
            self.spans.push(Span {
                name: name.to_owned(),
                at: Interval {
                    start: cursor,
                    end: cursor + ns,
                },
                parent: Some(parent),
                modelled: true,
            });
            cursor += ns;
        }
        self.self_ns(parent)
    }

    /// A span's duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: Vec<Interval> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.at)
            .collect();
        self_time(self.spans[id].at, &children)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"modelled\":{}}}",
                s.name, s.at.start, s.at.end, s.modelled
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_modelled_children_reduce_self_time() {
        let mut t = Tracer::new();
        let outer = t.begin("workload");
        let inner = t.begin("run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let run_ns = t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.self_ns(outer) < t.spans[outer].at.end - t.spans[outer].at.start);
        let self_ns = t.model_children(inner, &[("a", run_ns / 4), ("b", run_ns / 4)]);
        assert_eq!(self_ns, run_ns - 2 * (run_ns / 4));
        assert_eq!(t.len(), 4);
    }
}
