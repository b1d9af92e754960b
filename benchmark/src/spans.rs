//! The benchmark's own spans, recorded around its calls into each
//! layer during the traced pass. Kept in memory; written out once the
//! pass is over.

use std::io::Write;
use std::time::Instant;

/// One finished span. Spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: close it with [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

pub struct SpanLog {
    epoch: Instant,
    next_id: u32,
    op: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: 1,
            op: 0,
            spans: Vec::with_capacity(spans),
        }
    }

    /// Starts the next op: spans begun from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, parent: u32, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: self.op,
            start_ns: open.start_ns,
            end_ns,
        });
        end_ns - open.start_ns
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<R>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(parent, name);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in the order spans ended.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// The log cut into the spans of one op each (and the root spans
/// recorded between two ops, which carry the earlier op's id).
pub fn by_op(spans: &[Span]) -> impl Iterator<Item = &[Span]> {
    spans.chunk_by(|a, b| a.op == b.op)
}

/// Self time of every span named `name`, in log order. Children are
/// sought among the spans of the same op, so the scan is linear.
pub fn self_times_ns(spans: &[Span], name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for of_op in by_op(spans) {
        for s in of_op.iter().filter(|s| s.name == name) {
            let children: Vec<&Span> = of_op.iter().filter(|c| c.parent == s.id).collect();
            out.push(self_time_ns(s, &children));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let parent = span(1, 0, 100, 200);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        let a = span(2, 1, 110, 130);
        let b = span(3, 1, 150, 160);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 70);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let parent = span(1, 0, 0, 100);
        // Two parallel lanes and one nested inside the first.
        let a = span(2, 1, 10, 60);
        let b = span(3, 1, 40, 80);
        let c = span(4, 1, 20, 30);
        assert_eq!(self_time_ns(&parent, &[&b, &c, &a]), 30);
        // A child that sticks out of its parent is clipped to it.
        let late = span(5, 1, 90, 140);
        assert_eq!(self_time_ns(&parent, &[&a, &late]), 40);
    }

    #[test]
    fn log_records_parents_ops_and_order() {
        let mut log = SpanLog::with_capacity(8);
        log.next_op();
        let op = log.begin(0, "op");
        let ((), inner) = log.span(op.id(), "invoke", std::thread::yield_now);
        let outer = log.end(op);
        assert!(outer >= inner);
        log.next_op();
        log.span(0, "op", || ());
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("invoke", 1, 1)
        );
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op), ("op", 0, 1));
        assert_eq!(spans[2].op, 2);
        let selfs = self_times_ns(spans, "op");
        assert_eq!(selfs.len(), 2);
        assert_eq!(selfs[0], outer - inner);
    }
}
