//! In-memory spans for the traced run: one record per call into a layer,
//! kept in memory and written out as JSON lines when the run ends.

use rc11::check::wire::{obj, Json};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this call served; spans of one request share it.
    pub req: u64,
    /// Items the span covers (a batch of successors, say); per-item cost
    /// is the duration over this count.
    pub items: u64,
}

/// A span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            items: 1,
        });
        self.open.push(id);
        Open(id)
    }

    /// Close `span`, recording how many items it covered.
    pub fn end_items(&mut self, span: Open, items: u64) {
        let end = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end;
        s.items = items;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span.0), "spans close innermost first");
    }

    /// Close `span` (one item).
    pub fn end(&mut self, span: Open) {
        self.end_items(span, 1);
    }

    /// Time `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, req);
        let out = f();
        self.end(s);
        out
    }

    /// Append another thread's spans (their parents are re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean nanoseconds per item over the spans called `name`, or `None`
    /// if there are none.
    pub fn per_item_ns(&self, name: &str) -> Option<f64> {
        let (mut ns, mut items) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            items += s.items;
        }
        (items > 0).then(|| ns as f64 / items as f64)
    }

    /// Mean per-item cost of `name` in microseconds, 0 when never called.
    pub fn per_item_us(&self, name: &str) -> f64 {
        self.per_item_ns(name).map_or(0.0, |ns| ns / 1e3)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = obj(vec![
                ("id", Json::Int(i as i64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("req", Json::Int(s.req as i64)),
                ("items", Json::Int(s.items as i64)),
            ]);
            writeln!(out, "{}", line.to_string_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_absorb_rebases_parents() {
        let mut a = Tracer::new(Instant::now());
        let outer = a.begin("outer", 1);
        let inner = a.begin("inner", 1);
        a.end(inner);
        a.end(outer);
        assert_eq!(a.spans()[1].parent, Some(0));

        let mut b = Tracer::new(Instant::now());
        let s = b.begin("x", 2);
        let t = b.begin("y", 2);
        b.end(t);
        b.end_items(s, 4);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert!(a.per_item_ns("x").is_some());
        assert_eq!(a.per_item_us("missing"), 0.0);
    }
}
