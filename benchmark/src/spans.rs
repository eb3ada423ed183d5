//! The benchmark's own in-memory spans, recorded around every call it
//! makes into a layer of the program during the traced pass and written
//! out once at exit. Spans inside the program are a later change.

use crate::json::Value;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Single-threaded span recorder: layer replays run on one thread, so
/// the open spans form a stack and the top of it is the parent.
pub struct Spans {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Spans {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open. `f` gets the recorder back so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time of every span named `name`, in seconds: each span's
    /// duration minus the part its direct children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut ns = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        ns as f64 * 1e-9
    }

    /// Writes every span as `{"workload", "spans": [{id, name, parent,
    /// start_ns, end_ns}]}`; `parent` is an `id` or null.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj()
                    .set("id", id)
                    .set("name", s.name)
                    .set("parent", s.parent.map_or(Value::Null, Value::from))
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
            })
            .collect();
        let doc = Value::obj()
            .set("workload", self.workload)
            .set("spans", spans);
        std::fs::write(path, doc.encode() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut s = Spans::new("t");
        s.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            s.span("inner", |_| ());
        });
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        let outer_total = (s.spans[0].end_ns - s.spans[0].start_ns) as f64 * 1e-9;
        assert!(s.self_secs("inner") >= 0.02);
        assert!(s.self_secs("outer") <= outer_total - 0.02 + 1e-9);
        assert_eq!(s.self_secs("absent"), 0.0);
    }
}
