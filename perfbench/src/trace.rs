//! Spans the traced run records around each public call it makes.
//!
//! A span has a name, a start and an end, the span that was open when it
//! began, and a request id shared by the spans of one request (one
//! `run_design` call, one micro-benchmark batch, or the set-up). Spans
//! stay in memory and are written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    req: u64,
}

/// Calls, total time and self time of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the durations of their children.
    pub self_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    next_req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_req: 1,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req - 1
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of request `req` as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>, req: u64) -> SpanId {
        if !self.on {
            return SpanId::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of request `req`.
    pub fn span<T>(&mut self, name: impl Into<String>, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Calls, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name.clone()).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines, in the order they were opened.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        let req = t.request();
        let outer = t.enter("outer", req);
        t.span("inner", req, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", req, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let times = t.self_times();
        let (o, i) = (times["outer"], times["inner"]);
        assert_eq!((o.calls, i.calls), (1, 2));
        assert_eq!(i.self_ns, i.total_ns, "leaves have no children");
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(t.to_jsonl().lines().count(), 3);
        assert!(t.to_jsonl().contains(r#""parent":0"#));
    }
}
