//! Spans recorded from the benchmark's own files around the calls it makes
//! into each layer. Kept in memory, written out once when the run ends.
//!
//! A disabled [`Tracer`] records nothing, so the untraced (end-to-end) run
//! and the traced run execute the same generator code.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: which layer, what, when, caused by which span, and
/// the operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id: spans of one request / cycle share it.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared by the
    /// threads of one run so their spans line up).
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn disabled() -> Self {
        Self::new(false, Instant::now())
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the span `open` refers to (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end_us = self.now_us();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(layer, name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its direct children cover.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let own = ((s.end_us - s.start_us) - child).max(0.0) / 1e6;
            match totals.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => totals.push((s.layer, own)),
            }
        }
        totals
    }
}

/// Spans of several tracers as one JSON document. `thread` is the index of
/// the tracer a span came from; `parent` indexes within that thread.
pub fn to_json(workload: &str, seed: u64, tracers: &[&Tracer]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
    let mut first = true;
    for (thread, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \"op\": {}, \
                 \"layer\": \"{}\", \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.op, s.layer, s.name, s.start_us, s.end_us
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("sz", "crc", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(3);
        let outer = t.begin("writer", "write_to");
        let inner = t.begin("sz", "compress");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 3);
        let by_layer = t.self_time_by_layer();
        let sz = by_layer.iter().find(|(l, _)| *l == "sz").unwrap().1;
        let writer = by_layer.iter().find(|(l, _)| *l == "writer").unwrap().1;
        assert!(sz >= 0.005, "child keeps its own time");
        assert!(writer < sz, "parent's self time excludes the child");
        let doc = crate::json::parse(&to_json("w", 1, &[&t])).expect("trace file is JSON");
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 2);
    }
}
