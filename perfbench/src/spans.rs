//! In-memory span recording for the traced run. The benchmark wraps a
//! span around each call it makes into a layer's public API; nothing is
//! instrumented inside the crates.

use std::collections::BTreeMap;
use std::time::Instant;

use agentsim_metrics::json;

/// No span: the parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (crate) the call went into, or `"serving"` for driver glue.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The simulated turn the call served (`u64::MAX` when none).
    pub turn: u64,
}

/// Collects spans; self time is a span's duration minus its children's.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, turn: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            turn,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, turn: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, turn);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer `(self seconds, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        assert!(self.open.is_empty(), "spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            entry.1 += 1;
        }
        out
    }

    /// The first `limit` spans as Chrome `trace_event` JSON (complete
    /// events, one track per layer), checked with [`json::validate`].
    pub fn chrome_json(&self, limit: usize) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .take(limit)
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"{}\", \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"turn\": {}, \"parent\": {}}}}}",
                    json::escape(s.name),
                    json::escape(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    if s.turn == u64::MAX { -1 } else { s.turn as i64 },
                    if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                )
            })
            .collect();
        let doc = format!(
            "{{\"traceEvents\": [{}], \"spans_total\": {}}}",
            events.join(",\n"),
            self.spans.len()
        );
        json::validate(&doc).expect("span export is valid JSON");
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let st = t.self_times();
        assert!(st["inner"].0 >= 0.005);
        assert!(st["outer"].0 < st["inner"].0);
        assert_eq!(t.spans()[1].parent, 0);
        json::validate(&t.chrome_json(10)).unwrap();
    }
}
