//! Host-clock spans recorded by the benchmark around its calls into the
//! library. Spans stay in memory and are written out once, at the end of
//! a traced run. A disabled recorder records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which public function (or benchmark step) the span brackets.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started (NaN while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The search, batch or query the span belongs to.
    pub op: Option<u64>,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: calls, total seconds and self seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub calls: usize,
    /// Sum of durations.
    pub total_s: f64,
    /// Sum of durations minus the time covered by direct children.
    pub self_s: f64,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of durations of spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Longest span called `name` (0 if none).
    pub fn max(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).fold(0.0, f64::max)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Totals per span name, in first-seen order. Children of one span
    /// run one after another on one thread, so the time they cover is
    /// the sum of their durations.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: Vec<SpanTotals> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let i = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(SpanTotals {
                        name: s.name,
                        calls: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.len() - 1
                }
            };
            out[i].calls += 1;
            out[i].total_s += s.duration();
            out[i].self_s += s.duration() - covered;
        }
        out
    }

    /// The spans and per-name totals as a JSON document.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n\"totals\": [\n");
        for (i, t) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                j,
                "{sep}{{\"name\": \"{}\", \"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
                t.name, t.calls, t.total_s, t.self_s
            );
        }
        j.push_str("\n],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let _ = write!(
                j,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {op}}}",
                s.name, s.start, s.end
            );
        }
        j.push_str("\n]\n}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut sp = Spans::new(true);
        let outer = sp.enter("outer", Some(1));
        sp.time("inner", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        sp.time("inner", Some(1), || ());
        sp.exit(outer);
        let t = sp.totals();
        assert_eq!(t[0].name, "outer");
        assert_eq!(t[1].calls, 2);
        assert!((t[0].self_s - (t[0].total_s - t[1].total_s)).abs() < 1e-12);
        assert!(t[1].total_s >= 0.005);
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert!(sp.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.enter("x", None);
        sp.exit(id);
        assert!(sp.spans().is_empty());
        assert_eq!(sp.total("x"), 0.0);
    }
}
