//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory until the run ends and are then written as
//! Chrome-trace JSON. Nothing is recorded inside the crates under test;
//! a call that crosses several layers (`call_entry`) is one span of the
//! layer it enters.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    /// What ran, e.g. `call_entry`.
    pub name: &'static str,
    /// The crate the call entered (`vm`, `compiler`, …) or `harness`.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// The recorder. When off, `enter`/`exit` do nothing, so the same
/// measurement code runs traced and untraced.
pub struct Spans {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    /// Finished and open spans, in start order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = now;
        }
    }

    /// Runs `work` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, layer);
        let out = work();
        self.exit();
        out
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// duration of its direct children, summed by layer, in first-seen
    /// order.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            match layers.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += own_ns,
                None => layers.push((span.layer, own_ns)),
            }
        }
        layers
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps.
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::object([
                    ("name", Json::from(span.name)),
                    ("cat", Json::from(span.layer)),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::object([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::from(workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut spans = Spans::off();
        assert_eq!(spans.within("work", "vm", || 3), 3);
        assert!(spans.spans.is_empty());
    }

    #[test]
    fn children_link_to_parents_and_self_time_excludes_them() {
        let mut spans = Spans::on();
        spans.enter("round", "harness");
        spans.within("new", "vm", || ());
        spans.within("call_entry", "vm", || ());
        spans.exit();
        assert_eq!(spans.spans.len(), 3);
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        // Fix the clock so the arithmetic is exact.
        spans.spans[0].start_ns = 0;
        spans.spans[0].end_ns = 100;
        spans.spans[1].start_ns = 10;
        spans.spans[1].end_ns = 30;
        spans.spans[2].start_ns = 40;
        spans.spans[2].end_ns = 90;
        assert_eq!(spans.self_ns_by_layer(), vec![("harness", 30), ("vm", 70)]);
        let trace = spans.to_chrome_trace("w").to_string();
        assert!(trace.starts_with("{\"traceEvents\":[{\"name\":\"round\""));
        assert!(trace.contains("\"parent\":0"));
    }
}
