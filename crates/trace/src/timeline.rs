//! Chrome trace-event ("Perfetto") timeline export.
//!
//! [`render_chrome_trace`] turns a timestamped event window (the
//! [`FlightEntry`] stream a [`crate::FlightRecorder`] collects) into the
//! Chrome trace-event JSON format that <https://ui.perfetto.dev> and
//! `chrome://tracing` load directly:
//!
//! * every `CompileStart`/`CompileEnd` pair becomes a complete (`"X"`)
//!   span, with the [`crate::PhaseMicros`] payload unfolded into
//!   back-to-back child spans (build → canonicalize → escape-analysis →
//!   schedule → lower) so the compile pipeline is visible per method;
//!   overlapping compilations (background mode) are laid out on separate
//!   lanes (`tid`s);
//! * deopts, guard failures, evictions, recompiles and metrics snapshots
//!   become instant (`"i"`) events on the VM lane, carrying their
//!   `(site, bci)` coordinates as args.
//!
//! Timestamps are the entry timestamps (microseconds, the unit the format
//! specifies). The renderer is deliberately tolerant: a `CompileEnd`
//! whose start fell out of the ring synthesizes its start from the phase
//! total, so a bounded flight window still renders.
//!
//! The document is streamed through [`crate::json::ObjectWriter`], whose
//! closures close every object and array they open, and
//! [`crate::json::parse`] reads it back.

use crate::flight::FlightEntry;
use crate::json::{ArrayWriter, ObjectWriter};
use crate::TraceEvent;
use std::collections::HashMap;

/// Lane (`tid`) carrying the VM's instant events.
const VM_LANE: u64 = 0;

/// One value of an event's `args` object.
enum Arg<'a> {
    Str(&'a str),
    Num(u64),
}

/// Trace-event phase: a complete duration event (`ph:"X"` with `dur`) or
/// a thread-scoped instant (`ph:"i"`).
enum Phase {
    Span { dur: u64 },
    Instant,
}

/// Appends one span or instant to the `traceEvents` array.
fn trace_event(
    events: &mut ArrayWriter,
    phase: Phase,
    name: &str,
    cat: &str,
    tid: u64,
    ts: u64,
    args: &[(&str, Arg)],
) {
    events.object(|e| {
        e.str("name", name);
        e.str("cat", cat);
        match phase {
            Phase::Span { .. } => e.str("ph", "X"),
            Phase::Instant => e.str("ph", "i"),
        }
        e.num("pid", 1);
        e.num("tid", tid);
        e.num("ts", ts);
        match phase {
            Phase::Span { dur } => e.num("dur", dur),
            Phase::Instant => e.str("s", "t"),
        }
        if !args.is_empty() {
            e.object("args", |a| {
                for (k, v) in args {
                    match v {
                        Arg::Str(s) => a.str(k, s),
                        Arg::Num(n) => a.num(k, *n),
                    }
                }
            });
        }
    });
}

/// Appends the metadata event that names lane `tid`.
fn thread_name(events: &mut ArrayWriter, tid: u64, name: &str) {
    events.object(|e| {
        e.str("name", "thread_name");
        e.str("ph", "M");
        e.num("pid", 1);
        e.num("tid", tid);
        e.object("args", |a| a.str("name", name));
    });
}

/// Renders a timestamped event window as one Chrome trace-event JSON
/// document (`{"traceEvents":[…]}`).
pub fn render_chrome_trace(entries: &[FlightEntry]) -> String {
    let mut doc = ObjectWriter::new();
    doc.array("traceEvents", |events| write_events(events, entries));
    doc.str("displayTimeUnit", "ms");
    doc.finish()
}

fn write_events(events: &mut ArrayWriter, entries: &[FlightEntry]) {
    // Open compiles: method → start timestamp. Background-mode streams are
    // sequence-merged per compilation, so at most one open compile per
    // method exists at a time.
    let mut open: HashMap<&str, u64> = HashMap::new();
    // Compile lanes: end timestamp each lane is busy until. Overlapping
    // compile spans (background workers) get distinct lanes.
    let mut lanes: Vec<u64> = Vec::new();
    let mut max_lane = 0u64;
    for entry in entries {
        let ts = entry.t_us;
        match &entry.event {
            TraceEvent::CompileStart { method, .. } => {
                open.insert(method.as_str(), ts);
            }
            TraceEvent::CompileEnd {
                method,
                code_size,
                phases,
            } => {
                // The phase sub-spans end at `ts`; a sync compile's start
                // stamp can come after the first of them begins.
                let phases_start = ts.saturating_sub(phases.total());
                let start = open
                    .remove(method.as_str())
                    .map_or(phases_start, |stamp| stamp.min(phases_start));
                let dur = ts.saturating_sub(start);
                let lane_idx = match lanes.iter().position(|&busy_until| busy_until <= start) {
                    Some(i) => i,
                    None => {
                        lanes.push(0);
                        lanes.len() - 1
                    }
                };
                lanes[lane_idx] = ts;
                let tid = lane_idx as u64 + 1;
                max_lane = max_lane.max(tid);
                trace_event(
                    events,
                    Phase::Span { dur },
                    method,
                    "compile",
                    tid,
                    start,
                    &[("code_size", Arg::Num(*code_size))],
                );
                // Phase sub-spans laid back-to-back so they end at install
                // time (queue wait, if any, shows as the leading gap).
                let named = [
                    ("build", phases.build),
                    ("canonicalize", phases.canonicalize),
                    ("escape-analysis", phases.escape_analysis),
                    ("schedule", phases.schedule),
                    ("lower", phases.lower),
                ];
                let mut cursor = phases_start;
                for (name, dur) in named {
                    if dur > 0 {
                        trace_event(
                            events,
                            Phase::Span { dur },
                            name,
                            "compile-phase",
                            tid,
                            cursor,
                            &[],
                        );
                    }
                    cursor += dur;
                }
            }
            TraceEvent::Deopt {
                method,
                site,
                bci,
                reason,
                rematerialized,
            } => {
                trace_event(
                    events,
                    Phase::Instant,
                    &format!("deopt:{reason}"),
                    "deopt",
                    VM_LANE,
                    ts,
                    &[
                        ("method", Arg::Str(method)),
                        ("site", Arg::Str(site)),
                        ("bci", Arg::Num(u64::from(*bci))),
                        ("rematerialized", Arg::Num(rematerialized.len() as u64)),
                    ],
                );
            }
            TraceEvent::DeoptTaken {
                method,
                site,
                bci,
                reason,
            } => {
                trace_event(
                    events,
                    Phase::Instant,
                    &format!("deopt-taken:{reason}"),
                    "deopt",
                    VM_LANE,
                    ts,
                    &[
                        ("method", Arg::Str(method)),
                        ("site", Arg::Str(site)),
                        ("bci", Arg::Num(u64::from(*bci))),
                    ],
                );
            }
            TraceEvent::Evict { method, deopts } => {
                trace_event(
                    events,
                    Phase::Instant,
                    "evict",
                    "vm",
                    VM_LANE,
                    ts,
                    &[("method", Arg::Str(method)), ("deopts", Arg::Num(*deopts))],
                );
            }
            TraceEvent::Recompile { method } => {
                trace_event(
                    events,
                    Phase::Instant,
                    "recompile",
                    "vm",
                    VM_LANE,
                    ts,
                    &[("method", Arg::Str(method))],
                );
            }
            TraceEvent::MetricsSnapshot { seq, counters } => {
                trace_event(
                    events,
                    Phase::Instant,
                    "metrics-snapshot",
                    "vm",
                    VM_LANE,
                    ts,
                    &[
                        ("seq", Arg::Num(*seq)),
                        ("changed", Arg::Num(counters.len() as u64)),
                    ],
                );
            }
            // Per-node PEA decisions live inside the compile spans; the
            // per-site tables already break them down better than a
            // timeline can.
            _ => {}
        }
    }
    thread_name(events, VM_LANE, "vm");
    for lane in 1..=max_lane {
        thread_name(events, lane, &format!("compile-lane-{lane}"));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::PhaseMicros;

    fn entry(seq: u64, t_us: u64, event: TraceEvent) -> FlightEntry {
        FlightEntry { seq, t_us, event }
    }

    /// A compile with every phase timed, a deopt pair and an eviction.
    pub(crate) fn sample() -> Vec<FlightEntry> {
        vec![
            entry(
                0,
                10,
                TraceEvent::CompileStart {
                    method: "Cache.getValue".into(),
                    level: "pea".into(),
                },
            ),
            entry(
                1,
                240,
                TraceEvent::CompileEnd {
                    method: "Cache.getValue".into(),
                    code_size: 41,
                    phases: PhaseMicros {
                        build: 100,
                        canonicalize: 30,
                        escape_analysis: 60,
                        schedule: 10,
                        lower: 5,
                    },
                },
            ),
            entry(
                2,
                400,
                TraceEvent::DeoptTaken {
                    method: "Cache.getValue".into(),
                    site: "Cache.getValue".into(),
                    bci: 7,
                    reason: "type-check".into(),
                },
            ),
            entry(
                3,
                401,
                TraceEvent::Deopt {
                    method: "Cache.getValue".into(),
                    site: "Cache.getValue".into(),
                    bci: 7,
                    reason: "type-check".into(),
                    rematerialized: vec!["Key".into()],
                },
            ),
            entry(
                4,
                500,
                TraceEvent::Evict {
                    method: "Cache.getValue".into(),
                    deopts: 8,
                },
            ),
        ]
    }

    /// The exact TIMELINE.json bytes for [`sample`].
    #[test]
    fn chrome_trace_bytes_are_pinned() {
        const PINNED: &str = concat!(
            r#"{"traceEvents":[{"name":"Cache.getValue","cat":"compile","ph":"X","pid":1,"tid":1,"ts":10,"dur":230,"args":{"code_size":41}},"#,
            r#"{"name":"build","cat":"compile-phase","ph":"X","pid":1,"tid":1,"ts":35,"dur":100},"#,
            r#"{"name":"canonicalize","cat":"compile-phase","ph":"X","pid":1,"tid":1,"ts":135,"dur":30},"#,
            r#"{"name":"escape-analysis","cat":"compile-phase","ph":"X","pid":1,"tid":1,"ts":165,"dur":60},"#,
            r#"{"name":"schedule","cat":"compile-phase","ph":"X","pid":1,"tid":1,"ts":225,"dur":10},"#,
            r#"{"name":"lower","cat":"compile-phase","ph":"X","pid":1,"tid":1,"ts":235,"dur":5},"#,
            r#"{"name":"deopt-taken:type-check","cat":"deopt","ph":"i","pid":1,"tid":0,"ts":400,"s":"t","args":{"method":"Cache.getValue","site":"Cache.getValue","bci":7}},"#,
            r#"{"name":"deopt:type-check","cat":"deopt","ph":"i","pid":1,"tid":0,"ts":401,"s":"t","args":{"method":"Cache.getValue","site":"Cache.getValue","bci":7,"rematerialized":1}},"#,
            r#"{"name":"evict","cat":"vm","ph":"i","pid":1,"tid":0,"ts":500,"s":"t","args":{"method":"Cache.getValue","deopts":8}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"vm"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"compile-lane-1"}}],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(render_chrome_trace(&sample()), PINNED);
    }

    #[test]
    fn renders_valid_chrome_trace_json() {
        let doc = render_chrome_trace(&sample());
        crate::json::parse(&doc).expect("timeline must be valid JSON");
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"Cache.getValue\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":230"), "span covers start→end");
        assert!(doc.contains("\"name\":\"escape-analysis\""));
        assert!(doc.contains("\"name\":\"deopt:type-check\""));
        assert!(doc.contains("\"bci\":7"));
        assert!(doc.contains("\"name\":\"evict\""));
        assert!(doc.contains("\"thread_name\""));
    }

    #[test]
    fn compile_end_without_start_synthesizes_its_span() {
        let doc = render_chrome_trace(&sample()[1..2]);
        crate::json::parse(&doc).unwrap();
        // Span start backfilled from the phase total: 240 - 205 = 35.
        assert!(doc.contains("\"ts\":35"));
        assert!(doc.contains("\"dur\":205"));
    }

    #[test]
    fn compile_span_starts_no_later_than_its_phases() {
        // Stamped 1 µs before the end, the start comes after the phases
        // (205 µs in all) began.
        let mut entries = sample()[..2].to_vec();
        entries[0].t_us = entries[1].t_us - 1;
        let doc = render_chrome_trace(&entries);
        let root = crate::json::parse(&doc).unwrap();
        let events = root.as_object().unwrap().get_array("traceEvents").unwrap();
        let span = |name: &str| {
            let event = events
                .iter()
                .map(|e| e.as_object().unwrap())
                .find(|e| e.get_str("name") == Ok(name))
                .unwrap();
            let ts: u64 = event.get_num("ts").unwrap();
            (ts, ts + event.get_num::<u64>("dur").unwrap())
        };
        let compile = span("Cache.getValue");
        assert_eq!(compile, (35, 240));
        for phase in [
            "build",
            "canonicalize",
            "escape-analysis",
            "schedule",
            "lower",
        ] {
            let (start, end) = span(phase);
            assert!(compile.0 <= start && end <= compile.1, "{phase}");
        }
    }

    #[test]
    fn overlapping_compiles_get_distinct_lanes() {
        let mk = |m: &str| TraceEvent::CompileStart {
            method: m.into(),
            level: "pea".into(),
        };
        let end = |m: &str| TraceEvent::CompileEnd {
            method: m.into(),
            code_size: 1,
            phases: PhaseMicros::default(),
        };
        let entries = vec![
            entry(0, 0, mk("a")),
            entry(1, 5, mk("b")),
            entry(2, 100, end("a")),
            entry(3, 100, end("b")),
        ];
        let doc = render_chrome_trace(&entries);
        crate::json::parse(&doc).unwrap();
        assert!(doc.contains("\"tid\":1"));
        assert!(doc.contains("\"tid\":2"));
    }
}
