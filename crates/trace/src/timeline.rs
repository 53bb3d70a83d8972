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

use crate::flight::FlightEntry;
use crate::json::escape_into;
use crate::TraceEvent;
use std::collections::HashMap;

/// Lane (`tid`) carrying the VM's instant events.
const VM_LANE: u64 = 0;

/// One value of an event's `args` object.
enum Arg<'a> {
    Str(&'a str),
    Num(u64),
}

struct TraceWriter {
    events: Vec<String>,
}

/// Trace-event phase: a complete duration event (`ph:"X"` with `dur`) or
/// a thread-scoped instant (`ph:"i"`).
enum Phase {
    Span { dur: u64 },
    Instant,
}

impl TraceWriter {
    fn span(&mut self, name: &str, cat: &str, tid: u64, ts: u64, dur: u64, args: &[(&str, Arg)]) {
        self.record(Phase::Span { dur }, name, cat, tid, ts, args);
    }

    fn instant(&mut self, name: &str, cat: &str, tid: u64, ts: u64, args: &[(&str, Arg)]) {
        self.record(Phase::Instant, name, cat, tid, ts, args);
    }

    fn record(
        &mut self,
        phase: Phase,
        name: &str,
        cat: &str,
        tid: u64,
        ts: u64,
        args: &[(&str, Arg)],
    ) {
        let ph = match phase {
            Phase::Span { .. } => "X",
            Phase::Instant => "i",
        };
        let mut e = String::from("{\"name\":");
        escape_into(&mut e, name);
        e.push_str(",\"cat\":");
        escape_into(&mut e, cat);
        e.push_str(&format!(
            ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}"
        ));
        match phase {
            Phase::Span { dur } => e.push_str(&format!(",\"dur\":{dur}")),
            Phase::Instant => e.push_str(",\"s\":\"t\""),
        }
        if !args.is_empty() {
            e.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    e.push(',');
                }
                escape_into(&mut e, k);
                e.push(':');
                match v {
                    Arg::Str(s) => escape_into(&mut e, s),
                    Arg::Num(n) => e.push_str(&n.to_string()),
                }
            }
            e.push('}');
        }
        e.push('}');
        self.events.push(e);
    }

    fn thread_name(&mut self, tid: u64, name: &str) {
        let mut e = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
        );
        escape_into(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }
}

/// Renders a timestamped event window as one Chrome trace-event JSON
/// document (`{"traceEvents":[…]}`).
pub fn render_chrome_trace(entries: &[FlightEntry]) -> String {
    let mut w = TraceWriter { events: Vec::new() };
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
                let start = open
                    .remove(method.as_str())
                    .unwrap_or_else(|| ts.saturating_sub(phases.total()));
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
                w.span(
                    method,
                    "compile",
                    tid,
                    start,
                    dur,
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
                let mut cursor = ts.saturating_sub(phases.total());
                for (name, dur) in named {
                    if dur > 0 {
                        w.span(name, "compile-phase", tid, cursor, dur, &[]);
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
                w.instant(
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
                w.instant(
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
                w.instant(
                    "evict",
                    "vm",
                    VM_LANE,
                    ts,
                    &[("method", Arg::Str(method)), ("deopts", Arg::Num(*deopts))],
                );
            }
            TraceEvent::Recompile { method } => {
                w.instant(
                    "recompile",
                    "vm",
                    VM_LANE,
                    ts,
                    &[("method", Arg::Str(method))],
                );
            }
            TraceEvent::MetricsSnapshot { seq, counters } => {
                w.instant(
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
    w.thread_name(VM_LANE, "vm");
    for lane in 1..=max_lane {
        w.thread_name(lane, &format!("compile-lane-{lane}"));
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&w.events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Minimal full-JSON well-formedness check (objects, arrays, strings,
/// numbers, literals — nesting allowed). Used to assert `TIMELINE.json`
/// and `FLIGHT.json` are loadable by real JSON parsers; the flat codec in
/// [`crate::json`] deliberately cannot represent them.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, "true"),
        Some(b'f') => literal(bytes, pos, "false"),
        Some(b'n') => literal(bytes, pos, "null"),
        Some(b'-' | b'0'..=b'9') => {
            *pos += 1;
            while matches!(
                bytes.get(*pos),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                *pos += 1;
            }
            Ok(())
        }
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => *pos += 2,
            Some(_) => *pos += 1,
            None => return Err("unterminated string".into()),
        }
    }
}

fn literal(bytes: &[u8], pos: &mut usize, text: &str) -> Result<(), String> {
    let end = *pos + text.len();
    if bytes.len() >= end && &bytes[*pos..end] == text.as_bytes() {
        *pos = end;
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhaseMicros;

    fn entry(seq: u64, t_us: u64, event: TraceEvent) -> FlightEntry {
        FlightEntry { seq, t_us, event }
    }

    fn sample() -> Vec<FlightEntry> {
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

    #[test]
    fn renders_valid_chrome_trace_json() {
        let doc = render_chrome_trace(&sample());
        validate_json(&doc).expect("timeline must be valid JSON");
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
        validate_json(&doc).unwrap();
        // Span start backfilled from the phase total: 240 - 205 = 35.
        assert!(doc.contains("\"ts\":35"));
        assert!(doc.contains("\"dur\":205"));
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
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"tid\":1"));
        assert!(doc.contains("\"tid\":2"));
    }

    #[test]
    fn validator_accepts_nested_and_rejects_malformed() {
        assert!(validate_json("{\"a\":[1,2,{\"b\":null}],\"c\":-1.5e3}").is_ok());
        assert!(validate_json("").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("{} extra").is_err());
    }
}
