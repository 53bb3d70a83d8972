//! The flight recorder: a bounded ring buffer of the most recent trace
//! events, kept so that a crash (`VmError`, panic) can
//! be explained *after the fact* from the window that led up to it.
//!
//! [`FlightRecorder`] is an ordinary [`TraceSink`]: the VM fans its event
//! stream out to the recorder alongside whatever sink the user attached.
//! Each event is stamped with a monotonically increasing sequence number
//! and a microsecond timestamp relative to recorder creation, then written
//! into a fixed-capacity ring — old events are overwritten, never moved,
//! so steady-state recording does no allocation beyond what the event
//! clone itself needs and never grows memory with run length.
//!
//! [`FlightRecorder::dump_json`] renders the surviving window (oldest
//! first) as a single `FLIGHT.json` document; the same timestamped entries
//! feed the Chrome-trace timeline renderer in [`crate::timeline`].

use crate::{TraceEvent, TraceSink};
use std::time::Instant;

/// Default ring capacity: enough for the compiles/installs/deopts of a
/// sizable warmup while staying trivially small in memory.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One recorded event: its global sequence number, its timestamp in
/// microseconds since the recorder was created, and the event itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// 0-based position in the full event stream (not just the ring).
    pub seq: u64,
    /// Microseconds since recorder creation.
    pub t_us: u64,
    pub event: TraceEvent,
}

/// Bounded ring-buffer sink keeping the last `capacity` trace events.
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    ring: Vec<FlightEntry>,
    start: Instant,
}

impl FlightRecorder {
    /// A recorder keeping the last [`DEFAULT_CAPACITY`] events.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            next_seq: 0,
            ring: Vec::with_capacity(capacity),
            start: Instant::now(),
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.next_seq.saturating_sub(self.ring.len() as u64)
    }

    /// The surviving window, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        let mut out = self.ring.clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Renders the surviving window as one `pea-flight/1` JSON document:
    /// `{"schema":…,"recorded":N,"dropped":N,"events":[{seq,t_us,event},…]}`.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"pea-flight/1\"");
        out.push_str(&format!(
            ",\"recorded\":{},\"dropped\":{},\"events\":[",
            self.recorded(),
            self.dropped()
        ));
        for (i, entry) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"t_us\":{},\"event\":{}}}",
                entry.seq,
                entry.t_us,
                entry.event.to_json_line()
            ));
        }
        out.push_str("]}");
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&mut self, event: &TraceEvent) {
        let entry = FlightEntry {
            seq: self.next_seq,
            t_us: self.start.elapsed().as_micros() as u64,
            event: event.clone(),
        };
        if self.ring.len() < self.capacity {
            self.ring.push(entry);
        } else {
            let slot = (self.next_seq % self.capacity as u64) as usize;
            self.ring[slot] = entry;
        }
        self.next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(i: usize) -> TraceEvent {
        TraceEvent::Recompile {
            method: format!("m{i}"),
        }
    }

    #[test]
    fn keeps_the_last_capacity_events_in_order() {
        let mut rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.emit(&event(i));
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let entries = rec.entries();
        assert_eq!(entries.len(), 4);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        assert_eq!(entries[0].event, event(6));
        assert_eq!(entries[3].event, event(9));
        // Timestamps are monotone within the window.
        assert!(entries.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn underfull_ring_reports_no_drops() {
        let mut rec = FlightRecorder::with_capacity(8);
        for i in 0..3 {
            rec.emit(&event(i));
        }
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.entries().len(), 3);
    }

    #[test]
    fn dump_json_embeds_event_objects_with_seq_and_timestamp() {
        let mut rec = FlightRecorder::with_capacity(2);
        for i in 0..3 {
            rec.emit(&event(i));
        }
        let dump = rec.dump_json();
        assert!(dump.starts_with("{\"schema\":\"pea-flight/1\""));
        assert!(dump.contains("\"recorded\":3"));
        assert!(dump.contains("\"dropped\":1"));
        assert!(!dump.contains("\"m0\""), "oldest event was overwritten");
        assert!(dump.contains("\"seq\":1"));
        assert!(dump.contains("{\"event\":\"recompile\",\"method\":\"m2\"}"));
        crate::timeline::validate_json(&dump).expect("FLIGHT.json must be valid JSON");
    }
}
