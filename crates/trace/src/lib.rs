//! Decision-trace observability for the PEA pipeline and the tiered VM.
//!
//! The optimizer and the VM explain *what* they decided through typed
//! [`TraceEvent`]s: every allocation virtualized or materialized (with the
//! forcing node, block, and [`MaterializeReason`]), every lock elided, every
//! field phi created at a merge, every loop re-iteration, and — on the VM
//! side — every compile, deoptimization (with its rematerialization
//! inventory), eviction, and recompile.
//!
//! Events flow into a [`TraceSink`]. Three sinks ship here:
//! [`MemorySink`] (collect for assertions), [`PrettySink`] (human-readable
//! lines), and [`JsonLinesSink`] (one JSON object per line, parseable back
//! via [`TraceEvent::from_json_line`]). [`SiteAggregator`] is a fourth,
//! derived sink that folds the stream into per-allocation-site counters for
//! the benchmark tables.
//!
//! Tracing is zero-cost when disabled: producers hold a [`Tracer`] handle
//! and construct events inside [`Tracer::emit_with`] closures, so a
//! disabled tracer is a single branch on an `Option`.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub mod flight;
pub mod json;
pub mod timeline;

pub use flight::{FlightEntry, FlightRecorder};

/// Why a virtual allocation had to be materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MaterializeReason {
    /// Stored into an object (or static) that is itself not virtual.
    EscapeToStore,
    /// Passed as an argument to a call.
    CallArgument,
    /// Returned from the method.
    ReturnValue,
    /// Thrown as an exception value.
    ThrowValue,
    /// Reached an `Unwind` exit: the exception object (or state reachable
    /// from it) leaves the compiled frame without a local handler, so the
    /// allocation must exist on the heap when the caller sees it.
    ThrownEscape,
    /// A monitor operation that could not be elided (lock elision disabled
    /// or lock state not tracked).
    MonitorOperation,
    /// Virtual in some predecessors of a control-flow merge, escaped in
    /// others (§5.3: the virtual predecessors materialize before the merge).
    MergeOfMixedStates,
    /// Virtual in all predecessors, but the per-field states could not be
    /// reconciled (field phis disabled, or lock depths disagree).
    MergeFieldConflict,
    /// Flowed into a value phi at a merge, forcing a real reference.
    MergePhiInput,
    /// Loop state could not be kept virtual across iterations (loop
    /// processing disabled, or the fixpoint hit the round limit).
    LoopStateMismatch,
    /// Any other escaping operation (§5.2 default rule).
    Other,
}

impl MaterializeReason {
    /// Stable kebab-case name used by both printers and the JSON codec.
    pub fn as_str(self) -> &'static str {
        match self {
            MaterializeReason::EscapeToStore => "escape-to-store",
            MaterializeReason::CallArgument => "call-argument",
            MaterializeReason::ReturnValue => "return-value",
            MaterializeReason::ThrowValue => "throw-value",
            MaterializeReason::ThrownEscape => "thrown-escape",
            MaterializeReason::MonitorOperation => "monitor-operation",
            MaterializeReason::MergeOfMixedStates => "merge-of-mixed-states",
            MaterializeReason::MergeFieldConflict => "merge-field-conflict",
            MaterializeReason::MergePhiInput => "merge-phi-input",
            MaterializeReason::LoopStateMismatch => "loop-state-mismatch",
            MaterializeReason::Other => "other",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "escape-to-store" => MaterializeReason::EscapeToStore,
            "call-argument" => MaterializeReason::CallArgument,
            "return-value" => MaterializeReason::ReturnValue,
            "throw-value" => MaterializeReason::ThrowValue,
            "thrown-escape" => MaterializeReason::ThrownEscape,
            "monitor-operation" => MaterializeReason::MonitorOperation,
            "merge-of-mixed-states" => MaterializeReason::MergeOfMixedStates,
            "merge-field-conflict" => MaterializeReason::MergeFieldConflict,
            "merge-phi-input" => MaterializeReason::MergePhiInput,
            "loop-state-mismatch" => MaterializeReason::LoopStateMismatch,
            "other" => MaterializeReason::Other,
            _ => return None,
        })
    }
}

impl fmt::Display for MaterializeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-phase compile cost in microseconds, attached to
/// [`TraceEvent::CompileEnd`]. Mirrors the compiler's `PhaseTimes`
/// wall-clock breakdown but in a fixed-width unit so it can round-trip
/// through the JSON-lines codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMicros {
    /// Graph building (parsing bytecode into IR, inlining).
    pub build: u64,
    /// Canonicalization rounds.
    pub canonicalize: u64,
    /// Partial escape analysis (zero when EA is disabled).
    pub escape_analysis: u64,
    /// Control-flow scheduling of the final graph.
    pub schedule: u64,
    /// Lowering of the schedule to the linear register-machine form.
    pub lower: u64,
}

impl PhaseMicros {
    /// Total compile time across the recorded phases.
    pub fn total(&self) -> u64 {
        self.build + self.canonicalize + self.escape_analysis + self.schedule + self.lower
    }
}

/// One decision made by the PEA phase or the VM.
///
/// Compile-time events identify allocations by `site` — the IR node id of
/// the original `new` — which is stable across analysis and usable as a key
/// into source listings. `block` and `anchor`/`node` ids refer to the IR of
/// the method named by the enclosing [`CompileStart`](Self::CompileStart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The compiler started (re)compiling a method at an optimization level.
    CompileStart { method: String, level: String },
    /// Compilation finished; `code_size` is the scheduled node count and
    /// `phases` the per-phase wall-clock breakdown.
    CompileEnd {
        method: String,
        code_size: u64,
        phases: PhaseMicros,
    },
    /// An allocation was taken virtual (scalar-replaced unless forced back).
    Virtualized { site: u32, shape: String },
    /// A virtual allocation was forced into existence.
    Materialized {
        /// Node id of the original allocation.
        site: u32,
        /// Node that forced the materialization.
        anchor: u32,
        /// Block the materialization code lands in.
        block: u32,
        reason: MaterializeReason,
    },
    /// A monitor enter/exit on a virtual object was removed.
    LockElided { site: u32, node: u32, exit: bool },
    /// A field/array load was satisfied from the virtual state.
    LoadElided { site: u32, node: u32 },
    /// A field/array store was absorbed into the virtual state.
    StoreElided { site: u32, node: u32 },
    /// A reference check (ref-eq, null check, instanceof, checkcast,
    /// array-length) was folded using virtual object identity.
    CheckFolded { node: u32, value: i64 },
    /// A phi was created at a merge to carry virtual field state (§5.3).
    /// `field` is `None` for the materialized-reference phi.
    PhiCreated {
        merge: u32,
        site: u32,
        field: Option<u32>,
    },
    /// The loop fixpoint (§5.4) ran another analysis round.
    LoopRound { loop_begin: u32, round: u32 },
    /// The VM deoptimized compiled code; `rematerialized` lists the shapes
    /// of virtual objects reallocated while reconstructing interpreter
    /// frames (§5.5). `site` and `bci` name the innermost interpreter frame
    /// being resumed — the actual deopt site, which under inlining may be a
    /// different method than the compiled root `method`.
    Deopt {
        method: String,
        /// Method of the innermost resumed frame (equals `method` unless
        /// the deopt happened inside an inlined callee).
        site: String,
        /// Bytecode index of the innermost resumed frame.
        bci: u32,
        reason: String,
        rematerialized: Vec<String>,
    },
    /// The VM discarded a compiled method after repeated deopts.
    Evict { method: String, deopts: u64 },
    /// The VM is compiling a method it previously evicted.
    Recompile { method: String },
    /// A periodic metrics delta emitted by the VM at a background-mode
    /// safepoint: `counters` holds `name=value` lines of every metric
    /// that changed since the previous snapshot (see `pea-metrics`).
    MetricsSnapshot { seq: u64, counters: Vec<String> },
    /// The graph builder decided whether to inline a call site. `reason`
    /// is the kebab-case rule that settled the decision (e.g.
    /// `within-size-budget`, `over-size-budget`, `may-throw`, `recursive`).
    InlineDecision {
        method: String,
        bci: u32,
        callee: String,
        inlined: bool,
        reason: String,
    },
    /// The graph builder speculated on receiver types at a virtual call
    /// site and planted a deopt guard: `classes` lists the speculated
    /// receiver classes hottest-first (one entry for a monomorphic guard,
    /// 2..=4 for a polymorphic inline cache).
    DevirtGuard {
        method: String,
        bci: u32,
        callee: String,
        classes: Vec<String>,
    },
    /// Compiled code hit a speculation guard at runtime and transferred to
    /// the interpreter. Narrower than [`Deopt`](Self::Deopt): emitted only
    /// for guard-triggered transfers, before the generic deopt event, so
    /// golden traces can pin guard-failure ordering. Carries the same
    /// `(site, bci)` deopt-site coordinates as [`Deopt`](Self::Deopt).
    DeoptTaken {
        method: String,
        /// Method of the innermost resumed frame.
        site: String,
        /// Bytecode index of the innermost resumed frame.
        bci: u32,
        reason: String,
    },
}

impl TraceEvent {
    /// Stable event-kind tag shared by the pretty printer and JSON codec.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CompileStart { .. } => "compile-start",
            TraceEvent::CompileEnd { .. } => "compile-end",
            TraceEvent::Virtualized { .. } => "virtualized",
            TraceEvent::Materialized { .. } => "materialized",
            TraceEvent::LockElided { .. } => "lock-elided",
            TraceEvent::LoadElided { .. } => "load-elided",
            TraceEvent::StoreElided { .. } => "store-elided",
            TraceEvent::CheckFolded { .. } => "check-folded",
            TraceEvent::PhiCreated { .. } => "phi-created",
            TraceEvent::LoopRound { .. } => "loop-round",
            TraceEvent::Deopt { .. } => "deopt",
            TraceEvent::Evict { .. } => "evict",
            TraceEvent::Recompile { .. } => "recompile",
            TraceEvent::MetricsSnapshot { .. } => "metrics-snapshot",
            TraceEvent::InlineDecision { .. } => "inline-decision",
            TraceEvent::DevirtGuard { .. } => "devirt-guard",
            TraceEvent::DeoptTaken { .. } => "deopt-taken",
        }
    }

    /// The event with wall-clock-dependent payload zeroed: compile phase
    /// timings vary run to run, so determinism tests compare normalized
    /// streams while everything semantic (methods, sites, counts) must
    /// still match exactly.
    pub fn normalized(&self) -> TraceEvent {
        match self {
            TraceEvent::CompileEnd {
                method, code_size, ..
            } => TraceEvent::CompileEnd {
                method: method.clone(),
                code_size: *code_size,
                phases: PhaseMicros::default(),
            },
            other => other.clone(),
        }
    }

    /// Renders the event as one human-readable line (no trailing newline).
    pub fn pretty(&self) -> String {
        match self {
            TraceEvent::CompileStart { method, level } => {
                format!("compile {method} (level={level})")
            }
            TraceEvent::CompileEnd {
                method,
                code_size,
                phases,
            } => {
                if phases.total() == 0 {
                    format!("compiled {method}: {code_size} nodes scheduled")
                } else {
                    format!(
                        "compiled {method}: {code_size} nodes scheduled in {}us \
                         (build {}us, canon {}us, ea {}us, sched {}us, lower {}us)",
                        phases.total(),
                        phases.build,
                        phases.canonicalize,
                        phases.escape_analysis,
                        phases.schedule,
                        phases.lower
                    )
                }
            }
            TraceEvent::Virtualized { site, shape } => {
                format!("  alloc n{site} ({shape}) virtualized")
            }
            TraceEvent::Materialized {
                site,
                anchor,
                block,
                reason,
            } => format!("  alloc n{site} materialized at n{anchor} in b{block}: {reason}"),
            TraceEvent::LockElided { site, node, exit } => {
                let what = if *exit {
                    "monitor-exit"
                } else {
                    "monitor-enter"
                };
                format!("  {what} n{node} elided (alloc n{site})")
            }
            TraceEvent::LoadElided { site, node } => {
                format!("  load n{node} elided (alloc n{site})")
            }
            TraceEvent::StoreElided { site, node } => {
                format!("  store n{node} elided (alloc n{site})")
            }
            TraceEvent::CheckFolded { node, value } => {
                format!("  check n{node} folded to {value}")
            }
            TraceEvent::PhiCreated { merge, site, field } => match field {
                Some(f) => format!("  phi at n{merge} for field {f} of alloc n{site}"),
                None => format!("  phi at n{merge} for materialized alloc n{site}"),
            },
            TraceEvent::LoopRound { loop_begin, round } => {
                format!("  loop n{loop_begin} re-analyzed (round {round})")
            }
            TraceEvent::Deopt {
                method,
                site,
                bci,
                reason,
                rematerialized,
            } => {
                if rematerialized.is_empty() {
                    format!("deopt {method} at {site}:{bci} ({reason})")
                } else {
                    format!(
                        "deopt {method} at {site}:{bci} ({reason}): rematerialized [{}]",
                        rematerialized.join(", ")
                    )
                }
            }
            TraceEvent::Evict { method, deopts } => {
                format!("evict {method} after {deopts} deopts")
            }
            TraceEvent::Recompile { method } => format!("recompile {method}"),
            TraceEvent::MetricsSnapshot { seq, counters } => {
                if counters.is_empty() {
                    format!("metrics #{seq}: (no change)")
                } else {
                    format!("metrics #{seq}: {}", counters.join(" "))
                }
            }
            TraceEvent::InlineDecision {
                method,
                bci,
                callee,
                inlined,
                reason,
            } => {
                let verdict = if *inlined { "inline" } else { "no-inline" };
                format!("  {verdict} {callee} at {method}:{bci} ({reason})")
            }
            TraceEvent::DevirtGuard {
                method,
                bci,
                callee,
                classes,
            } => format!(
                "  devirt-guard {callee} at {method}:{bci} on [{}]",
                classes.join(", ")
            ),
            TraceEvent::DeoptTaken {
                method,
                site,
                bci,
                reason,
            } => {
                format!("deopt-taken {method} at {site}:{bci} ({reason})")
            }
        }
    }

    /// Serializes the event as a single-line JSON object.
    pub fn to_json_line(&self) -> String {
        let mut o = json::ObjectWriter::new();
        self.write_json(&mut o);
        o.finish()
    }

    /// Writes the event's fields into `o`: the members of the object
    /// [`to_json_line`](Self::to_json_line) writes, and of each `event`
    /// object in `FLIGHT.json`.
    pub(crate) fn write_json(&self, o: &mut json::ObjectWriter) {
        o.str("event", self.kind());
        match self {
            TraceEvent::CompileStart { method, level } => {
                o.str("method", method);
                o.str("level", level);
            }
            TraceEvent::CompileEnd {
                method,
                code_size,
                phases,
            } => {
                o.str("method", method);
                o.num("code_size", *code_size);
                o.num("build_us", phases.build);
                o.num("canonicalize_us", phases.canonicalize);
                o.num("escape_analysis_us", phases.escape_analysis);
                o.num("schedule_us", phases.schedule);
                o.num("lower_us", phases.lower);
            }
            TraceEvent::Virtualized { site, shape } => {
                o.num("site", *site);
                o.str("shape", shape);
            }
            TraceEvent::Materialized {
                site,
                anchor,
                block,
                reason,
            } => {
                o.num("site", *site);
                o.num("anchor", *anchor);
                o.num("block", *block);
                o.str("reason", reason.as_str());
            }
            TraceEvent::LockElided { site, node, exit } => {
                o.num("site", *site);
                o.num("node", *node);
                o.bool("exit", *exit);
            }
            TraceEvent::LoadElided { site, node } => {
                o.num("site", *site);
                o.num("node", *node);
            }
            TraceEvent::StoreElided { site, node } => {
                o.num("site", *site);
                o.num("node", *node);
            }
            TraceEvent::CheckFolded { node, value } => {
                o.num("node", *node);
                o.num("value", *value);
            }
            TraceEvent::PhiCreated { merge, site, field } => {
                o.num("merge", *merge);
                o.num("site", *site);
                match field {
                    Some(f) => o.num("field", *f),
                    None => o.null("field"),
                }
            }
            TraceEvent::LoopRound { loop_begin, round } => {
                o.num("loop_begin", *loop_begin);
                o.num("round", *round);
            }
            TraceEvent::Deopt {
                method,
                site,
                bci,
                reason,
                rematerialized,
            } => {
                o.str("method", method);
                o.str("site", site);
                o.num("bci", *bci);
                o.str("reason", reason);
                o.str_array("rematerialized", rematerialized);
            }
            TraceEvent::Evict { method, deopts } => {
                o.str("method", method);
                o.num("deopts", *deopts);
            }
            TraceEvent::Recompile { method } => o.str("method", method),
            TraceEvent::MetricsSnapshot { seq, counters } => {
                o.num("seq", *seq);
                o.str_array("counters", counters);
            }
            TraceEvent::InlineDecision {
                method,
                bci,
                callee,
                inlined,
                reason,
            } => {
                o.str("method", method);
                o.num("bci", *bci);
                o.str("callee", callee);
                o.bool("inlined", *inlined);
                o.str("reason", reason);
            }
            TraceEvent::DevirtGuard {
                method,
                bci,
                callee,
                classes,
            } => {
                o.str("method", method);
                o.num("bci", *bci);
                o.str("callee", callee);
                o.str_array("classes", classes);
            }
            TraceEvent::DeoptTaken {
                method,
                site,
                bci,
                reason,
            } => {
                o.str("method", method);
                o.str("site", site);
                o.num("bci", *bci);
                o.str("reason", reason);
            }
        }
    }

    /// Parses a line produced by [`to_json_line`](Self::to_json_line).
    pub fn from_json_line(line: &str) -> Result<TraceEvent, json::JsonError> {
        Self::from_json_object(&json::parse_object(line)?)
    }

    /// Reads an event from an object holding the fields of its JSON line,
    /// such as an `event` object of `FLIGHT.json`.
    pub fn from_json_object(obj: &json::Object) -> Result<TraceEvent, json::JsonError> {
        let kind = obj.get_str("event")?;
        let event = match kind {
            "compile-start" => TraceEvent::CompileStart {
                method: obj.get_str("method")?.to_string(),
                level: obj.get_str("level")?.to_string(),
            },
            "compile-end" => TraceEvent::CompileEnd {
                method: obj.get_str("method")?.to_string(),
                code_size: obj.get_num("code_size")?,
                // The timing fields are optional so traces recorded before
                // the payload existed still parse: a missing one is 0.
                phases: PhaseMicros {
                    build: obj.opt_num("build_us")?.unwrap_or(0),
                    canonicalize: obj.opt_num("canonicalize_us")?.unwrap_or(0),
                    escape_analysis: obj.opt_num("escape_analysis_us")?.unwrap_or(0),
                    schedule: obj.opt_num("schedule_us")?.unwrap_or(0),
                    lower: obj.opt_num("lower_us")?.unwrap_or(0),
                },
            },
            "virtualized" => TraceEvent::Virtualized {
                site: obj.get_num("site")?,
                shape: obj.get_str("shape")?.to_string(),
            },
            "materialized" => TraceEvent::Materialized {
                site: obj.get_num("site")?,
                anchor: obj.get_num("anchor")?,
                block: obj.get_num("block")?,
                reason: {
                    let raw = obj.get_str("reason")?;
                    MaterializeReason::parse(raw)
                        .ok_or_else(|| json::JsonError::new(format!("unknown reason {raw:?}")))?
                },
            },
            "lock-elided" => TraceEvent::LockElided {
                site: obj.get_num("site")?,
                node: obj.get_num("node")?,
                exit: obj.get_bool("exit")?,
            },
            "load-elided" => TraceEvent::LoadElided {
                site: obj.get_num("site")?,
                node: obj.get_num("node")?,
            },
            "store-elided" => TraceEvent::StoreElided {
                site: obj.get_num("site")?,
                node: obj.get_num("node")?,
            },
            "check-folded" => TraceEvent::CheckFolded {
                node: obj.get_num("node")?,
                value: obj.get_num("value")?,
            },
            "phi-created" => TraceEvent::PhiCreated {
                merge: obj.get_num("merge")?,
                site: obj.get_num("site")?,
                field: obj.get_opt_num("field")?,
            },
            "loop-round" => TraceEvent::LoopRound {
                loop_begin: obj.get_num("loop_begin")?,
                round: obj.get_num("round")?,
            },
            "deopt" => {
                let method = obj.get_str("method")?.to_string();
                // `site`/`bci` are optional so traces recorded before the
                // deopt-site payload existed still parse (site defaults to
                // the compiled method, bci to 0).
                let site = obj.opt_str("site").unwrap_or(&method).to_string();
                TraceEvent::Deopt {
                    site,
                    bci: obj.opt_num("bci")?.unwrap_or(0),
                    reason: obj.get_str("reason")?.to_string(),
                    rematerialized: obj.get_str_array("rematerialized")?,
                    method,
                }
            }
            "evict" => TraceEvent::Evict {
                method: obj.get_str("method")?.to_string(),
                deopts: obj.get_num("deopts")?,
            },
            "recompile" => TraceEvent::Recompile {
                method: obj.get_str("method")?.to_string(),
            },
            "metrics-snapshot" => TraceEvent::MetricsSnapshot {
                seq: obj.get_num("seq")?,
                counters: obj.get_str_array("counters")?,
            },
            "inline-decision" => TraceEvent::InlineDecision {
                method: obj.get_str("method")?.to_string(),
                bci: obj.get_num("bci")?,
                callee: obj.get_str("callee")?.to_string(),
                inlined: obj.get_bool("inlined")?,
                reason: obj.get_str("reason")?.to_string(),
            },
            "devirt-guard" => TraceEvent::DevirtGuard {
                method: obj.get_str("method")?.to_string(),
                bci: obj.get_num("bci")?,
                callee: obj.get_str("callee")?.to_string(),
                classes: obj.get_str_array("classes")?,
            },
            "deopt-taken" => {
                let method = obj.get_str("method")?.to_string();
                let site = obj.opt_str("site").unwrap_or(&method).to_string();
                TraceEvent::DeoptTaken {
                    site,
                    bci: obj.opt_num("bci")?.unwrap_or(0),
                    reason: obj.get_str("reason")?.to_string(),
                    method,
                }
            }
            other => {
                return Err(json::JsonError::new(format!(
                    "unknown event kind {other:?}"
                )));
            }
        };
        Ok(event)
    }
}

/// Receives trace events. Implementations must be cheap per call; producers
/// only invoke them when tracing is enabled.
pub trait TraceSink {
    fn emit(&mut self, event: &TraceEvent);
}

/// Collects events in order for later inspection (golden-trace tests).
#[derive(Debug, Default)]
pub struct MemorySink {
    pub events: Vec<TraceEvent>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Events of one kind, in emission order.
    pub fn of_kind(&self, kind: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.kind() == kind).collect()
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Writes one human-readable line per event.
pub struct PrettySink<W: Write> {
    out: W,
}

impl<W: Write> PrettySink<W> {
    pub fn new(out: W) -> Self {
        PrettySink { out }
    }

    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for PrettySink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        let _ = writeln!(self.out, "{}", event.pretty());
    }
}

/// Writes one JSON object per line; parseable by
/// [`TraceEvent::from_json_line`].
pub struct JsonLinesSink<W: Write> {
    out: W,
}

impl<W: Write> JsonLinesSink<W> {
    pub fn new(out: W) -> Self {
        JsonLinesSink { out }
    }

    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        let _ = writeln!(self.out, "{}", event.to_json_line());
    }
}

/// A clonable, shared handle to a sink, for producers that outlive a simple
/// borrow (the VM holds one in its options and emits from nested calls;
/// background compiler threads hold clones and emit concurrently).
///
/// The handle is `Send + Sync`: events are serialized through an internal
/// mutex, so streams from parallel compilations interleave at event
/// granularity but individual events are never torn.
#[derive(Clone)]
pub struct SharedSink(Arc<Mutex<dyn TraceSink + Send>>);

impl SharedSink {
    /// Wraps `sink`, returning the shared handle plus a typed handle the
    /// caller keeps for reading results back out.
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> (SharedSink, Arc<Mutex<S>>) {
        let typed = Arc::new(Mutex::new(sink));
        (SharedSink(typed.clone()), typed)
    }

    /// Emits through a shared reference (the trait method needs `&mut`).
    pub fn emit_event(&self, event: &TraceEvent) {
        self.0.lock().expect("trace sink poisoned").emit(event);
    }

    /// Runs `f` with exclusive access to the sink — used to hand the sink
    /// to a nested phase that expects a plain `&mut dyn TraceSink` (e.g. a
    /// traced compilation on a worker thread).
    pub fn with_sink<R>(&self, f: impl FnOnce(&mut dyn TraceSink) -> R) -> R {
        let mut guard = self.0.lock().expect("trace sink poisoned");
        f(&mut *guard)
    }
}

impl TraceSink for SharedSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.emit_event(event);
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink(..)")
    }
}

/// Merges per-worker event buffers into a [`SharedSink`] in sequence order.
///
/// Background compile workers buffer each compilation's events privately
/// (no shared-sink lock on the hot path) and flush the whole block here with
/// the sequence number the compile queue assigned when the request was
/// popped. Blocks are released downstream strictly in `0, 1, 2, …` order:
/// an out-of-order flush parks its block until every earlier sequence has
/// arrived, so consumers see deterministically ordered, never-interleaved
/// compilation streams regardless of worker scheduling.
pub struct SequencedMerge {
    sink: SharedSink,
    state: Mutex<MergeState>,
}

struct MergeState {
    next: u64,
    pending: BTreeMap<u64, Vec<TraceEvent>>,
}

impl SequencedMerge {
    /// A merge that releases blocks into `sink`, starting at sequence 0.
    pub fn new(sink: SharedSink) -> SequencedMerge {
        SequencedMerge {
            sink,
            state: Mutex::new(MergeState {
                next: 0,
                pending: BTreeMap::new(),
            }),
        }
    }

    /// Hands over the block for sequence `seq`. Every sequence number must
    /// be flushed exactly once; the block (and any parked successors it
    /// unblocks) is forwarded downstream as soon as it is next in line.
    pub fn flush(&self, seq: u64, events: Vec<TraceEvent>) {
        let mut state = self.state.lock().expect("merge state poisoned");
        state.pending.insert(seq, events);
        while let Some(block) = {
            let next = state.next;
            state.pending.remove(&next)
        } {
            state.next += 1;
            self.sink.with_sink(|sink| {
                for event in &block {
                    sink.emit(event);
                }
            });
        }
    }

    /// Number of blocks parked waiting for an earlier sequence.
    pub fn pending(&self) -> usize {
        self.state
            .lock()
            .expect("merge state poisoned")
            .pending
            .len()
    }
}

impl fmt::Debug for SequencedMerge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SequencedMerge(..)")
    }
}

/// Producer-side handle: either a live borrow of a sink, or off.
///
/// `emit_with` takes a closure so event construction (string formatting,
/// allocation) is skipped entirely when tracing is disabled — the disabled
/// path is one `Option` branch.
pub struct Tracer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
}

impl<'a> Tracer<'a> {
    /// A tracer that records nothing and costs one branch per emit site.
    pub fn off() -> Tracer<'a> {
        Tracer { sink: None }
    }

    pub fn new(sink: &'a mut dyn TraceSink) -> Tracer<'a> {
        Tracer { sink: Some(sink) }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The underlying sink, for handing to a nested traced phase.
    pub fn sink(&mut self) -> Option<&mut dyn TraceSink> {
        match self.sink.as_mut() {
            Some(s) => Some(&mut **s),
            None => None,
        }
    }

    /// Emits the event produced by `f`, constructing it only if enabled.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(&f());
        }
    }

    /// Emits an already-constructed event.
    pub fn emit(&mut self, event: &TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(event);
        }
    }
}

impl fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(enabled={})", self.enabled())
    }
}

/// Per-allocation-site counters folded from a trace stream.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SiteCounters {
    pub shape: String,
    pub virtualized: u64,
    pub materialized: u64,
    /// Materializations by reason, in reason order.
    pub by_reason: BTreeMap<MaterializeReason, u64>,
    pub locks_elided: u64,
    pub loads_elided: u64,
    pub stores_elided: u64,
}

/// Folds a trace stream into per-(method, site) counters — the benchmark
/// tables use this for per-site materialization breakdowns.
///
/// Compile-scoped events are attributed to the most recent
/// [`TraceEvent::CompileStart`]; VM events carry their own method name.
#[derive(Debug, Default)]
pub struct SiteAggregator {
    current_method: String,
    /// (method, site) → counters.
    pub sites: BTreeMap<(String, u32), SiteCounters>,
    /// method → (deopts, rematerialized objects across those deopts).
    pub deopts: BTreeMap<String, (u64, u64)>,
    pub compiles: u64,
    pub evictions: u64,
}

impl SiteAggregator {
    pub fn new() -> Self {
        Self::default()
    }

    fn site(&mut self, site: u32) -> &mut SiteCounters {
        self.sites
            .entry((self.current_method.clone(), site))
            .or_default()
    }

    /// Total materializations per reason across all sites.
    pub fn reason_totals(&self) -> BTreeMap<MaterializeReason, u64> {
        let mut totals = BTreeMap::new();
        for c in self.sites.values() {
            for (&reason, &n) in &c.by_reason {
                *totals.entry(reason).or_insert(0) += n;
            }
        }
        totals
    }

    /// Renders the per-site breakdown as indented text lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((method, site), c) in &self.sites {
            let reasons = c
                .by_reason
                .iter()
                .map(|(r, n)| format!("{r} {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{method} n{site} ({}): virtualized {}, materialized {}{}{}\n",
                if c.shape.is_empty() { "?" } else { &c.shape },
                c.virtualized,
                c.materialized,
                if reasons.is_empty() {
                    String::new()
                } else {
                    format!(" [{reasons}]")
                },
                {
                    let mut extras = Vec::new();
                    if c.locks_elided > 0 {
                        extras.push(format!("locks elided {}", c.locks_elided));
                    }
                    if c.loads_elided > 0 {
                        extras.push(format!("loads elided {}", c.loads_elided));
                    }
                    if c.stores_elided > 0 {
                        extras.push(format!("stores elided {}", c.stores_elided));
                    }
                    if extras.is_empty() {
                        String::new()
                    } else {
                        format!(", {}", extras.join(", "))
                    }
                },
            ));
        }
        for (method, (deopts, remat)) in &self.deopts {
            out.push_str(&format!(
                "{method}: {deopts} deopts, {remat} objects rematerialized\n"
            ));
        }
        out
    }
}

impl TraceSink for SiteAggregator {
    fn emit(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::CompileStart { method, .. } => {
                self.current_method = method.clone();
                self.compiles += 1;
            }
            TraceEvent::CompileEnd { .. } => {}
            TraceEvent::Virtualized { site, shape } => {
                let shape = shape.clone();
                let c = self.site(*site);
                c.virtualized += 1;
                c.shape = shape;
            }
            TraceEvent::Materialized { site, reason, .. } => {
                let reason = *reason;
                let c = self.site(*site);
                c.materialized += 1;
                *c.by_reason.entry(reason).or_insert(0) += 1;
            }
            TraceEvent::LockElided { site, .. } => self.site(*site).locks_elided += 1,
            TraceEvent::LoadElided { site, .. } => self.site(*site).loads_elided += 1,
            TraceEvent::StoreElided { site, .. } => self.site(*site).stores_elided += 1,
            TraceEvent::CheckFolded { .. }
            | TraceEvent::PhiCreated { .. }
            | TraceEvent::LoopRound { .. } => {}
            TraceEvent::Deopt {
                method,
                rematerialized,
                ..
            } => {
                let entry = self.deopts.entry(method.clone()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += rematerialized.len() as u64;
            }
            TraceEvent::Evict { .. } => self.evictions += 1,
            TraceEvent::Recompile { .. }
            | TraceEvent::MetricsSnapshot { .. }
            | TraceEvent::InlineDecision { .. }
            | TraceEvent::DevirtGuard { .. }
            | TraceEvent::DeoptTaken { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CompileStart {
                method: "Cache.getValue".into(),
                level: "pea".into(),
            },
            TraceEvent::Virtualized {
                site: 3,
                shape: "Key".into(),
            },
            TraceEvent::LoadElided { site: 3, node: 12 },
            TraceEvent::StoreElided { site: 3, node: 13 },
            TraceEvent::LockElided {
                site: 3,
                node: 7,
                exit: false,
            },
            TraceEvent::LockElided {
                site: 3,
                node: 9,
                exit: true,
            },
            TraceEvent::CheckFolded { node: 15, value: 1 },
            TraceEvent::PhiCreated {
                merge: 20,
                site: 3,
                field: Some(1),
            },
            TraceEvent::PhiCreated {
                merge: 20,
                site: 3,
                field: None,
            },
            TraceEvent::LoopRound {
                loop_begin: 18,
                round: 2,
            },
            TraceEvent::Materialized {
                site: 3,
                anchor: 27,
                block: 4,
                reason: MaterializeReason::EscapeToStore,
            },
            TraceEvent::CompileEnd {
                method: "Cache.getValue".into(),
                code_size: 41,
                phases: PhaseMicros {
                    build: 120,
                    canonicalize: 35,
                    escape_analysis: 88,
                    schedule: 12,
                    lower: 7,
                },
            },
            TraceEvent::Deopt {
                method: "Cache.getValue".into(),
                site: "Cache.getValue".into(),
                bci: 6,
                reason: "untaken-branch".into(),
                rematerialized: vec!["Key".into(), "int[8]".into()],
            },
            TraceEvent::Deopt {
                method: "Cache.getValue".into(),
                site: "Cache.hash".into(),
                bci: 2,
                reason: "type-check".into(),
                rematerialized: vec![],
            },
            TraceEvent::Evict {
                method: "Cache.getValue".into(),
                deopts: 4,
            },
            TraceEvent::Recompile {
                method: "Cache.getValue".into(),
            },
            TraceEvent::MetricsSnapshot {
                seq: 1,
                counters: vec!["interp.steps=120".into(), "vm.deopts=2".into()],
            },
            TraceEvent::InlineDecision {
                method: "Cache.getValue".into(),
                bci: 4,
                callee: "Cache.hash".into(),
                inlined: true,
                reason: "within-size-budget".into(),
            },
            TraceEvent::InlineDecision {
                method: "Cache.getValue".into(),
                bci: 9,
                callee: "Registry.publish".into(),
                inlined: false,
                reason: "may-throw".into(),
            },
            TraceEvent::DevirtGuard {
                method: "Cache.getValue".into(),
                bci: 11,
                callee: "Shape.area".into(),
                classes: vec!["Circle".into(), "Square".into()],
            },
            TraceEvent::DeoptTaken {
                method: "Cache.getValue".into(),
                site: "Cache.getValue".into(),
                bci: 11,
                reason: "type-check".into(),
            },
        ]
    }

    /// The exact JSON line of every variant in [`sample_events`]: traces
    /// already written must keep reading back, and tools that grep them
    /// must keep matching.
    #[test]
    fn json_lines_bytes_are_pinned() {
        const PINNED: [&str; 21] = [
            r#"{"event":"compile-start","method":"Cache.getValue","level":"pea"}"#,
            r#"{"event":"virtualized","site":3,"shape":"Key"}"#,
            r#"{"event":"load-elided","site":3,"node":12}"#,
            r#"{"event":"store-elided","site":3,"node":13}"#,
            r#"{"event":"lock-elided","site":3,"node":7,"exit":false}"#,
            r#"{"event":"lock-elided","site":3,"node":9,"exit":true}"#,
            r#"{"event":"check-folded","node":15,"value":1}"#,
            r#"{"event":"phi-created","merge":20,"site":3,"field":1}"#,
            r#"{"event":"phi-created","merge":20,"site":3,"field":null}"#,
            r#"{"event":"loop-round","loop_begin":18,"round":2}"#,
            r#"{"event":"materialized","site":3,"anchor":27,"block":4,"reason":"escape-to-store"}"#,
            r#"{"event":"compile-end","method":"Cache.getValue","code_size":41,"build_us":120,"canonicalize_us":35,"escape_analysis_us":88,"schedule_us":12,"lower_us":7}"#,
            r#"{"event":"deopt","method":"Cache.getValue","site":"Cache.getValue","bci":6,"reason":"untaken-branch","rematerialized":["Key","int[8]"]}"#,
            r#"{"event":"deopt","method":"Cache.getValue","site":"Cache.hash","bci":2,"reason":"type-check","rematerialized":[]}"#,
            r#"{"event":"evict","method":"Cache.getValue","deopts":4}"#,
            r#"{"event":"recompile","method":"Cache.getValue"}"#,
            r#"{"event":"metrics-snapshot","seq":1,"counters":["interp.steps=120","vm.deopts=2"]}"#,
            r#"{"event":"inline-decision","method":"Cache.getValue","bci":4,"callee":"Cache.hash","inlined":true,"reason":"within-size-budget"}"#,
            r#"{"event":"inline-decision","method":"Cache.getValue","bci":9,"callee":"Registry.publish","inlined":false,"reason":"may-throw"}"#,
            r#"{"event":"devirt-guard","method":"Cache.getValue","bci":11,"callee":"Shape.area","classes":["Circle","Square"]}"#,
            r#"{"event":"deopt-taken","method":"Cache.getValue","site":"Cache.getValue","bci":11,"reason":"type-check"}"#,
        ];
        let lines: Vec<String> = sample_events()
            .iter()
            .map(TraceEvent::to_json_line)
            .collect();
        assert_eq!(lines, PINNED);
    }

    #[test]
    fn json_lines_round_trip_every_variant() {
        for event in sample_events() {
            let line = event.to_json_line();
            let back = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, event, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn json_escaping_survives_round_trip() {
        let event = TraceEvent::Recompile {
            method: "weird \"name\"\\with\n\tcontrol \u{1} chars".into(),
        };
        let line = event.to_json_line();
        assert!(!line.contains('\n'), "JSON-lines output must be one line");
        assert_eq!(TraceEvent::from_json_line(&line).unwrap(), event);
    }

    #[test]
    fn json_lines_sink_output_parses_back() {
        let mut sink = JsonLinesSink::new(Vec::new());
        for event in sample_events() {
            sink.emit(&event);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_json_line(l).unwrap())
            .collect();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn deopt_lines_without_site_payload_still_parse() {
        // Traces recorded before the deopt-site fields existed.
        let old = "{\"event\":\"deopt\",\"method\":\"Cache.getValue\",\
                   \"reason\":\"type-check\",\"rematerialized\":[]}";
        assert_eq!(
            TraceEvent::from_json_line(old).unwrap(),
            TraceEvent::Deopt {
                method: "Cache.getValue".into(),
                site: "Cache.getValue".into(),
                bci: 0,
                reason: "type-check".into(),
                rematerialized: vec![],
            }
        );
        let old = "{\"event\":\"deopt-taken\",\"method\":\"M.f\",\"reason\":\"null-check\"}";
        assert_eq!(
            TraceEvent::from_json_line(old).unwrap(),
            TraceEvent::DeoptTaken {
                method: "M.f".into(),
                site: "M.f".into(),
                bci: 0,
                reason: "null-check".into(),
            }
        );
    }

    #[test]
    fn compile_end_lines_without_phase_timings_still_parse() {
        // Traces recorded before the phase-timing fields existed.
        let old = r#"{"event":"compile-end","method":"m","code_size":3}"#;
        assert_eq!(
            TraceEvent::from_json_line(old).unwrap(),
            TraceEvent::CompileEnd {
                method: "m".into(),
                code_size: 3,
                phases: PhaseMicros::default(),
            }
        );
        let null = r#"{"event":"compile-end","method":"m","code_size":3,"lower_us":null}"#;
        assert!(TraceEvent::from_json_line(null).is_ok());
        let negative = r#"{"event":"compile-end","method":"m","code_size":3,"build_us":-1}"#;
        assert!(TraceEvent::from_json_line(negative).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(TraceEvent::from_json_line("").is_err());
        assert!(TraceEvent::from_json_line("{}").is_err());
        assert!(TraceEvent::from_json_line("{\"event\":\"nope\"}").is_err());
        assert!(TraceEvent::from_json_line("{\"event\":\"deopt\"}").is_err());
        assert!(TraceEvent::from_json_line("not json").is_err());
        assert!(TraceEvent::from_json_line("{\"event\":12}").is_err());
    }

    #[test]
    fn hostile_and_nested_lines_are_errors() {
        for input in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert!(TraceEvent::from_json_line(&input).is_err());
        }
        let nested = "{\"event\":\"recompile\",\"method\":\"m\",\"x\":{}}";
        assert!(TraceEvent::from_json_line(nested).is_err());
        let flat = "{\"event\":\"recompile\",\"method\":\"m\",\"x\":[]}";
        assert!(TraceEvent::from_json_line(flat).is_ok());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::new();
        for event in sample_events() {
            sink.emit(&event);
        }
        assert_eq!(sink.events, sample_events());
        assert_eq!(sink.of_kind("lock-elided").len(), 2);
    }

    #[test]
    fn pretty_sink_writes_one_line_per_event() {
        let mut sink = PrettySink::new(Vec::new());
        for event in sample_events() {
            sink.emit(&event);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), sample_events().len());
        assert!(text.contains("alloc n3 (Key) virtualized"));
        assert!(text.contains("materialized at n27 in b4: escape-to-store"));
        assert!(text.contains("rematerialized [Key, int[8]]"));
    }

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let mut tracer = Tracer::off();
        let mut constructed = false;
        tracer.emit_with(|| {
            constructed = true;
            TraceEvent::Recompile { method: "x".into() }
        });
        assert!(!constructed);
        assert!(!tracer.enabled());
    }

    #[test]
    fn shared_sink_feeds_back_to_typed_handle() {
        let (mut shared, typed) = SharedSink::new(MemorySink::new());
        let mut clone = shared.clone();
        shared.emit(&TraceEvent::Recompile { method: "a".into() });
        clone.emit(&TraceEvent::Recompile { method: "b".into() });
        assert_eq!(typed.lock().unwrap().events.len(), 2);
    }

    #[test]
    fn shared_sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedSink>();
    }

    #[test]
    fn shared_sink_collects_across_threads() {
        let (shared, typed) = SharedSink::new(MemorySink::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = shared.clone();
                scope.spawn(move || {
                    sink.emit_event(&TraceEvent::Recompile {
                        method: format!("m{t}"),
                    });
                });
            }
        });
        let mut methods: Vec<String> = typed
            .lock()
            .unwrap()
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Recompile { method } => method.clone(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        methods.sort();
        assert_eq!(methods, ["m0", "m1", "m2", "m3"]);
    }

    #[test]
    fn site_aggregator_folds_per_site_counters() {
        let mut agg = SiteAggregator::new();
        for event in sample_events() {
            agg.emit(&event);
        }
        let c = &agg.sites[&("Cache.getValue".to_string(), 3)];
        assert_eq!(c.shape, "Key");
        assert_eq!(c.virtualized, 1);
        assert_eq!(c.materialized, 1);
        assert_eq!(c.by_reason[&MaterializeReason::EscapeToStore], 1);
        assert_eq!(c.locks_elided, 2);
        assert_eq!(c.loads_elided, 1);
        assert_eq!(c.stores_elided, 1);
        assert_eq!(agg.deopts["Cache.getValue"], (2, 2));
        assert_eq!(agg.compiles, 1);
        assert_eq!(agg.evictions, 1);
        let render = agg.render();
        assert!(render.contains("Cache.getValue n3 (Key)"));
        assert!(render.contains("escape-to-store 1"));
        assert_eq!(agg.reason_totals()[&MaterializeReason::EscapeToStore], 1);
    }

    fn block(tag: &str, len: usize) -> Vec<TraceEvent> {
        (0..len)
            .map(|i| TraceEvent::Recompile {
                method: format!("{tag}.{i}"),
            })
            .collect()
    }

    #[test]
    fn sequenced_merge_releases_blocks_in_sequence_order() {
        let (shared, typed) = SharedSink::new(MemorySink::new());
        let merge = SequencedMerge::new(shared);
        merge.flush(2, block("c", 1));
        merge.flush(1, block("b", 2));
        assert_eq!(typed.lock().unwrap().events.len(), 0, "0 not yet flushed");
        assert_eq!(merge.pending(), 2);
        merge.flush(0, block("a", 1));
        assert_eq!(merge.pending(), 0);
        let expected: Vec<TraceEvent> = [block("a", 1), block("b", 2), block("c", 1)]
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(typed.lock().unwrap().events, expected);
    }

    #[test]
    fn sequenced_merge_loses_no_events_across_threads() {
        let (shared, typed) = SharedSink::new(MemorySink::new());
        let merge = SequencedMerge::new(shared);
        let blocks: Vec<Vec<TraceEvent>> = (0..16)
            .map(|seq| block(&format!("w{seq}"), seq % 4 + 1))
            .collect();
        std::thread::scope(|scope| {
            for (seq, events) in blocks.iter().enumerate() {
                let merge = &merge;
                let events = events.clone();
                scope.spawn(move || merge.flush(seq as u64, events));
            }
        });
        assert_eq!(merge.pending(), 0);
        let merged = typed.lock().unwrap().events.clone();
        let expected: Vec<TraceEvent> = blocks.into_iter().flatten().collect();
        assert_eq!(merged, expected, "blocks must come out whole and in order");
    }

    #[test]
    fn sequenced_merge_forwards_empty_blocks_to_unblock_successors() {
        let (shared, typed) = SharedSink::new(MemorySink::new());
        let merge = SequencedMerge::new(shared);
        merge.flush(1, block("b", 3));
        merge.flush(0, Vec::new());
        assert_eq!(merge.pending(), 0);
        assert_eq!(typed.lock().unwrap().events, block("b", 3));
    }
}
