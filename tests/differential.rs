//! Differential testing: randomly generated programs must behave
//! identically under every execution configuration — pure interpreter,
//! JIT without escape analysis, JIT with the EES baseline, JIT with
//! Partial Escape Analysis, and JIT with aggressive branch speculation
//! (which exercises deoptimization and rematerialization).
//!
//! "Behave identically" means: same return value or same error on every
//! call, same observable static variables afterwards (compared
//! structurally, since allocation identities legitimately differ), and
//! balanced monitors. Additionally, PEA must never allocate *more* than
//! the unoptimized configuration (§4: "there will always be at most as
//! many dynamic allocations as in the original code").

use pea::bytecode::{CmpOp, MethodBuilder, Program, ProgramBuilder, ValueKind};
use pea::runtime::{Value, VmError};
use pea::trace::{MemorySink, SharedSink, TraceEvent};
use pea::vm::{OptLevel, Vm, VmOptions};
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::Mutex;

/// Per-config result vector of a fuzz run (one entry per `iterate` call).
type ConfigOutcomes = Vec<(String, Vec<Result<Option<Value>, VmError>>)>;

/// A structured mini-AST lowered to verified bytecode, so every generated
/// program is executable (runtime errors like null dereferences are still
/// possible and must match across configurations).
#[derive(Clone, Debug)]
enum Expr {
    Const(i8),
    IntLocal(u8),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    GetField(u8, u8),
    GetStatic(u8),
}

#[derive(Clone, Debug)]
enum Stmt {
    AssignInt(u8, Expr),
    NewObj(u8),
    StoreField(u8, u8, Expr),
    PublishObj(u8),
    PutStaticInt(u8, Expr),
    If(Expr, CmpOp, Vec<Stmt>, Vec<Stmt>),
    Loop(u8, Vec<Stmt>),
    Sync(u8, Vec<Stmt>),
}

const INT_LOCALS: u16 = 3; // locals 0..3 (0 and 1 are parameters)
const OBJ_LOCALS: u16 = 2; // locals 3..5
const INT_STATICS: u8 = 2;
const FIELDS: u8 = 2;

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i8>().prop_map(Expr::Const),
        (0..INT_LOCALS as u8).prop_map(Expr::IntLocal),
        (0..OBJ_LOCALS as u8, 0..FIELDS).prop_map(|(o, f)| Expr::GetField(o, f)),
        (0..INT_STATICS).prop_map(Expr::GetStatic),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Div(a.into(), b.into())),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (0..INT_LOCALS as u8, expr_strategy()).prop_map(|(l, e)| Stmt::AssignInt(l, e)),
        (0..OBJ_LOCALS as u8).prop_map(Stmt::NewObj),
        (0..OBJ_LOCALS as u8, 0..FIELDS, expr_strategy())
            .prop_map(|(o, f, e)| Stmt::StoreField(o, f, e)),
        (0..OBJ_LOCALS as u8).prop_map(Stmt::PublishObj),
        (0..INT_STATICS, expr_strategy()).prop_map(|(s, e)| Stmt::PutStaticInt(s, e)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        let block = prop::collection::vec(inner.clone(), 0..4);
        prop_oneof![
            (
                expr_strategy(),
                prop_oneof![
                    Just(CmpOp::Eq),
                    Just(CmpOp::Ne),
                    Just(CmpOp::Lt),
                    Just(CmpOp::Ge)
                ],
                block.clone(),
                block.clone()
            )
                .prop_map(|(e, op, t, f)| Stmt::If(e, op, t, f)),
            (1..4u8, block.clone()).prop_map(|(n, b)| Stmt::Loop(n, b)),
            (0..OBJ_LOCALS as u8, block).prop_map(|(o, b)| Stmt::Sync(o, b)),
        ]
    })
}

struct Lowerer<'a> {
    mb: &'a mut MethodBuilder,
    class: pea::bytecode::ClassId,
    fields: Vec<pea::bytecode::FieldId>,
    statics: Vec<pea::bytecode::StaticId>,
    obj_static: pea::bytecode::StaticId,
    next_local: u16,
}

impl Lowerer<'_> {
    fn int_local(&self, l: u8) -> u16 {
        u16::from(l) % INT_LOCALS
    }

    fn obj_local(&self, l: u8) -> u16 {
        INT_LOCALS + u16::from(l) % OBJ_LOCALS
    }

    fn lower_expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(c) => {
                self.mb.const_(i64::from(*c));
            }
            Expr::IntLocal(l) => {
                self.mb.load(self.int_local(*l));
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                self.lower_expr(a);
                self.lower_expr(b);
                match e {
                    Expr::Add(..) => self.mb.add(),
                    Expr::Sub(..) => self.mb.sub(),
                    Expr::Mul(..) => self.mb.mul(),
                    _ => self.mb.div(),
                };
            }
            Expr::GetField(o, f) => {
                self.mb.load(self.obj_local(*o));
                self.mb
                    .get_field(self.fields[usize::from(*f) % self.fields.len()]);
            }
            Expr::GetStatic(s) => {
                self.mb
                    .get_static(self.statics[usize::from(*s) % self.statics.len()]);
            }
        }
    }

    fn lower_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::AssignInt(l, e) => {
                self.lower_expr(e);
                self.mb.store(self.int_local(*l));
            }
            Stmt::NewObj(o) => {
                self.mb.new_object(self.class);
                self.mb.store(self.obj_local(*o));
            }
            Stmt::StoreField(o, f, e) => {
                self.mb.load(self.obj_local(*o));
                self.lower_expr(e);
                self.mb
                    .put_field(self.fields[usize::from(*f) % self.fields.len()]);
            }
            Stmt::PublishObj(o) => {
                self.mb.load(self.obj_local(*o));
                self.mb.put_static(self.obj_static);
            }
            Stmt::PutStaticInt(st, e) => {
                self.lower_expr(e);
                self.mb
                    .put_static(self.statics[usize::from(*st) % self.statics.len()]);
            }
            Stmt::If(e, op, then_b, else_b) => {
                self.lower_expr(e);
                self.mb.const_(0);
                let lt = self.mb.new_label();
                let lend = self.mb.new_label();
                self.mb.if_cmp(*op, lt);
                self.lower_block(else_b);
                self.mb.goto(lend);
                self.mb.bind(lt);
                self.lower_block(then_b);
                self.mb.bind(lend);
            }
            Stmt::Loop(n, body) => {
                let counter = self.next_local;
                self.next_local += 1;
                self.mb.const_(0);
                self.mb.store(counter);
                let head = self.mb.new_label();
                let done = self.mb.new_label();
                self.mb.bind(head);
                self.mb.load(counter);
                self.mb.const_(i64::from(*n));
                self.mb.if_cmp(CmpOp::Ge, done);
                self.lower_block(body);
                self.mb.load(counter);
                self.mb.const_(1);
                self.mb.add();
                self.mb.store(counter);
                self.mb.goto(head);
                self.mb.bind(done);
            }
            Stmt::Sync(o, body) => {
                // Null check first so the monitorenter/monitorexit pair is
                // structurally balanced even for null objects (the error
                // then comes from monitorenter in both tiers).
                self.mb.load(self.obj_local(*o));
                self.mb.monitor_enter();
                self.lower_block(body);
                self.mb.load(self.obj_local(*o));
                self.mb.monitor_exit();
            }
        }
    }
}

fn build_program(body: &[Stmt]) -> Program {
    let mut pb = ProgramBuilder::new();
    let class = pb.add_class("Obj", None);
    let fields = vec![
        pb.add_field(class, "f0", ValueKind::Int),
        pb.add_field(class, "f1", ValueKind::Int),
    ];
    let statics = vec![
        pb.add_static("s0", ValueKind::Int),
        pb.add_static("s1", ValueKind::Int),
    ];
    let obj_static = pb.add_static("published", ValueKind::Ref);
    let mut mb = MethodBuilder::new_static("f", 2, true);
    mb.locals(INT_LOCALS + OBJ_LOCALS + 8);
    // Type discipline: int locals start at 0 (as javac would guarantee —
    // JVM bytecode never performs integer arithmetic on references, and
    // the compiler's early scheduler relies on that; see pea-ir docs).
    for l in 2..INT_LOCALS {
        mb.const_(0);
        mb.store(l);
    }
    {
        let mut lower = Lowerer {
            mb: &mut mb,
            class,
            fields,
            statics,
            obj_static,
            next_local: INT_LOCALS + OBJ_LOCALS,
        };
        lower.lower_block(body);
        // Return a digest of the int locals.
        lower.mb.load(0);
        lower.mb.load(1);
        lower.mb.add();
        lower.mb.load(2);
        lower.mb.add();
        lower.mb.return_value();
    }
    pb.add_method(mb.build().expect("generated method builds"));
    let program = pb.build().expect("program builds");
    pea::bytecode::verify_program(&program).expect("generated bytecode verifies");
    program
}

/// Observable end state: statics, with published objects compared by
/// field values (not identity — allocation order differs legitimately
/// between configurations).
fn observe(vm: &Vm) -> Vec<String> {
    let program = vm.program();
    let mut out = Vec::new();
    for i in 0..program.statics.len() {
        let id = pea::bytecode::StaticId::from_index(i);
        let v = vm.statics_ref().get(id);
        match v {
            Value::Int(x) => out.push(format!("s{i}={x}")),
            Value::Null => out.push(format!("s{i}=null")),
            Value::Ref(r) => {
                let class = vm.heap().class_of(r).expect("published object");
                let fields: Vec<String> = program
                    .instance_fields(class)
                    .iter()
                    .map(
                        |&f| match vm.heap().get_field(program, r, f).expect("field") {
                            Value::Int(x) => x.to_string(),
                            Value::Null => "null".into(),
                            Value::Ref(_) => "ref".into(),
                        },
                    )
                    .collect();
                out.push(format!("s{i}=obj[{}]", fields.join(",")));
            }
        }
    }
    // Monitor holds are compared only on *reachable* objects: an error
    // raised while a lock-elided virtual object was "locked" leaves the
    // interpreter holding a monitor on a garbage object, which no program
    // can observe (and which compiled code correctly never allocated).
    let mut reachable_locks = 0u64;
    let mut work: Vec<pea::runtime::ObjRef> = (0..program.statics.len())
        .filter_map(
            |i| match vm.statics_ref().get(pea::bytecode::StaticId::from_index(i)) {
                Value::Ref(r) => Some(r),
                _ => None,
            },
        )
        .collect();
    let mut seen = std::collections::HashSet::new();
    while let Some(r) = work.pop() {
        if !seen.insert(r) {
            continue;
        }
        reachable_locks += u64::from(vm.heap().lock_count(r).expect("reachable object"));
        if let Ok(class) = vm.heap().class_of(r) {
            for &f in program.instance_fields(class) {
                if let Ok(Value::Ref(child)) = vm.heap().get_field(program, r, f) {
                    work.push(child);
                }
            }
        }
    }
    out.push(format!("reachable-locks={reachable_locks}"));
    out
}

fn configs() -> Vec<(&'static str, VmOptions)> {
    let mut spec_opts = VmOptions::with_opt_level(OptLevel::Pea);
    spec_opts.compile_threshold = 3;
    spec_opts.compiler.build.branch_threshold = 4;
    spec_opts.compiler.build.devirtualize_threshold = 4;
    let low = |level: OptLevel| {
        let mut o = VmOptions::with_opt_level(level);
        o.compile_threshold = 3;
        o
    };
    // The default exec mode is the linear register machine; "jit-graph"
    // pins the graph-walking oracle so the proptest cross-checks the two
    // tiers on every generated program.
    let mut graph_opts = low(OptLevel::Pea);
    graph_opts.exec_mode = pea::vm::ExecMode::Graph;
    vec![
        ("interp", VmOptions::interpreter_only()),
        ("jit-none", low(OptLevel::None)),
        ("jit-ees", low(OptLevel::Ees)),
        ("jit-pea", low(OptLevel::Pea)),
        ("jit-graph", graph_opts),
        ("jit-pea-speculative", spec_opts),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn all_configurations_agree(body in prop::collection::vec(stmt_strategy(), 1..8),
                                a in -4i64..4, b in -4i64..4) {
        let program = build_program(&body);
        type Outcome = (String, Vec<Result<Option<Value>, VmError>>, Vec<String>);
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut alloc_counts: Vec<(String, u64)> = Vec::new();
        for (name, options) in configs() {
            let mut vm = Vm::new(program.clone(), options);
            let mut results = Vec::new();
            for round in 0..10i64 {
                results.push(vm.call_entry("f", &[Value::Int(a + round), Value::Int(b)]));
            }
            let end_state = observe(&vm);
            alloc_counts.push((name.to_string(), vm.stats().alloc_count));
            outcomes.push((name.to_string(), results, end_state));
        }
        let (ref_name, ref_results, ref_state) = &outcomes[0];
        for (name, results, state) in &outcomes[1..] {
            prop_assert_eq!(
                results, ref_results,
                "{} disagrees with {} on results", name, ref_name
            );
            prop_assert_eq!(
                state, ref_state,
                "{} disagrees with {} on end state", name, ref_name
            );
        }
        // PEA never allocates more than the unoptimized JIT ("at most as
        // many dynamic allocations as in the original code", §4) — as
        // long as no deopt rematerialized (rematerialization may
        // legitimately duplicate an allocation the interpreter performed
        // once).
        let none = alloc_counts.iter().find(|(n, _)| n == "jit-none").unwrap().1;
        let pea = alloc_counts.iter().find(|(n, _)| n == "jit-pea").unwrap().1;
        prop_assert!(
            pea <= none,
            "PEA allocated more than baseline: {} > {}",
            pea,
            none
        );
    }
}

#[test]
fn fixed_regression_cases() {
    // Hand-picked shapes that stress the analysis: publish-in-branch,
    // sync on maybe-null, loop-carried object state.
    use Stmt::*;
    let cases: Vec<Vec<Stmt>> = vec![
        vec![
            NewObj(0),
            StoreField(0, 0, Expr::IntLocal(0)),
            If(
                Expr::IntLocal(1),
                CmpOp::Lt,
                vec![PublishObj(0)],
                vec![AssignInt(2, Expr::GetField(0, 0))],
            ),
        ],
        vec![
            NewObj(0),
            Sync(0, vec![StoreField(0, 1, Expr::Const(5))]),
            AssignInt(0, Expr::GetField(0, 1)),
        ],
        vec![
            NewObj(1),
            Loop(
                3,
                vec![StoreField(
                    1,
                    0,
                    Expr::Add(Box::new(Expr::GetField(1, 0)), Box::new(Expr::IntLocal(0))),
                )],
            ),
            AssignInt(2, Expr::GetField(1, 0)),
        ],
        // Sync on a null object local: error must match everywhere.
        vec![Sync(0, vec![AssignInt(0, Expr::Const(1))])],
        // Field access on null.
        vec![AssignInt(0, Expr::GetField(0, 0))],
        // Division by a value that can be zero.
        vec![AssignInt(
            0,
            Expr::Div(Box::new(Expr::IntLocal(0)), Box::new(Expr::IntLocal(1))),
        )],
        // Publish inside the critical section of an elided lock, in
        // compiled code: the commit must re-enter the monitor, or the
        // monitorexit that follows raises.
        vec![
            NewObj(0),
            Sync(
                0,
                vec![If(
                    Expr::Sub(Box::new(Expr::IntLocal(0)), Box::new(Expr::Const(4))),
                    CmpOp::Gt,
                    vec![PublishObj(0)],
                    vec![],
                )],
            ),
            AssignInt(2, Expr::GetField(0, 0)),
        ],
    ];
    for body in cases {
        let program = build_program(&body);
        let mut reference: Option<Vec<Result<Option<Value>, VmError>>> = None;
        for (name, options) in configs() {
            let mut vm = Vm::new(program.clone(), options);
            let mut results = Vec::new();
            for round in 0..10i64 {
                results.push(vm.call_entry("f", &[Value::Int(round - 2), Value::Int(2)]));
            }
            match &reference {
                None => reference = Some(results),
                Some(r) => assert_eq!(&results, r, "{name} disagrees on {body:?}"),
            }
        }
    }
}

// ---- Trace-derived invariants -----------------------------------------
//
// The decision trace is a *claim* about what the compiled code does; these
// tests check the claims against the runtime counters the heap keeps
// independently.

fn traced_vm(program: &Program, mut options: VmOptions) -> (Vm, Arc<Mutex<MemorySink>>) {
    let (sink, mem) = SharedSink::new(MemorySink::new());
    options.trace = Some(sink);
    (Vm::new(program.clone(), options), mem)
}

fn speculative_pea_options() -> VmOptions {
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.compile_threshold = 3;
    options.compiler.build.branch_threshold = 4;
    options.compiler.build.devirtualize_threshold = 4;
    options
}

fn count_events(mem: &Arc<Mutex<MemorySink>>, pred: impl Fn(&TraceEvent) -> bool) -> usize {
    mem.lock()
        .unwrap()
        .events
        .iter()
        .filter(|e| pred(e))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn trace_invariants_hold(body in prop::collection::vec(stmt_strategy(), 1..8),
                             a in -4i64..4, b in -4i64..4) {
        let program = build_program(&body);
        let (mut vm, mem) = traced_vm(&program, speculative_pea_options());
        for round in 0..10i64 {
            let _ = vm.call_entry("f", &[Value::Int(a + round), Value::Int(b)]);
        }

        // Every deoptimization's rematerialization inventory must account
        // for exactly the objects the heap says were rematerialized.
        let remat_logged: u64 = mem
            .lock().unwrap()
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Deopt { rematerialized, .. } => rematerialized.len() as u64,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(
            remat_logged,
            vm.stats().rematerialized,
            "deopt inventories disagree with Stats::rematerialized"
        );

        // Only virtualized sites can materialize.
        let mat_sites: std::collections::HashSet<u32> = mem
            .lock().unwrap()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Materialized { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        let virt_sites: std::collections::HashSet<u32> = mem
            .lock().unwrap()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Virtualized { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        prop_assert!(
            mat_sites.is_subset(&virt_sites),
            "materialized a site that was never virtualized: {:?} vs {:?}",
            mat_sites, virt_sites
        );

        // Steady-state window: once speculation has settled (no deopt, no
        // recompilation during the window, and every compile in the log
        // succeeded), the trace's materialization events are the *only*
        // way compiled code can allocate — so zero events means zero
        // allocations, and the allocations that do happen stay within the
        // unoptimized run of the same window (§4: "at most as many dynamic
        // allocations as in the original code").
        let events_before = mem.lock().unwrap().events.len();
        let before = vm.stats();
        const WINDOW: i64 = 4;
        for round in 0..WINDOW {
            let _ = vm.call_entry("f", &[Value::Int(a + round), Value::Int(b)]);
        }
        let d = vm.stats().delta(&before);
        let window_quiet = {
            let log = mem.lock().unwrap();
            !log.events[events_before..].iter().any(|e| {
                matches!(
                    e,
                    TraceEvent::CompileStart { .. }
                        | TraceEvent::Deopt { .. }
                        | TraceEvent::Evict { .. }
                )
            })
        };
        let all_compiles_succeeded = count_events(&mem, |e| {
            matches!(e, TraceEvent::CompileStart { .. })
        }) == count_events(&mem, |e| matches!(e, TraceEvent::CompileEnd { .. }));
        if window_quiet && all_compiles_succeeded && vm.compiled_method_count() >= 1 {
            let mat_events =
                count_events(&mem, |e| matches!(e, TraceEvent::Materialized { .. })) as u64;
            if mat_events == 0 {
                prop_assert_eq!(
                    d.alloc_count, 0,
                    "compiled code allocated without any materialization event"
                );
            }
            // Mirror of the same window under the unoptimized JIT.
            let mut none = Vm::new(
                program.clone(),
                {
                    let mut o = VmOptions::with_opt_level(OptLevel::None);
                    o.compile_threshold = 3;
                    o
                },
            );
            for round in 0..10i64 {
                let _ = none.call_entry("f", &[Value::Int(a + round), Value::Int(b)]);
            }
            let none_before = none.stats();
            for round in 0..WINDOW {
                let _ = none.call_entry("f", &[Value::Int(a + round), Value::Int(b)]);
            }
            let none_d = none.stats().delta(&none_before);
            prop_assert!(
                d.alloc_count <= none_d.alloc_count,
                "materializations allocated {} objects but the unoptimized \
                 code only allocates {} in the same window",
                d.alloc_count, none_d.alloc_count
            );
        }
    }
}

/// Lock-elision invariant: when the trace claims a site's monitors were
/// elided and the site never materializes, the runtime must observe *zero*
/// real monitor operations — the elided locks cannot coincide with real
/// acquisitions on the same site.
#[test]
fn elided_locks_never_acquired_at_runtime() {
    use Stmt::*;
    let body = vec![
        NewObj(0),
        Sync(0, vec![StoreField(0, 1, Expr::Const(5))]),
        AssignInt(0, Expr::GetField(0, 1)),
    ];
    let program = build_program(&body);

    // Reference: the interpreter really does lock.
    let mut interp = Vm::new(program.clone(), VmOptions::interpreter_only());
    let before = interp.stats();
    interp
        .call_entry("f", &[Value::Int(1), Value::Int(2)])
        .expect("interp");
    assert!(
        interp.stats().delta(&before).monitor_ops() > 0,
        "fixture must actually synchronize"
    );

    // Traced PEA: warm up past the compile threshold, then measure.
    let (mut vm, mem) = traced_vm(&program, speculative_pea_options());
    for round in 0..10i64 {
        vm.call_entry("f", &[Value::Int(round), Value::Int(2)])
            .expect("warmup");
    }
    let elided: Vec<u32> = mem
        .lock()
        .unwrap()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LockElided { site, .. } => Some(*site),
            _ => None,
        })
        .collect();
    assert!(!elided.is_empty(), "the synchronized block must be elided");
    for site in &elided {
        assert_eq!(
            count_events(&mem, |e| matches!(
                e,
                TraceEvent::Materialized { site: s, .. } if s == site
            )),
            0,
            "site n{site} with elided locks must not materialize here"
        );
    }
    let before = vm.stats();
    for round in 0..4i64 {
        vm.call_entry("f", &[Value::Int(round), Value::Int(2)])
            .expect("steady state");
    }
    let d = vm.stats().delta(&before);
    assert_eq!(d.deopts, 0, "window must be deopt-free");
    assert_eq!(
        d.monitor_ops(),
        0,
        "elided-lock sites must never reach the runtime monitor"
    );
}

// ---- Exceptions and guarded virtual dispatch --------------------------
//
// The seeded generator in `pea::workloads::gen` produces programs built
// around the two new materialization points: exception edges (athrow,
// try/catch/finally, nested handlers) and speculated virtual dispatch
// (1–4 receiver classes per call site, so class-rotation defeats the
// speculation and forces guard-failure deopts).

fn exception_configs() -> Vec<(&'static str, VmOptions)> {
    let low = |level: OptLevel| {
        let mut o = VmOptions::with_opt_level(level);
        o.compile_threshold = 3;
        o
    };
    let mut exc_bg = low(OptLevel::Pea);
    exc_bg.jit_mode = pea::vm::JitMode::Background;
    exc_bg.compile_workers = Some(1);
    let mut virt = low(OptLevel::Pea);
    virt.compiler.build.branch_threshold = 4;
    virt.compiler.build.devirtualize_threshold = 4;
    let mut virt_bg = low(OptLevel::Pea);
    virt_bg.compiler.build.branch_threshold = 4;
    virt_bg.compiler.build.devirtualize_threshold = 4;
    virt_bg.jit_mode = pea::vm::JitMode::Background;
    virt_bg.compile_workers = Some(1);
    // The graph-walking oracle, so the agreement assertions
    // differential-test the linear tier (every other config) against it
    // on the exception/dispatch generator too.
    let mut graph = low(OptLevel::Pea);
    graph.exec_mode = pea::vm::ExecMode::Graph;
    vec![
        ("interp", VmOptions::interpreter_only()),
        ("jit-exceptions", low(OptLevel::Pea)),
        ("jit-exceptions-bg", exc_bg),
        ("jit-virtual", virt),
        ("jit-virtual-bg", virt_bg),
        ("jit-graph", graph),
    ]
}

/// Generator-driven fuzz: interpreter and every JIT configuration agree
/// call-for-call on generated exception/dispatch programs, and in a
/// deopt-free steady-state window the JIT never allocates more than the
/// interpreter (materialize-at-throw still beats allocate-up-front).
#[test]
fn generated_exception_programs_agree_across_tiers() {
    for seed in 0..12u64 {
        let src = pea::workloads::gen::generate(seed);
        let program = pea::bytecode::asm::parse_program(&src).expect("generated program parses");
        pea::bytecode::verify_program(&program).expect("generated program verifies");
        let mut outcomes: ConfigOutcomes = Vec::new();
        let mut windows: Vec<(String, u64, u64)> = Vec::new();
        for (name, options) in exception_configs() {
            let mut vm = Vm::new(program.clone(), options);
            let mut results = Vec::new();
            for i in 0..16i64 {
                results.push(vm.call_entry("iterate", &[Value::Int(i)]));
            }
            // Steady-state allocation window (delta over 6 more calls);
            // only comparable if the window itself saw no deopt, since
            // rematerialization legitimately duplicates allocations.
            let before = vm.stats();
            for i in 0..6i64 {
                results.push(vm.call_entry("iterate", &[Value::Int(i)]));
            }
            let d = vm.stats().delta(&before);
            windows.push((name.to_string(), d.alloc_count, d.deopts));
            outcomes.push((name.to_string(), results));
        }
        let (ref_name, ref_results) = &outcomes[0];
        for (name, results) in &outcomes[1..] {
            assert_eq!(
                results, ref_results,
                "seed {seed}: {name} disagrees with {ref_name}"
            );
        }
        let interp_window = windows[0].1;
        for (name, allocs, deopts) in &windows[1..] {
            if *deopts == 0 {
                assert!(
                    *allocs <= interp_window,
                    "seed {seed}: {name} allocated {allocs} in a deopt-free window, \
                     interpreter allocated {interp_window}"
                );
            }
        }
    }
}

/// Thrown-exception identity: an exception escaping `iterate` must carry
/// the same structural identity (class name + int fields in declaration
/// order) in every tier — scalar replacement elides the allocation until
/// the throw, but the materialized object must be indistinguishable.
#[test]
fn uncaught_exception_identity_matches_across_tiers() {
    let src = "
        class Boom { field code int field aux int }
        method inner 1 returns {
            load 0 const 7 rem const 0 ifcmp ne Lok
            new Boom store 1
            load 1 load 0 const 100 add putfield Boom.code
            load 1 const 41 putfield Boom.aux
            load 1 athrow
        Lok:
            load 0 const 3 mul retv
        }
        method iterate 1 returns {
            load 0 invokestatic inner retv
        }";
    let program = pea::bytecode::asm::parse_program(src).expect("fixture parses");
    pea::bytecode::verify_program(&program).expect("fixture verifies");
    let mut reference: Option<Vec<Result<Option<Value>, VmError>>> = None;
    for (name, options) in exception_configs() {
        let mut vm = Vm::new(program.clone(), options);
        let mut results = Vec::new();
        for i in 0..15i64 {
            results.push(vm.call_entry("iterate", &[Value::Int(i)]));
        }
        // The i % 7 == 0 calls must fail with the exact structural
        // identity; everything else succeeds.
        for (i, r) in results.iter().enumerate() {
            if i % 7 == 0 {
                assert_eq!(
                    r,
                    &Err(VmError::UncaughtException {
                        class: "Boom".into(),
                        fields: vec![i as i64 + 100, 41],
                    }),
                    "{name}: wrong identity for iterate({i})"
                );
            } else {
                assert_eq!(
                    r,
                    &Ok(Some(Value::Int(i as i64 * 3))),
                    "{name}: wrong result for iterate({i})"
                );
            }
        }
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(&results, r, "{name} disagrees on exception identity"),
        }
    }
}

/// The syntactic immediate-site set stays a subset of the interprocedural
/// exclusions on every generated program — including sites published
/// through an exception edge (`new ... athrow`), which both layers must
/// now treat exactly like `new ... putstatic`.
#[test]
fn pre_exclusions_subset_of_ipa_on_generated_programs() {
    use pea::analysis::{immediate_global_sites, ProgramSummaries};
    for seed in 0..24u64 {
        let src = pea::workloads::gen::generate(seed);
        let program = pea::bytecode::asm::parse_program(&src).expect("parses");
        pea::bytecode::verify_program(&program).expect("verifies");
        let summaries = ProgramSummaries::compute(&program);
        for index in 0..program.methods.len() {
            let id = pea::bytecode::MethodId::from_index(index);
            let immediate = immediate_global_sites(program.method(id));
            let excluded = summaries.excluded_sites(&program, id);
            assert!(
                immediate.iter().all(|bci| excluded.contains(bci)),
                "seed {seed}, method {index}: pre {immediate:?} ⊄ ipa {excluded:?}"
            );
        }
    }
    // And the throw-publishing shape specifically: `new Err athrow` must
    // appear in both the syntactic and the interprocedural exclusion set.
    let src = "
        class Err { field code int }
        method m 1 {
            load 0 const 0 ifcmp eq Ldone
            new Err athrow
        Ldone:
            ret
        }";
    let program = pea::bytecode::asm::parse_program(src).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    let id = program.static_method_by_name("m").unwrap();
    let immediate = immediate_global_sites(program.method(id));
    let excluded = ProgramSummaries::compute(&program).excluded_sites(&program, id);
    assert_eq!(immediate.len(), 1, "new-then-athrow is an immediate site");
    assert!(excluded.contains(&immediate[0]));
}

// ---- Linear tier vs. graph-walking oracle ------------------------------
//
// The linear register-machine tier must be observationally *identical* to
// graph-walking evaluation: same result vectors (including thrown-exception
// identity), same virtual-cycle counts, and the same decision/deopt trace
// (wall-clock compile timings excluded — they are the only legitimately
// nondeterministic payload).

/// Clears the wall-clock phase timings, the only CompileEnd payload that
/// legitimately differs between two runs of the same compilation.
fn normalize_trace(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .cloned()
        .map(|e| match e {
            TraceEvent::CompileEnd {
                method, code_size, ..
            } => TraceEvent::CompileEnd {
                method,
                code_size,
                phases: pea::trace::PhaseMicros::default(),
            },
            e => e,
        })
        .collect()
}

/// Runs `iterate(0..iters)` under both exec modes and asserts byte-equal
/// results; in Sync mode also byte-equal cycle counts and traces (install
/// timing makes those legitimately racy under a background worker).
fn assert_linear_graph_agree(label: &str, program: &Program, iters: i64) {
    type Run = (Vec<Result<Option<Value>, VmError>>, u64, Vec<TraceEvent>);
    for mode in [pea::vm::JitMode::Sync, pea::vm::JitMode::Background] {
        let mut runs: Vec<Run> = Vec::new();
        for exec in [pea::vm::ExecMode::Linear, pea::vm::ExecMode::Graph] {
            let mut options = VmOptions::with_opt_level(OptLevel::Pea);
            options.compile_threshold = 3;
            options.jit_mode = mode;
            options.compile_workers = Some(1);
            options.exec_mode = exec;
            let (sink, mem) = SharedSink::new(MemorySink::new());
            options.trace = Some(sink);
            let mut vm = Vm::new(program.clone(), options);
            let mut results = Vec::new();
            for i in 0..iters {
                results.push(vm.call_entry("iterate", &[Value::Int(i)]));
            }
            vm.await_background_compiles();
            let trace = normalize_trace(&mem.lock().unwrap().events);
            runs.push((results, vm.stats().cycles, trace));
        }
        let (linear_results, linear_cycles, linear_trace) = &runs[0];
        let (graph_results, graph_cycles, graph_trace) = &runs[1];
        assert_eq!(
            linear_results, graph_results,
            "{label} ({mode:?}): linear and graph tiers disagree on results"
        );
        if mode == pea::vm::JitMode::Sync {
            assert_eq!(
                linear_cycles, graph_cycles,
                "{label}: linear and graph tiers disagree on cycle counts"
            );
            assert_eq!(
                linear_trace, graph_trace,
                "{label}: linear and graph tiers disagree on the decision trace"
            );
        }
    }
    // Pure compiled-code parity: with every method compiled at its first
    // call (threshold 0), the cycle accounting must agree byte-for-byte
    // even though every single call runs on the tier under test.
    let mut cycles = Vec::new();
    for exec in [pea::vm::ExecMode::Linear, pea::vm::ExecMode::Graph] {
        let mut options = VmOptions::with_opt_level(OptLevel::Pea);
        options.compile_threshold = 0;
        options.exec_mode = exec;
        let mut vm = Vm::new(program.clone(), options);
        for i in 0..iters {
            let _ = vm.call_entry("iterate", &[Value::Int(i)]);
        }
        cycles.push(vm.stats().cycles);
    }
    assert_eq!(
        cycles[0], cycles[1],
        "{label}: compiled-at-first-call cycle counts differ between linear and graph"
    );
}

/// The whole workload corpus agrees between the linear tier and the
/// graph-walking oracle, in both JIT modes.
#[test]
fn linear_tier_agrees_with_graph_oracle_on_corpus() {
    for w in pea::workloads::all_workloads() {
        assert_linear_graph_agree(&w.name, &w.program, 20);
    }
}

/// Fuzzed exception/dispatch programs (seeds 0..64) agree between the
/// linear tier and the graph-walking oracle.
#[test]
fn linear_tier_agrees_with_graph_oracle_on_fuzz_seeds() {
    for seed in 0..64u64 {
        let src = pea::workloads::gen::generate(seed);
        let program = pea::bytecode::asm::parse_program(&src).expect("generated program parses");
        pea::bytecode::verify_program(&program).expect("generated program verifies");
        assert_linear_graph_agree(&format!("seed {seed}"), &program, 12);
    }
}

/// Lowering is total on everything the suite can generate: compiling every
/// method of the corpus and of the fuzz seeds from warmed profiles never
/// ends in a `lowering:` bailout. The product has no second executor to
/// fall back to, so such a method would quietly stay interpreted.
#[test]
fn lowering_is_total_on_corpus_and_fuzz_seeds() {
    use pea::compiler::{compile, Bailout, CompilerOptions};
    let corpus = pea::workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name, w.program));
    let fuzz = (0..64u64).map(|seed| {
        let src = pea::workloads::gen::generate(seed);
        let program = pea::bytecode::asm::parse_program(&src).expect("generated program parses");
        (format!("seed {seed}"), program)
    });
    let options = CompilerOptions::default();
    for (label, program) in corpus.chain(fuzz) {
        let mut vm = Vm::new(program.clone(), VmOptions::interpreter_only());
        for i in 0..12i64 {
            let _ = vm.call_entry("iterate", &[Value::Int(i)]);
        }
        for index in 0..program.methods.len() {
            let method = pea::bytecode::MethodId::from_index(index);
            match compile(&program, method, Some(vm.profiles()), &options) {
                Ok(code) => assert!(
                    code.linear.is_some(),
                    "{label}, method {index}: compiled without a linear artifact"
                ),
                Err(Bailout::Unsupported(why)) => assert!(
                    !why.starts_with("lowering:"),
                    "{label}, method {index}: {why}"
                ),
                Err(_) => {}
            }
        }
    }
}

/// Observability must be free: attaching a trace sink changes neither the
/// results nor any runtime counter (the virtual-cycle cost model included),
/// and a VM with tracing compiled in but disabled behaves identically.
#[test]
fn tracing_does_not_perturb_execution() {
    use Stmt::*;
    let bodies: Vec<Vec<Stmt>> = vec![
        vec![
            NewObj(0),
            StoreField(0, 0, Expr::IntLocal(0)),
            If(
                Expr::IntLocal(1),
                CmpOp::Lt,
                vec![PublishObj(0)],
                vec![AssignInt(2, Expr::GetField(0, 0))],
            ),
        ],
        vec![
            NewObj(1),
            Sync(1, vec![StoreField(1, 0, Expr::IntLocal(0))]),
            Loop(3, vec![AssignInt(2, Expr::GetField(1, 0))]),
        ],
    ];
    for body in bodies {
        let program = build_program(&body);
        let mut plain = Vm::new(program.clone(), speculative_pea_options());
        let (mut traced, _mem) = traced_vm(&program, speculative_pea_options());
        for round in 0..12i64 {
            let args = [Value::Int(round - 2), Value::Int(2)];
            let a = plain.call_entry("f", &args);
            let b = traced.call_entry("f", &args);
            assert_eq!(a, b, "tracing changed a result on {body:?}");
        }
        let (p, t) = (plain.stats(), traced.stats());
        assert_eq!(p.cycles, t.cycles, "tracing changed the cycle count");
        assert_eq!(p.alloc_count, t.alloc_count);
        assert_eq!(p.alloc_bytes, t.alloc_bytes);
        assert_eq!(p.deopts, t.deopts);
        assert_eq!(p.rematerialized, t.rematerialized);
        assert_eq!(p.compiles, t.compiles);
        assert_eq!(
            plain.compiled_method_count(),
            traced.compiled_method_count()
        );
    }
}
