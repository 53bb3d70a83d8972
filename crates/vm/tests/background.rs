//! Mode-equivalence tests: the background compile service must be
//! observationally equivalent to synchronous compilation — identical
//! program results, identical steady-state statistics, and byte-identical
//! compiled artifacts per method (the artifact is a deterministic function
//! of the profile snapshot taken when the method crosses the threshold,
//! which is the same moment in both modes).

use pea_runtime::Value;
use pea_vm::{JitMode, OptLevel, Vm, VmOptions};
use pea_workloads::{all_workloads, Pattern, Suite, Workload, WorkloadSpec};
use proptest::prelude::*;

fn sync_options() -> VmOptions {
    VmOptions::with_opt_level(OptLevel::Pea)
}

fn background_options(workers: usize) -> VmOptions {
    VmOptions {
        jit_mode: JitMode::Background,
        compile_workers: Some(workers),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    }
}

/// Runs `iters` calls of `iterate(i)` in both modes, asserting identical
/// per-iteration results throughout (including the warmup phase, where
/// background mode is still interpreting methods sync mode has already
/// compiled).
fn assert_equivalent(workload: &Workload, iters: u64, workers: usize) {
    let mut sync_vm = Vm::new(workload.program.clone(), sync_options());
    let mut bg_vm = Vm::new(workload.program.clone(), background_options(workers));
    for i in 0..iters {
        let s = sync_vm
            .call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap_or_else(|e| panic!("{} sync iteration {i}: {e}", workload.name));
        let b = bg_vm
            .call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap_or_else(|e| panic!("{} background iteration {i}: {e}", workload.name));
        assert_eq!(s, b, "{} diverged at iteration {i}", workload.name);
    }
    // Let the queue settle. Background may compile a *superset* of sync's
    // methods: while a caller's compilation is in flight it keeps being
    // interpreted, so callees sync-mode inlines away (freezing their
    // counts below threshold) still cross it. Every sync-compiled method
    // must be background-compiled though, and those extra compiled callees
    // are exactly the ones the compiled caller no longer invokes — they
    // cannot affect the steady state.
    bg_vm.await_background_compiles();
    let sync_methods = sync_vm.compiled_methods();
    let bg_methods = bg_vm.compiled_methods();
    for m in &sync_methods {
        assert!(
            bg_methods.contains(m),
            "{}: {m:?} compiled in sync mode but not in background mode",
            workload.name
        );
    }

    // Steady state: settle both VMs (sync may still compile previously
    // interpreted callees during these iterations), then a fresh batch of
    // iterations must produce identical statistics deltas (cycles,
    // allocations, monitor operations, deopts, compiles).
    for i in iters..iters + 30 {
        sync_vm
            .call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap();
        bg_vm
            .call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap();
    }
    bg_vm.await_background_compiles();
    let sync_before = sync_vm.stats();
    let bg_before = bg_vm.stats();
    for i in iters + 30..iters + 80 {
        let s = sync_vm
            .call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap();
        let b = bg_vm
            .call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap();
        assert_eq!(
            s, b,
            "{} diverged at steady-state iteration {i}",
            workload.name
        );
    }
    let sync_delta = sync_vm.stats().delta(&sync_before);
    let bg_delta = bg_vm.stats().delta(&bg_before);
    assert_eq!(
        sync_delta, bg_delta,
        "{}: steady-state stats differ",
        workload.name
    );

    // Artifact equality: every method compiled in both modes must have a
    // byte-identical graph and schedule (compilation is a deterministic
    // function of the profile snapshot, which is taken at the same
    // threshold crossing in both modes).
    for method in sync_methods {
        let s = sync_vm.compiled(method).expect("in sync cache");
        let b = bg_vm.compiled(method).expect("in background cache");
        assert_eq!(
            pea_ir::dump::dump(&s.graph),
            pea_ir::dump::dump(&b.graph),
            "{}: graph for {:?} differs across modes",
            workload.name,
            method
        );
        assert_eq!(
            format!("{:?}", s.schedule),
            format!("{:?}", b.schedule),
            "{}: schedule for {:?} differs across modes",
            workload.name,
            method
        );
        assert_eq!(s.code_size, b.code_size);
    }
}

#[test]
fn corpus_workloads_equivalent_across_modes() {
    // A cross-section of the corpus: allocation-heavy, lock-heavy,
    // escape-heavy and branchy kernels.
    let names = ["fop", "luindex", "pmd", "specjbb2005"];
    for w in all_workloads()
        .iter()
        .filter(|w| names.contains(&w.name.as_str()))
    {
        assert_equivalent(w, 120, 2);
    }
}

#[test]
fn single_worker_equivalent() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "avrora")
        .unwrap();
    assert_equivalent(&w, 120, 1);
}

#[test]
fn background_compiles_eventually_install() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "fop")
        .unwrap();
    let mut vm = Vm::new(w.program.clone(), background_options(2));
    for i in 0..200 {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    let installed = vm.await_background_compiles();
    assert!(installed > 0, "no methods were installed");
    assert!(vm.stats().compiles as usize >= installed);
}

#[test]
fn compiled_only_loop_drains_background_installs_at_backedge_safepoints() {
    // A hot caller whose callee is inlined becomes a compiled-only loop:
    // once it is running, no interpreter safepoint and no method-entry
    // drain is ever reached again until it returns. Finished background
    // compilations must still install *during* such a phase, via the
    // evaluator's loop back-edge safepoint polls.
    let src = "method helper 1 returns { load 0 const 3 mul retv }
         method cold 1 returns { load 0 const 7 add retv }
         method hotloop 1 returns {
            const 0 store 1
            const 0 store 2
         Lhead:
            load 2 load 0 ifcmp ge Ldone
            load 2 invokestatic helper load 1 add store 1
            load 2 const 1 add store 2
            goto Lhead
         Ldone:
            load 1 retv
         }";
    let program = pea_bytecode::asm::parse_program(src).unwrap();
    let cold = program.static_method_by_name("cold").unwrap();
    let options = VmOptions {
        jit_mode: JitMode::Background,
        compile_workers: Some(1),
        compile_threshold: 10,
        metrics: pea_vm::MetricsHub::enabled(),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    };
    let mut vm = Vm::new(program, options);

    // Compile the loop itself (helper is inlined into it).
    let hotloop = vm.program().static_method_by_name("hotloop").unwrap();
    for _ in 0..20 {
        vm.call_entry("hotloop", &[Value::Int(4)]).unwrap();
    }
    vm.await_background_compiles();
    assert!(
        vm.compiled(hotloop).is_some(),
        "hotloop must be compiled before the compiled-only phase"
    );
    let polls_before = vm
        .metrics()
        .on()
        .map(|m| m.vm.safepoint_polls.get())
        .unwrap();

    // Make `cold` cross the threshold — its final call enqueues the
    // background request — then immediately enter a long compiled-only
    // loop. The install may only happen at a back-edge safepoint inside
    // that call (or, if the worker wins the race to the call, at its
    // entry drain); either way no further drain opportunity exists after
    // the loop returns.
    // One call past the threshold: the request is issued by the call that
    // *observes* the crossed count.
    for i in 0..11 {
        vm.call_entry("cold", &[Value::Int(i)]).unwrap();
    }
    let mut attempts = 0;
    while vm.compiled(cold).is_none() {
        attempts += 1;
        assert!(
            attempts <= 10,
            "background install starved through {attempts} compiled-only loops"
        );
        vm.call_entry("hotloop", &[Value::Int(300_000)]).unwrap();
    }
    let polls_after = vm
        .metrics()
        .on()
        .map(|m| m.vm.safepoint_polls.get())
        .unwrap();
    assert!(
        polls_after > polls_before,
        "compiled loop issued no back-edge safepoint polls"
    );
}

/// N-thread install starvation: several mutators spend their time in
/// compiled-only loops while each also has a background compilation in
/// flight. Every thread's pending install must land at one of *its own*
/// back-edge safepoints — no thread may starve another's installs.
#[test]
fn n_threads_in_compiled_loops_never_starve_background_installs() {
    let src = "method helper 1 returns { load 0 const 3 mul retv }
         method cold 1 returns { load 0 const 7 add retv }
         method hotloop 1 returns {
            const 0 store 1
            const 0 store 2
         Lhead:
            load 2 load 0 ifcmp ge Ldone
            load 2 invokestatic helper load 1 add store 1
            load 2 const 1 add store 2
            goto Lhead
         Ldone:
            load 1 retv
         }";
    let program = pea_bytecode::asm::parse_program(src).unwrap();
    let options = VmOptions {
        jit_mode: JitMode::Background,
        compile_workers: Some(2),
        compile_threshold: 10,
        metrics: pea_vm::MetricsHub::enabled(),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    };
    let vm = Vm::new(program, options);
    let polls = vm
        .run_threads(4, |t, m| {
            let cold = m.program().static_method_by_name("cold").unwrap();
            let hotloop = m.program().static_method_by_name("hotloop").unwrap();
            // Each mutator warms the loop against its own profile timeline.
            for _ in 0..20 {
                m.call_entry("hotloop", &[Value::Int(4)]).unwrap();
            }
            m.await_background_compiles();
            assert!(
                m.compiled(hotloop).is_some(),
                "thread {t}: hotloop must be compiled before the compiled-only phase"
            );
            let polls_before = m
                .metrics()
                .on()
                .map(|metrics| metrics.vm.safepoint_polls.get())
                .unwrap();
            // Cross the threshold on `cold`, then live inside compiled-only
            // loops until the worker's artifact installs at a back-edge poll.
            for i in 0..11 {
                m.call_entry("cold", &[Value::Int(i)]).unwrap();
            }
            let mut attempts = 0;
            while m.compiled(cold).is_none() {
                attempts += 1;
                assert!(
                    attempts <= 20,
                    "thread {t}: install starved through {attempts} compiled-only loops"
                );
                m.call_entry("hotloop", &[Value::Int(300_000)]).unwrap();
            }
            polls_before
        })
        .expect("spawns the mutator threads");
    let polls_after = vm
        .metrics()
        .on()
        .map(|m| m.vm.safepoint_polls.get())
        .unwrap();
    assert!(
        polls.iter().all(|&before| polls_after > before),
        "compiled loops issued no back-edge safepoint polls"
    );
}

/// Small random workloads assembled from the corpus generator's patterns.
fn pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (1i64..5).prop_map(|n| Pattern::BoxingArith { n }),
        (1i64..5).prop_map(|n| Pattern::TupleReturn { n }),
        (1i64..5).prop_map(|n| Pattern::SyncCounter { n }),
        (1i64..4).prop_map(|n| Pattern::ScratchVector { n }),
        (1i64..5, 1i64..4).prop_map(|(n, escape_every)| Pattern::MixedEscape { n, escape_every }),
        (1i64..4, 2i64..5).prop_map(|(n, pool)| Pattern::EscapeHeavy { n, pool }),
        (1i64..4).prop_map(|n| Pattern::PolyDispatch { n }),
        (1i64..6).prop_map(|n| Pattern::Ballast { n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn generated_workloads_equivalent_across_modes(
        parts in prop::collection::vec(pattern(), 1..4),
    ) {
        let spec = WorkloadSpec {
            name: "generated",
            suite: Suite::DaCapo,
            significant: false,
            parts,
        };
        let workload = Workload::from_spec(&spec);
        assert_equivalent(&workload, 80, 2);
    }
}
