//! Cross-crate integration tests: the full stack (assembler → verifier →
//! interpreter → profiles → compiler → evaluator → deoptimization) on
//! scenarios from the paper.

use pea::bytecode::asm::parse_program;
use pea::runtime::{Value, VmError};
use pea::vm::{ExecMode, OptLevel, Vm, VmOptions};

fn vm_for(src: &str, level: OptLevel) -> Vm {
    let program = parse_program(src).expect("assembles");
    pea::bytecode::verify_program(&program).expect("verifies");
    Vm::new(program, VmOptions::with_opt_level(level))
}

/// The paper's running example driven through the whole VM with a
/// realistic hit/miss mix, at all three optimization levels.
#[test]
fn cache_example_full_stack() {
    let src = "
        class Key { field idx int field ref ref }
        static cacheKey ref
        static cacheValue int
        method virtual Key.equals 2 returns synchronized {
            load 1 ifnull Lf
            load 0 getfield Key.idx
            load 1 checkcast Key getfield Key.idx
            ifcmp ne Lf
            const 1 retv
        Lf: const 0 retv
        }
        method getValue 1 returns {
            new Key store 1
            load 1 load 0 putfield Key.idx
            load 1 getstatic cacheKey invokevirtual Key.equals
            const 0 ifcmp eq Lmiss
            getstatic cacheValue retv
        Lmiss:
            load 1 putstatic cacheKey
            load 0 const 13 mul putstatic cacheValue
            getstatic cacheValue retv
        }";
    let mut outputs = Vec::new();
    let mut hit_allocs = Vec::new();
    for level in [OptLevel::None, OptLevel::Ees, OptLevel::Pea] {
        let mut vm = vm_for(src, level);
        let mut sum = 0i64;
        for i in 0..300i64 {
            let key = i / 10; // 90% hits
            let r = vm.call_entry("getValue", &[Value::Int(key)]).unwrap();
            sum = sum.wrapping_add(r.unwrap().as_int().unwrap());
        }
        outputs.push(sum);
        // Steady-state hit cost.
        let before = vm.stats();
        vm.call_entry("getValue", &[Value::Int(29)]).unwrap();
        hit_allocs.push(vm.stats().delta(&before).alloc_count);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
    assert_eq!(hit_allocs[0], 1, "no EA: every call allocates a key");
    assert_eq!(
        hit_allocs[1], 1,
        "EES: the key escapes somewhere, so never optimized"
    );
    assert_eq!(hit_allocs[2], 0, "PEA: hit path allocates nothing");
}

/// §5.5 with locks: the object is *locked* (synchronized method inlined)
/// at the deopt point. Rematerialization must re-enter the monitor, and
/// the interpreter must release it when the synchronized frame returns.
#[test]
fn deopt_inside_synchronized_inlined_callee() {
    let src = "
        class Acc { field v int }
        static published ref
        method virtual Acc.bump 2 returns synchronized {
            load 0 load 0 getfield Acc.v load 1 add putfield Acc.v
            load 1 const 1000 ifcmp gt Lrare
            load 0 getfield Acc.v retv
        Lrare:
            load 0 putstatic published
            load 0 getfield Acc.v const 1000000 add retv
        }
        method f 1 returns {
            new Acc store 1
            load 1 load 0 invokevirtual Acc.bump retv
        }";
    let mut vm = vm_for(src, OptLevel::Pea);
    for i in 0..120 {
        let r = vm.call_entry("f", &[Value::Int(i)]).unwrap();
        assert_eq!(r, Some(Value::Int(i)));
    }
    assert!(vm.compiled_method_count() >= 1);
    // Verify the hot path is fully virtual (no allocation, no monitors).
    let before = vm.stats();
    vm.call_entry("f", &[Value::Int(7)]).unwrap();
    let hot = vm.stats().delta(&before);
    assert_eq!(hot.alloc_count, 0, "scalar-replaced");
    assert_eq!(hot.monitor_ops(), 0, "lock elided");

    // Cold path: the guard inside the synchronized callee fails while the
    // virtual Acc is LOCKED. Deopt must rematerialize it with the monitor
    // held, and the resumed interpreter frame must release it on return.
    let before = vm.stats();
    let r = vm.call_entry("f", &[Value::Int(5000)]).unwrap();
    assert_eq!(r, Some(Value::Int(1005000)));
    let cold = vm.stats().delta(&before);
    assert_eq!(cold.deopts, 1);
    assert!(cold.rematerialized >= 1);
    assert_eq!(
        cold.monitor_enters, cold.monitor_exits,
        "monitor balance across deopt: {cold}"
    );
    assert_eq!(vm.heap().total_lock_holds(), 0, "no leaked monitors");

    // The published object carries the updated field.
    let program = vm.program();
    let published = program.static_by_name("published").unwrap();
    let obj = match vm.statics_ref().get(published) {
        Value::Ref(r) => r,
        other => panic!("expected object, got {other}"),
    };
    let acc = program.class_by_name("Acc").unwrap();
    let field = program.field_by_name(acc, "v").unwrap();
    assert_eq!(
        vm.heap().get_field(program, obj, field).unwrap(),
        Value::Int(5000)
    );
}

/// Fibonacci through recursion: exercises non-inlined calls from compiled
/// code back into the VM (and interpreter ↔ compiled mixing).
#[test]
fn recursive_calls_across_tiers() {
    let src = "
        method fib 1 returns {
            load 0 const 2 ifcmp lt Lbase
            load 0 const 1 sub invokestatic fib
            load 0 const 2 sub invokestatic fib
            add retv
        Lbase:
            load 0 retv
        }";
    for level in [OptLevel::None, OptLevel::Pea] {
        let mut vm = vm_for(src, level);
        for _ in 0..10 {
            assert_eq!(
                vm.call_entry("fib", &[Value::Int(15)]).unwrap(),
                Some(Value::Int(610))
            );
        }
        assert!(
            vm.compiled_method_count() >= 1,
            "fib gets hot via recursion"
        );
        assert_eq!(
            vm.call_entry("fib", &[Value::Int(20)]).unwrap(),
            Some(Value::Int(6765))
        );
    }
}

/// Virtual arrays: constant-length arrays are scalar-replaced, dynamic
/// ones are not; both behave identically, out-of-bounds reads included.
#[test]
fn virtual_arrays_behave_like_real_ones() {
    let src = "
        method pack 2 returns {
            const 2 newarray int store 2
            load 2 const 0 load 0 astore
            load 2 const 1 load 1 astore
            load 2 const 0 aload
            load 2 const 1 aload
            add
            load 2 arraylen
            mul retv
        }
        method past_end 1 returns {
            const 2 newarray int store 1
            load 1 const 0 load 0 astore
            load 1 const 2 aload retv
        }";
    let mut pea_vm = vm_for(src, OptLevel::Pea);
    let mut none_vm = vm_for(src, OptLevel::None);
    for i in 0..120 {
        let a = pea_vm
            .call_entry("pack", &[Value::Int(i), Value::Int(i * 2)])
            .unwrap();
        let b = none_vm
            .call_entry("pack", &[Value::Int(i), Value::Int(i * 2)])
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, Some(Value::Int((i + i * 2) * 2)));
    }
    let before = pea_vm.stats();
    pea_vm
        .call_entry("pack", &[Value::Int(1), Value::Int(2)])
        .unwrap();
    assert_eq!(
        pea_vm.stats().delta(&before).alloc_count,
        0,
        "constant-length array scalar-replaced"
    );
    for i in 0..120 {
        let a = pea_vm.call_entry("past_end", &[Value::Int(i)]);
        assert_eq!(a, none_vm.call_entry("past_end", &[Value::Int(i)]));
        assert!(
            matches!(a, Err(VmError::IndexOutOfBounds { index: 2, .. })),
            "{a:?}"
        );
    }
}

/// Errors must be identical across tiers, including ones raised deep in
/// inlined code.
#[test]
fn errors_agree_across_tiers() {
    let src = "
        class Box { field v int }
        method inner 1 returns {
            load 0 const 0 ifcmp ne Lok
            cnull getfield Box.v retv
        Lok:
            const 100 load 0 div retv
        }
        method f 1 returns { load 0 invokestatic inner retv }";
    let mut results: Vec<Vec<Result<Option<Value>, VmError>>> = Vec::new();
    for level in [OptLevel::None, OptLevel::Pea] {
        let mut vm = vm_for(src, level);
        let mut r = Vec::new();
        for round in 0..150i64 {
            // Mostly fine args, occasionally null-deref (0) — after the
            // method is compiled.
            let arg = if round == 130 { 0 } else { (round % 7) + 1 };
            r.push(vm.call_entry("f", &[Value::Int(arg)]));
        }
        results.push(r);
    }
    assert_eq!(results[0], results[1]);
    assert!(results[0].iter().any(|r| r == &Err(VmError::NullPointer)));
}

/// A length no heap can hold is an `OutOfMemory` error in every tier — not
/// a host allocation of terabytes — and the VM stays usable afterwards.
#[test]
fn hostile_newarray_is_out_of_memory_in_every_tier() {
    let src = "
        method f 1 returns { load 0 newarray int arraylen retv }
        method g 0 returns { const 1099511627776 newarray int arraylen retv }";
    let graph = VmOptions {
        exec_mode: ExecMode::Graph,
        ..VmOptions::default()
    };
    let configs = [
        ("interp", VmOptions::interpreter_only()),
        ("linear", VmOptions::default()),
        ("graph", graph),
    ];
    for (name, options) in configs {
        let compiles = options.jit;
        let program = parse_program(src).expect("assembles");
        let mut vm = Vm::new(program, options);
        for _ in 0..150 {
            assert_eq!(
                vm.call_entry("f", &[Value::Int(3)]),
                Ok(Some(Value::Int(3)))
            );
        }
        for _ in 0..150 {
            assert_eq!(vm.call_entry("g", &[]), Err(VmError::OutOfMemory), "{name}");
        }
        assert_eq!(
            vm.compiled_method_count(),
            2 * usize::from(compiles),
            "{name}"
        );
        let objects = vm.heap().len();
        for hostile in [1 << 40, i64::MAX] {
            assert_eq!(
                vm.call_entry("f", &[Value::Int(hostile)]),
                Err(VmError::OutOfMemory),
                "{name}: length {hostile}"
            );
        }
        assert_eq!(vm.heap().len(), objects, "{name}: nothing was allocated");
        assert_eq!(
            vm.call_entry("f", &[Value::Int(5)]),
            Ok(Some(Value::Int(5))),
            "{name}: the heap still serves small requests"
        );
    }
}

/// The same program through the command line: an error message and exit
/// status 1, not an abort.
#[test]
fn hostile_newarray_exits_the_cli_cleanly() {
    let path = std::env::temp_dir().join(format!("pea-hostile-{}.asm", std::process::id()));
    std::fs::write(
        &path,
        "method main 0 returns { const 1099511627776 newarray int arraylen retv }",
    )
    .expect("writes the program");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
        .arg("run")
        .arg(&path)
        .arg("main")
        .output()
        .expect("runs pea");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("out of memory"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `pea profile` on the paper's example writes documents the codec reads
/// back: PROFILE.json with its schema and a reconciliation that holds, and
/// TIMELINE.json with the compile spans of the warmup.
#[test]
fn profile_documents_parse_back() {
    let dir = std::env::temp_dir().join(format!("pea-profile-out-{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
        .args(["profile", "examples/cache_key.asm", "getValue", "1", "null"])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("runs pea");
    assert!(out.status.success(), "{out:?}");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect(name);
    let profile = pea::trace::json::parse(&read("PROFILE.json")).expect("PROFILE.json parses");
    let profile = profile.as_object().unwrap();
    assert_eq!(profile.get_str("schema").unwrap(), "pea-profile/1");
    let recon = profile.get_object("reconciliation").unwrap();
    assert!(recon.get_bool("ok").unwrap(), "{recon:?}");
    assert!(!profile.get_array("rows").unwrap().is_empty());
    let timeline = pea::trace::json::parse(&read("TIMELINE.json")).expect("TIMELINE.json parses");
    let events = timeline
        .as_object()
        .unwrap()
        .get_array("traceEvents")
        .unwrap();
    let cats: Vec<&str> = events
        .iter()
        .filter_map(|e| e.as_object().unwrap().opt_str("cat"))
        .collect();
    assert!(cats.contains(&"compile"), "{cats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Recursion 5 000 deep through the command line: `stack overflow` and exit
/// status 1 in every tier, not an abort of the process.
#[test]
fn deep_recursion_exits_the_cli_cleanly() {
    let path = std::env::temp_dir().join(format!("pea-recurse-{}.asm", std::process::id()));
    std::fs::write(
        &path,
        "method r 1 returns {
            load 0 const 0 ifcmp le Lbase
            load 0 const 1 sub invokestatic r const 1 add retv
        Lbase:
            const 0 retv
        }",
    )
    .expect("writes the program");
    for tier in [&["--interp"][..], &[][..], &["--exec-mode", "graph"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
            .arg("run")
            .arg(&path)
            .args(["r", "5000"])
            .args(tier)
            .output()
            .expect("runs pea");
        assert_eq!(out.status.code(), Some(1), "{tier:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: stack overflow"),
            "{tier:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// An entry call with too few or too many arguments is refused before any
/// frame is built: the message names the method and both counts, the exit
/// status is 1, nothing panics — in every tier.
#[test]
fn wrong_entry_arity_is_an_error() {
    for (args, found) in [(&["1"][..], 1), (&["1", "null", "5"][..], 3)] {
        for tier in [&[][..], &["--interp"][..], &["--exec-mode", "graph"][..]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
                .args(["run", "examples/cache_key.asm", "getValue"])
                .args(args)
                .args(tier)
                .output()
                .expect("runs pea");
            assert_eq!(out.status.code(), Some(1), "{args:?} {tier:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let want = format!("error: `getValue` takes 2 arguments, {found} given");
            assert!(stderr.contains(&want), "{args:?} {tier:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
}

/// `pea serve` forks warm mutators onto two threads in both JIT modes:
/// every thread agrees with thread 0, so the command exits 0 and reports
/// the run.
#[test]
fn serve_threads_agree() {
    for mode in [&[][..], &["--jit-mode", "background"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
            .args(["serve", "examples/cache_key.asm", "getValue", "7", "null"])
            .args(["--threads", "2", "--iters", "200"])
            .args(mode)
            .output()
            .expect("runs pea");
        assert_eq!(out.status.code(), Some(0), "{mode:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("served 200 iterations × 2 threads"),
            "{mode:?}: {stdout}"
        );
        assert!(stdout.contains("cycles="), "{mode:?}: {stdout}");
    }
}

/// A `--threads` count past the bound is a usage error before any mutator
/// is built: exit status 2 naming the bound, not a panic when the OS
/// refuses the threads.
#[test]
fn serve_refuses_too_many_threads() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
        .args(["serve", "examples/cache_key.asm", "getValue", "7", "null"])
        .args(["--threads", "100000", "--iters", "1"])
        .output()
        .expect("runs pea");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads must be between 1 and 256"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Threads the OS refuses to spawn are a run error (exit status 1 naming
/// it), not a panic: under a 3 GB address-space limit, 200 threads cannot
/// each reserve their stack.
#[cfg(target_os = "linux")]
#[test]
fn serve_reports_threads_it_cannot_spawn() {
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 3000000 && exec "$0" serve examples/cache_key.asm getValue 7 null --threads 200 --iters 10"#)
        .arg(env!("CARGO_BIN_EXE_pea"))
        .output()
        .expect("runs pea");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot spawn 200 mutator threads"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A `--profile-in` file naming a method, bci or class the program does not
/// have is refused before any table is sized from it: exit status 2 and a
/// message naming the line.
#[test]
fn hostile_profile_is_refused() {
    // `getValue` is a method of the example; its code is far shorter than
    // 65 535 instructions.
    let method = {
        let src = std::fs::read_to_string("examples/cache_key.asm").expect("reads the example");
        let program = parse_program(&src).expect("parses the example");
        program
            .static_method_by_name("getValue")
            .expect("has getValue")
            .index()
    };
    let invocation = format!("{{\"record\":\"invocation\",\"method\":{method},\"count\":1}}\n");
    let branch = |m: usize| {
        format!(
            "{{\"record\":\"branch\",\"method\":{m},\"bci\":65535,\"taken\":1,\"not_taken\":0}}\n"
        )
    };
    let path = std::env::temp_dir().join(format!("pea-profile-{}.json", std::process::id()));
    for (text, named) in [
        (
            format!("{invocation}{}", branch(method)),
            "profile line 2: \"bci\" 65535",
        ),
        (
            (0..400).map(|m| branch(m + 400)).collect(),
            "profile line 1: \"method\" 400",
        ),
    ] {
        std::fs::write(&path, text).expect("writes the profile");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
            .args([
                "run",
                "examples/cache_key.asm",
                "getValue",
                "7",
                "null",
                "--profile-in",
            ])
            .arg(&path)
            .output()
            .expect("runs pea");
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// `--level` takes exactly `none|ees|pea`: a missing value, a removed name
/// and garbage are usage errors (exit status 2, the three names listed),
/// never a silent default.
#[test]
fn bad_level_is_a_usage_error() {
    let run = |level: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
            .args(["run", "examples/cache_key.asm", "getValue", "1", "null"])
            .args(level)
            .output()
            .expect("runs pea")
    };
    // A name the CLI accepted while the pre-filter levels existed (spelled
    // from its parts so a tree-wide search for the dead names stays empty).
    let removed = format!("{}-pre", OptLevel::Pea);
    for bad in [
        &["--level"][..],
        &["--level", &removed],
        &["--level", "fast"],
    ] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("none|ees|pea"), "{bad:?}: {stderr}");
    }
    for good in ["none", "ees", "pea"] {
        let out = run(&["--level", good]);
        assert_eq!(out.status.code(), Some(0), "{good}: {out:?}");
    }
}

/// Every value flag refuses a missing or unparsable value, and every
/// subcommand refuses a flag it does not know (the removed
/// `--inline-policy` among them): exit status 2 and a message naming the
/// flag, never a silent default.
#[test]
fn bad_flags_are_usage_errors() {
    let run = ["run", "examples/cache_key.asm", "getValue", "1", "null"];
    let serve = ["serve", "examples/cache_key.asm", "getValue", "1", "null"];
    let profile = ["profile", "examples/cache_key.asm", "getValue", "1", "null"];
    let cases: [(&[&str], &[&str], &str); 10] = [
        (&run, &["--warmup", "abc"], "--warmup"),
        (&run, &["--warmup"], "--warmup"),
        (&run, &["--jit-mode"], "--jit-mode"),
        (&run, &["--exec-mode"], "--exec-mode"),
        (&run, &["--metrics-json"], "--metrics-json"),
        (&run, &["--inline-policy", "size"], "--inline-policy"),
        (&run, &["--checked"], "--checked"),
        (&serve, &["--checked"], "--checked"),
        (&profile, &["--top", "x"], "--top"),
        (&profile, &["--bogus"], "--bogus"),
    ];
    for (command, flags, named) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
            .args(command)
            .args(flags)
            .output()
            .expect("runs pea");
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
    }
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pea"))
            .arg("run")
            .arg(std::ffi::OsStr::from_bytes(b"\xff.asm"))
            .arg("f")
            .output()
            .expect("runs pea");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("`\u{fffd}.asm`"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// All 27 workload kernels agree between interpreter-only and PEA-JIT
/// execution over a longer horizon than the unit tests use, and keep
/// their monitors balanced.
#[test]
fn workload_smoke_long_horizon() {
    for w in pea::workloads::all_workloads() {
        let mut interp = Vm::new(w.program.clone(), VmOptions::interpreter_only());
        let mut jit = Vm::new(w.program.clone(), {
            let mut o = VmOptions::with_opt_level(OptLevel::Pea);
            o.compile_threshold = 10;
            o
        });
        for i in 0..25i64 {
            let a = interp.call_entry("iterate", &[Value::Int(i)]).unwrap();
            let b = jit.call_entry("iterate", &[Value::Int(i)]).unwrap();
            assert_eq!(a, b, "{} diverges at iteration {i}", w.name);
        }
        assert_eq!(
            jit.heap().total_lock_holds(),
            0,
            "{}: leaked monitors",
            w.name
        );
        assert!(
            jit.compiled_method_count() > 0,
            "{}: nothing compiled",
            w.name
        );
    }
}
