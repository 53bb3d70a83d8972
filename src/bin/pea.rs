//! `pea` — command-line driver for the PEA virtual machine and compiler.
//!
//! ```text
//! pea run <file.asm> <entry> [args...] [--level none|ees|pea] [--warmup N]
//!         [--interp] [--jit-mode sync|background] [--exec-mode linear|graph]
//!         [--trace|--trace-json [PATH]]                # + VM/PEA event log
//!         [--metrics] [--metrics-json PATH] [--metrics-prom PATH]
//!         [--flight PATH]                              # flight-recorder dump on failure
//!         [--profile-in PATH] [--profile-out PATH]     # profile reuse
//! pea serve <file.asm> <entry> [args...] [--threads N] [--iters K] [--warmup N]
//!           [--level L] [--jit-mode M] [--exec-mode M]
//!                                                      # N mutator threads on one VM
//! pea profile <file.asm> <entry> [args...] [--level L] [--jit-mode M] [--exec-mode M]
//!             [--warmup N] [--top N] [--out DIR]       # cycle-attribution profiler
//! pea profile --smoke [--out DIR]                      # profile the benchmark corpus
//! pea trace <file.asm> [method] [--level ...] [--json] # decision trace only
//! pea dump <file.asm> <method> [--level ...]           # IR before/after
//! pea dot <file.asm> <method> [--level ...]            # GraphViz output
//! pea disasm <file.asm>                                # parse + re-print
//! ```
//!
//! `pea --trace <file.asm> [method]` and `pea --trace-json <file.asm>
//! [method]` are shorthands for the `trace` subcommand.
//!
//! A flag the subcommand does not know, or a value flag whose value is
//! missing or does not parse, is a usage error (exit status 2).
//!
//! Examples:
//!
//! ```sh
//! echo 'method main 1 returns { load 0 const 2 mul retv }' > /tmp/double.asm
//! pea run /tmp/double.asm main 21
//! pea dump /tmp/double.asm main
//! pea --trace examples/cache_key.asm
//! ```

use pea::bytecode::asm::parse_program;
use pea::compiler::{compile, compile_traced, CompilerOptions, OptLevel};
use pea::metrics::export::{
    create_file_with_dirs, render_json, render_prometheus, render_text, write_with_dirs,
};
use pea::metrics::profile::{ProfilerHub, Reconciliation};
use pea::metrics::MetricsHub;
use pea::runtime::profile::ProfileStore;
use pea::runtime::Value;
use pea::trace::timeline::{render_chrome_trace, validate_json};
use pea::trace::{FlightEntry, JsonLinesSink, PrettySink, SharedSink, TraceSink};
use pea::vm::{JitMode, Vm, VmOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Prints `msg` and exits with status 2, the usage-error status.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Refuses (exit 2) the first `--flag` in `args` that `pea <command>`
/// does not list in `known`.
fn reject_unknown_flags(args: &[String], command: &str, known: &[&str]) {
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        usage_error(&format!("pea {command}: unknown flag `{bad}`"));
    }
}

/// The value of the value flag `flag`, parsed; `None` when the flag is
/// absent. A missing value or one that does not parse is a usage error
/// naming the flag and the expected `shape`, never a silent default.
fn parse_flag<T: FromStr>(args: &[String], flag: &str, shape: &str) -> Option<T> {
    if !args.iter().any(|a| a == flag) {
        return None;
    }
    let Some(word) = flag_value(args, flag) else {
        usage_error(&format!("{flag} needs a value ({shape})"));
    };
    match word.parse() {
        Ok(value) => Some(value),
        Err(_) => usage_error(&format!("bad {flag} value `{word}` ({shape})")),
    }
}

/// The `--level none|ees|pea` flag (default: pea).
fn parse_level(args: &[String]) -> OptLevel {
    parse_flag(args, "--level", "none|ees|pea").unwrap_or(OptLevel::Pea)
}

/// `options` with the `--jit-mode` and `--exec-mode` flags applied.
fn with_modes(args: &[String], mut options: VmOptions) -> VmOptions {
    if let Some(mode) = parse_flag(args, "--jit-mode", "sync|background") {
        options.jit_mode = mode;
    }
    if let Some(mode) = parse_flag(args, "--exec-mode", "linear|graph") {
        options.exec_mode = mode;
    }
    options
}

/// The entry-call arguments: every leading word before the first flag,
/// each an int or `null`.
fn call_args(rest: &[String]) -> Vec<Value> {
    rest.iter()
        .take_while(|a| !a.starts_with("--"))
        .map(|a| {
            if a == "null" {
                Value::Null
            } else {
                Value::Int(a.parse().unwrap_or_else(|_| {
                    usage_error(&format!("bad argument `{a}` (int or `null`)"))
                }))
            }
        })
        .collect()
}

fn load(path: &str) -> pea::bytecode::Program {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let program = parse_program(&source).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    if let Err(e) = pea::bytecode::verify_program(&program) {
        eprintln!("{path}: verification failed: {e}");
        std::process::exit(2);
    }
    program
}

/// The value following `flag`, if it is present and not another flag.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .filter(|v| !v.starts_with("--"))
}

/// Build a [`SharedSink`] per the `--trace` / `--trace-json [PATH]` flags,
/// or `None` when neither is present. `--trace-json` with a path writes
/// JSON lines to that file (creating parent directories); without one it
/// streams to stdout, as `--trace` always does (pretty-printed).
fn trace_sink(args: &[String]) -> Option<SharedSink> {
    if args.iter().any(|a| a == "--trace-json") {
        if let Some(path) = flag_value(args, "--trace-json") {
            let file = create_file_with_dirs(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            });
            Some(SharedSink::new(JsonLinesSink::new(file)).0)
        } else {
            Some(SharedSink::new(JsonLinesSink::new(std::io::stdout())).0)
        }
    } else if args.iter().any(|a| a == "--trace") {
        Some(SharedSink::new(PrettySink::new(std::io::stdout())).0)
    } else {
        None
    }
}

/// Writes an output artifact to `path`, creating parent directories.
fn write_output(path: &str, contents: &str) {
    if let Err(e) = write_with_dirs(Path::new(path), contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let [path, entry, rest @ ..] = args else {
        eprintln!("usage: pea run <file.asm> <entry> [int args...] [--level L] [--interp] [--warmup N] [--jit-mode sync|background] [--exec-mode linear|graph] [--trace|--trace-json [PATH]] [--metrics] [--metrics-json PATH] [--metrics-prom PATH] [--flight PATH] [--profile-in PATH] [--profile-out PATH]");
        return ExitCode::from(2);
    };
    reject_unknown_flags(
        rest,
        "run",
        &[
            "--level",
            "--interp",
            "--warmup",
            "--jit-mode",
            "--exec-mode",
            "--trace",
            "--trace-json",
            "--metrics",
            "--metrics-json",
            "--metrics-prom",
            "--flight",
            "--profile-in",
            "--profile-out",
        ],
    );
    let program = load(path);
    let warmup: u64 = parse_flag(rest, "--warmup", "N").unwrap_or(100);
    let call_args = call_args(rest);
    // Parsed under `--interp` too, so a bad `--level` is refused there.
    let level = parse_level(rest);
    let mut options = with_modes(
        rest,
        if rest.iter().any(|a| a == "--interp") {
            VmOptions::interpreter_only()
        } else {
            VmOptions::with_opt_level(level)
        },
    );
    options.trace = trace_sink(rest);
    options.flight = parse_flag(rest, "--flight", "PATH");
    let metrics_text = rest.iter().any(|a| a == "--metrics");
    let metrics_json: Option<String> = parse_flag(rest, "--metrics-json", "PATH");
    let metrics_prom: Option<String> = parse_flag(rest, "--metrics-prom", "PATH");
    let profile_out: Option<String> = parse_flag(rest, "--profile-out", "PATH");
    if metrics_text || metrics_json.is_some() || metrics_prom.is_some() {
        options.metrics = MetricsHub::enabled();
    }
    let background = options.jit_mode == JitMode::Background;
    let mut vm = Vm::new(program, options);
    if let Some(path) = parse_flag::<String>(rest, "--profile-in", "PATH") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match ProfileStore::import_json(&text, vm.program()) {
            Ok(profiles) => vm.import_profiles(profiles),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
    }
    for _ in 0..warmup {
        if vm.call_entry(entry, &call_args).is_err() {
            break; // errors reported by the measured call below
        }
    }
    if background {
        // Settle: measure steady-state compiled code, not the race between
        // the warmup loop and the compile queue.
        vm.await_background_compiles();
    }
    let before = vm.stats();
    match vm.call_entry(entry, &call_args) {
        Ok(v) => {
            if background {
                vm.await_background_compiles();
            }
            let d = vm.stats().delta(&before);
            println!(
                "result = {}",
                v.map_or("void".to_string(), |v| v.to_string())
            );
            println!(
                "allocations={} bytes={} monitors={} cycles={} deopts={} compiled-methods={}",
                d.alloc_count,
                d.alloc_bytes,
                d.monitor_ops(),
                d.cycles,
                d.deopts,
                vm.compiled_method_count(),
            );
            if let Some(snapshot) = vm.metrics().snapshot() {
                if metrics_text {
                    eprint!("{}", render_text(&snapshot));
                }
                if let Some(path) = &metrics_json {
                    write_output(path, &render_json(&snapshot));
                }
                if let Some(path) = &metrics_prom {
                    write_output(path, &render_prometheus(&snapshot));
                }
            }
            if let Some(path) = &profile_out {
                write_output(path, &vm.profiles().export_json());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One program to be profiled: name, bytecode, entry method and the
/// per-iteration argument convention.
struct ProfileTarget {
    name: String,
    program: pea::bytecode::Program,
    entry: String,
    /// Fixed call arguments; when empty, the iteration index is passed
    /// (the corpus `iterate(i)` convention).
    args: Vec<Value>,
}

/// `pea profile` — run one program (or, with `--smoke`, the whole
/// benchmark corpus) under the cycle-attribution profiler and emit:
///
/// * a top-N `(method, tier)` table and per-opcode breakdown on stdout,
/// * `PROFILE.json` (`pea-profile/1`, including the reconciliation section),
/// * `STACKS.txt` collapsed-stack lines for flamegraph generators,
/// * `TIMELINE.json` Chrome trace-event JSON (Perfetto-loadable).
///
/// Exits nonzero if the profiler totals do not reconcile exactly with the
/// VM's independently maintained counters (cycles, deopts, installs).
fn cmd_profile(args: &[String]) -> ExitCode {
    reject_unknown_flags(
        args,
        "profile",
        &[
            "--smoke",
            "--out",
            "--top",
            "--warmup",
            "--level",
            "--jit-mode",
            "--exec-mode",
        ],
    );
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir: PathBuf = parse_flag(args, "--out", "DIR").unwrap_or_else(|| ".".into());
    let top: usize = parse_flag(args, "--top", "N").unwrap_or(20);
    let warmup: u64 = parse_flag(args, "--warmup", "N").unwrap_or(150);
    let targets: Vec<ProfileTarget> = if smoke {
        pea::workloads::all_workloads()
            .into_iter()
            .map(|w| ProfileTarget {
                name: w.name,
                program: w.program,
                entry: "iterate".to_string(),
                args: Vec::new(),
            })
            .collect()
    } else {
        let [path, entry, rest @ ..] = args else {
            eprintln!(
                "usage: pea profile <file.asm> <entry> [int args...] [--level L] \
                 [--jit-mode sync|background] [--exec-mode linear|graph] [--warmup N] \
                 [--top N] [--out DIR]  |  pea profile --smoke [--out DIR]"
            );
            return ExitCode::from(2);
        };
        vec![ProfileTarget {
            name: entry.clone(),
            program: load(path),
            entry: entry.clone(),
            args: call_args(rest),
        }]
    };
    // One shared hub: same-named methods merge across VMs, totals span the
    // whole corpus. The VM-side counters the profiler must reconcile with
    // (`stats.cycles`, `stats.deopts`, `stats.compiles`) are per-VM and
    // summed here.
    let hub = ProfilerHub::enabled();
    let mut recon = Reconciliation::default();
    // Flight entries of every VM concatenated onto one timeline, each
    // program offset past the previous one so the lanes read sequentially.
    let mut timeline: Vec<FlightEntry> = Vec::new();
    let (mut seq_base, mut t_base) = (0u64, 0u64);
    for target in &targets {
        let mut options = with_modes(args, VmOptions::with_opt_level(parse_level(args)));
        options.profiler = hub.clone();
        // The ring is what feeds the timeline; the dump path only
        // materializes on failure.
        options.flight = Some(out_dir.join("FLIGHT.json"));
        let background = options.jit_mode == JitMode::Background;
        let mut vm = Vm::new(target.program.clone(), options);
        for i in 0..warmup {
            let args = if target.args.is_empty() {
                vec![Value::Int(i as i64)]
            } else {
                target.args.clone()
            };
            if let Err(e) = vm.call_entry(&target.entry, &args) {
                eprintln!("{}: {e}", target.name);
                return ExitCode::FAILURE;
            }
        }
        if background {
            vm.await_background_compiles();
        }
        let stats = vm.stats();
        recon.stats_cycles += stats.cycles;
        recon.vm_deopts += stats.deopts;
        recon.vm_installs += stats.compiles;
        let mut last = (seq_base, t_base);
        for e in vm.flight_entries().unwrap_or_default() {
            let shifted = FlightEntry {
                seq: seq_base + e.seq,
                t_us: t_base + e.t_us,
                event: e.event,
            };
            last = (last.0.max(shifted.seq + 1), last.1.max(shifted.t_us + 1));
            timeline.push(shifted);
        }
        (seq_base, t_base) = last;
    }
    let snapshot = hub.snapshot().expect("hub is enabled");
    recon.profiler_cycles = snapshot.total_cycles();
    recon.profiler_deopts = snapshot.deopts;
    recon.profiler_installs = snapshot.installs;
    print!("{}", snapshot.render_top(top));
    let opcodes = snapshot.render_opcodes(pea::interp::OPCODE_NAMES);
    if !opcodes.is_empty() {
        println!("\ninterpreter cycles by opcode:");
        print!("{opcodes}");
    }
    let profile_json = snapshot.to_json(pea::interp::OPCODE_NAMES, Some(&recon));
    write_output(
        out_dir.join("PROFILE.json").to_str().unwrap(),
        &profile_json,
    );
    write_output(
        out_dir.join("STACKS.txt").to_str().unwrap(),
        &snapshot.collapsed_stacks(),
    );
    let timeline_json = render_chrome_trace(&timeline);
    if let Err(e) = validate_json(&timeline_json) {
        eprintln!("TIMELINE.json failed validation: {e}");
        return ExitCode::FAILURE;
    }
    write_output(
        out_dir.join("TIMELINE.json").to_str().unwrap(),
        &timeline_json,
    );
    println!(
        "\nwrote {}, {}, {} ({} timeline events)",
        out_dir.join("PROFILE.json").display(),
        out_dir.join("STACKS.txt").display(),
        out_dir.join("TIMELINE.json").display(),
        timeline.len(),
    );
    if !recon.ok() {
        eprintln!(
            "profiler/metrics reconciliation FAILED: \
             cycles {}/{}, deopts {}/{}, installs {}/{}",
            recon.profiler_cycles,
            recon.stats_cycles,
            recon.profiler_deopts,
            recon.vm_deopts,
            recon.profiler_installs,
            recon.vm_installs,
        );
        return ExitCode::FAILURE;
    }
    println!(
        "reconciliation OK: cycles={} deopts={} installs={}",
        recon.profiler_cycles, recon.profiler_deopts, recon.profiler_installs
    );
    ExitCode::SUCCESS
}

/// `pea trace <file.asm> [method] [--level L] [--json]` — compile the named
/// method (or every free static method when omitted) and stream every PEA
/// decision the compiler makes to stdout.
fn cmd_trace(args: &[String], json: bool) -> ExitCode {
    let [path, rest @ ..] = args else {
        eprintln!("usage: pea trace <file.asm> [method] [--level L] [--json]");
        return ExitCode::from(2);
    };
    reject_unknown_flags(rest, "trace", &["--level", "--json", "--trace-json"]);
    let json = json || rest.iter().any(|a| a == "--json" || a == "--trace-json");
    let program = load(path);
    let level = parse_level(rest);
    let methods: Vec<pea::bytecode::MethodId> = match rest.iter().find(|a| !a.starts_with("--")) {
        Some(name) => match program.static_method_by_name(name) {
            Some(id) => vec![id],
            None => {
                eprintln!("no static method `{name}`");
                return ExitCode::from(2);
            }
        },
        None => (0..program.methods.len())
            .map(pea::bytecode::MethodId::from_index)
            .filter(|&m| program.method(m).class.is_none())
            .collect(),
    };
    let mut sink: Box<dyn TraceSink> = if json {
        Box::new(JsonLinesSink::new(std::io::stdout()))
    } else {
        Box::new(PrettySink::new(std::io::stdout()))
    };
    let options = CompilerOptions::with_opt_level(level);
    for method in methods {
        if let Err(e) = compile_traced(&program, method, None, &options, sink.as_mut()) {
            eprintln!(
                "{}: compilation bailout: {e}",
                program.method(method).qualified_name(&program)
            );
        }
    }
    ExitCode::SUCCESS
}

fn compiled_for(args: &[String]) -> Option<(pea::compiler::CompiledMethod, String)> {
    let [path, method_name, rest @ ..] = args else {
        eprintln!("usage: pea dump|dot <file.asm> <method> [--level L]");
        return None;
    };
    reject_unknown_flags(rest, "dump|dot", &["--level"]);
    let program = load(path);
    let level = parse_level(rest);
    let method = program
        .static_method_by_name(method_name)
        .unwrap_or_else(|| {
            eprintln!("no static method `{method_name}`");
            std::process::exit(2);
        });
    let options = CompilerOptions::with_opt_level(level);
    match compile(&program, method, None, &options) {
        Ok(code) => Some((code, method_name.clone())),
        Err(e) => {
            eprintln!("compilation bailout: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_dump(args: &[String]) -> ExitCode {
    let Some((code, name)) = compiled_for(args) else {
        return ExitCode::from(2);
    };
    println!("=== {name} (code size {} nodes) ===", code.code_size);
    println!("escape analysis: {:?}", code.pea_result);
    println!("{}", pea::ir::dump::dump(&code.graph));
    if let Some(art) = &code.linear {
        println!(
            "=== linear ({} words, {} regs) ===",
            art.insns().len(),
            art.num_regs
        );
        print!("{}", art.disassemble());
    }
    ExitCode::SUCCESS
}

fn cmd_dot(args: &[String]) -> ExitCode {
    let Some((code, name)) = compiled_for(args) else {
        return ExitCode::from(2);
    };
    println!("{}", pea::ir::dump::dump_dot(&code.graph, &name));
    ExitCode::SUCCESS
}

fn cmd_disasm(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: pea disasm <file.asm>");
        return ExitCode::from(2);
    };
    let program = load(path);
    print!("{}", pea::bytecode::disasm::disassemble(&program));
    ExitCode::SUCCESS
}

/// Most `pea serve` threads. Each mutator reserves
/// [`pea::vm::MUTATOR_STACK_SIZE`] (about 34.6 MB) of stack when its thread
/// spawns, and its heap reserves a 48 MiB handle table (2^22 handles of 12
/// bytes) at its first allocation: about 85 MB of address space per
/// mutator, so 256 reserve about 21.7 GB (the handle tables alone 12 GiB).
/// A reservation the host refuses is a spawn error or
/// `VmError::OutOfMemory`, reported before any mutator runs or as that
/// mutator's error, never an abort.
const MAX_SERVE_THREADS: usize = 256;

/// `pea serve`: N mutator threads on one VM, each calling the entry in a
/// loop — the CLI face of the multi-threaded throughput harness. The main
/// mutator warms first so every thread forks pre-compiled tiering state,
/// sharing its compiled artifacts; every thread's per-call results must
/// agree (they run the same deterministic call sequence).
fn cmd_serve(args: &[String]) -> ExitCode {
    let [path, entry, rest @ ..] = args else {
        eprintln!(
            "usage: pea serve <file.asm> <entry> [int args...] [--threads N] [--iters K] \
             [--warmup N] [--level L] [--jit-mode sync|background] [--exec-mode linear|graph]"
        );
        return ExitCode::from(2);
    };
    reject_unknown_flags(
        rest,
        "serve",
        &[
            "--threads",
            "--iters",
            "--warmup",
            "--level",
            "--jit-mode",
            "--exec-mode",
        ],
    );
    let program = load(path);
    let call_args = call_args(rest);
    let threads: usize = parse_flag(rest, "--threads", "N").unwrap_or(4);
    if !(1..=MAX_SERVE_THREADS).contains(&threads) {
        eprintln!("--threads must be between 1 and {MAX_SERVE_THREADS}");
        return ExitCode::from(2);
    }
    let iters: usize = parse_flag(rest, "--iters", "N").unwrap_or(1000);
    let warmup: usize = parse_flag(rest, "--warmup", "N").unwrap_or(100);
    let options = with_modes(rest, VmOptions::with_opt_level(parse_level(rest)));
    let background = options.jit_mode == JitMode::Background;
    let mut vm = Vm::new(program, options);
    for _ in 0..warmup {
        if let Err(e) = vm.call_entry(entry, &call_args) {
            eprintln!("warmup: {e}");
            return ExitCode::FAILURE;
        }
    }
    if background {
        vm.await_background_compiles();
    }

    let start = std::time::Instant::now();
    let runs = vm.run_threads_warm(threads, |t, m| {
        let mut last = None;
        for i in 0..iters {
            match m.call_entry(entry, &call_args) {
                Ok(v) => last = v,
                Err(e) => {
                    eprintln!("thread {t} iteration {i}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if background {
            m.await_background_compiles();
        }
        (last, m.stats())
    });
    let wall = start.elapsed();
    let runs = match runs {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("cannot spawn {threads} mutator threads: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (oracle, _) = &runs[0];
    let diverged = runs.iter().filter(|(v, _)| v != oracle).count();
    let total_cycles: u64 = runs.iter().map(|(_, s)| s.cycles).sum();
    println!(
        "served {iters} iterations × {threads} threads in {:.1}ms ({:.1} kiters/s)",
        wall.as_secs_f64() * 1e3,
        threads as f64 * iters as f64 / wall.as_secs_f64() / 1e3
    );
    println!("cycles={total_cycles}");
    if diverged > 0 {
        eprintln!("{diverged} thread(s) diverged from thread 0");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = match std::env::args_os()
        .skip(1)
        .map(|a| a.into_string())
        .collect::<Result<_, _>>()
    {
        Ok(args) => args,
        Err(bad) => {
            let bad = bad.to_string_lossy();
            eprintln!("error: argument `{bad}` is not valid UTF-8");
            eprintln!("usage: pea <run|serve|profile|trace|dump|dot|disasm> ...");
            return ExitCode::from(2);
        }
    };
    // Every command runs on a thread with room for the VM's deepest call
    // chain, so a runaway recursion ends in `stack overflow` (exit 1)
    // rather than aborting the process.
    std::thread::Builder::new()
        .stack_size(pea::vm::MUTATOR_STACK_SIZE)
        .spawn(move || dispatch(&args))
        .expect("spawn the command thread")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

fn dispatch(args: &[String]) -> ExitCode {
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "serve" => cmd_serve(rest),
            "profile" => cmd_profile(rest),
            "trace" => cmd_trace(rest, false),
            // `pea --trace <file> [method]` shorthand for the subcommand.
            "--trace" => cmd_trace(rest, false),
            "--trace-json" => cmd_trace(rest, true),
            "dump" => cmd_dump(rest),
            "dot" => cmd_dot(rest),
            "disasm" => cmd_disasm(rest),
            other => {
                eprintln!("unknown command `{other}`");
                eprintln!("commands: run, serve, profile, trace, dump, dot, disasm");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("usage: pea <run|serve|profile|trace|dump|dot|disasm> ...");
            ExitCode::from(2)
        }
    }
}
