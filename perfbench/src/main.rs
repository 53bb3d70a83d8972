//! The repository's benchmark. `README.md` beside `Cargo.toml` says what
//! it measures and why.

mod calib;
mod compare;
mod e2e;
mod json;
mod layers;
mod measure;
mod report;
mod spans;
mod stats;
mod workloads;

use json::Json;
use measure::Plan;
use report::Report;
use std::process::{Command, ExitCode};

/// Seconds one pass measures for when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 12.0;

const USAGE: &str = "\
usage: pea-perfbench [--seed N] [--seconds S] [--smoke] [--repeat K] [--out FILE]
           every workload, end-to-end pass then traced pass; K result sets into FILE
       pea-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
           one pass on one workload; the last line of output is the result object
       pea-perfbench --compare A.json B.json
           judge B against the base A; exits 1 if any metric is worse
       pea-perfbench --print-lock
           the text of inputs.lock for the current generators";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
    print_lock: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        compare: None,
        print_lock: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => {
                parsed.seconds = number(flag, value()?)?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                parsed.repeat = number(flag, value()?)?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err("--repeat must be between 1 and 100".to_string());
                }
            }
            "--out" => parsed.out = Some(value()?),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            "--print-lock" => parsed.print_lock = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

impl Args {
    fn plan(&self) -> Plan {
        if self.smoke {
            Plan::smoke(self.seed)
        } else {
            Plan::full(self.seed, self.seconds)
        }
    }
}

/// One pass on one workload, as the contract's driver runs it.
fn run_one(args: &Args, workload: &str) -> Result<Report, String> {
    let plan = args.plan();
    let report = if args.trace {
        layers::run(workload, &plan)?
    } else {
        e2e::run(workload, &plan)?
    };
    print!("{}", report.table());
    for note in &report.notes {
        println!("FAILED: {note}");
    }
    if args.smoke {
        println!("smoke run: these numbers are not comparable with anything");
    }
    println!("{}", report.result_line());
    Ok(report)
}

/// Runs one pass in a child process, so allocator state and peak memory
/// are the workload's own, echoes its output and returns its result
/// object.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{body}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{workload}: the pass exited with {}",
            output.status
        ));
    }
    Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

/// Every workload, both passes, `repeat` times.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    let mut correct = true;
    for _ in 0..args.repeat {
        let mut set = Vec::new();
        for workload in workloads::NAMES {
            let end_to_end = run_child(args, workload, false)?;
            let per_layer = run_child(args, workload, true)?;
            for pass in [&end_to_end, &per_layer] {
                correct &= pass.get("correct") == Some(&Json::Bool(true));
            }
            let count = |key: &str| {
                let sum = [&end_to_end, &per_layer]
                    .iter()
                    .filter_map(|pass| pass.get(key)?.as_f64())
                    .sum();
                Json::Num(sum)
            };
            set.push((
                workload,
                Json::object([
                    ("ops_attempted", count("attempted")),
                    ("failed_ops", count("failed")),
                    (
                        "end_to_end",
                        end_to_end.get("metrics").cloned().unwrap_or(Json::Null),
                    ),
                    (
                        "per_layer",
                        per_layer.get("metrics").cloned().unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
        sets.push(Json::object(set));
    }
    if let Some(path) = &args.out {
        let file = Json::object([
            ("schema", Json::from("pea-perfbench/1")),
            ("comparable", Json::Bool(!args.smoke)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("sets", Json::Arr(sets)),
        ]);
        std::fs::write(path, format!("{file}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {} result set(s) to {path}", args.repeat);
    }
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.print_lock {
        print!("{}", workloads::lock_text());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let read = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let (table, any_worse) = compare::compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(!any_worse);
    }
    match &args.workload {
        Some(workload) => run_one(args, workload).map(|report| report.correct()),
        None => run_all(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "escape_heap",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("escape_heap"));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (
                defaults.seed,
                defaults.seconds,
                defaults.trace,
                defaults.repeat
            ),
            (workloads::DEFAULT_SEED, RUN_SECONDS, false, 1)
        );
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "-3"],
            &["--repeat", "0"],
            &["--compare", "only-one.json"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn run_seconds_is_what_benchmark_json_says() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
