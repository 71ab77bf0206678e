//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! For one workload, prints one JSON result object as the last line of
//! standard output. `--workload all` runs the four workloads one process
//! each and prints every metric by name with its unit. Either exits
//! nonzero when any output check failed.

use specfaith_perfbench::{run, Output, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be within 0..=3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!(
                "perfbench: {why}\nusage: perfbench --workload <{}|all> [--seed N] \
                 [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out: Output = match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(out) => out,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    for failure in &out.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", out.to_json(defs));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (peak memory is per process)
/// and prints each metric by name with its unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let child = match child {
            Ok(child) => child,
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                return ExitCode::from(2);
            }
        };
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        ok &= child.status.success();
        println!(
            "{workload}: {}",
            if child.status.success() {
                "ok"
            } else {
                "FAILED"
            }
        );
        for def in defs {
            let value = metric_value(line, def.name).unwrap_or(f64::NAN);
            println!("  {:<34} {:>16.6} {}", def.name, value, def.unit);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads `"<name>": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}
