//! `--all` and `--repeat-check`: runs of the ledger in child processes, the
//! way the driver makes them, so peak memory and set-up time are per run.

use crate::inputs::Workload;
use crate::json::{self, Value};
use crate::{stats, Args};
use std::process::{Command, ExitCode};

/// The contract with the driver; also where the bounds live.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub bound: f64,
}

pub fn declared_end_to_end() -> Vec<Declared> {
    let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).map(str::to_string);
    spec.get("end_to_end")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .map(|m| Declared {
            name: field(m, "name").expect("every metric has a name"),
            bound: m.get("bound").and_then(Value::as_f64).expect("every metric has a bound"),
        })
        .collect()
}

/// Runs one workload in a child process; returns its standard output and the
/// parsed result line.
fn child(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| {
        format!(
            "{} exited with {} and no result line ({e}): {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{} failed:\n{stdout}", workload.name()));
    }
    Ok((stdout, result))
}

pub fn run_all(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        for trace in [false, true] {
            match child(args, workload, args.seed, trace) {
                Ok((stdout, _)) => print!("{stdout}"),
                Err(why) => {
                    eprintln!("ledger: {why}");
                    code = ExitCode::FAILURE;
                }
            }
        }
    }
    code
}

/// Runs every workload `runs` times, each time with another seed, and holds
/// every end-to-end metric's quartile spread against its bound. `setup_s` is
/// shown but not held to its bound, as the driver does not hold it either.
pub fn repeat_check(args: &Args, runs: usize) -> ExitCode {
    let declared = declared_end_to_end();
    let mut outside = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>9} {:>7}  verdict ({runs} runs, seeds {}..={})",
        "workload",
        "metric",
        "median",
        "spread",
        "bound",
        args.seed,
        args.seed + runs as u64 - 1
    );
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for i in 0..runs {
            match child(args, workload, args.seed + i as u64, false) {
                Ok((_, result)) => results.push(result),
                Err(why) => {
                    eprintln!("ledger: {why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for metric in &declared {
            let mut values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&metric.name)?.get("value")?.as_f64())
                .collect();
            let spread = stats::quartile_spread(&values);
            let verdict = if metric.name == "setup_s" {
                "not held"
            } else if spread <= metric.bound {
                "ok"
            } else {
                outside += 1;
                "OUTSIDE"
            };
            println!(
                "{:<14} {:<18} {:>14.6} {:>9.4} {:>7.2}  {verdict}",
                workload.name(),
                metric.name,
                stats::median(&mut values),
                spread,
                metric.bound
            );
        }
    }
    if outside == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: {outside} metric(s) spread wider than their bound");
        ExitCode::FAILURE
    }
}
