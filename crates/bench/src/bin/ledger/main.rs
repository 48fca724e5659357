//! `ledger`: the repository's benchmark — four workloads, end-to-end metrics
//! with tracing off, and a traced run that measures the stack layer by layer
//! from outside. `README.md` beside this file is the manual; `BENCHMARK.json`
//! at the repository root is the contract with the driver.

mod alloc;
mod catalogue;
mod e2e;
mod inputs;
mod json;
mod loadgen;
mod oracle;
mod phase;
mod procfs;
mod reference;
mod repeat;
mod scratch;
mod stack;
mod stats;
mod traced;

use catalogue::Report;
use e2e::Outcome;
use inputs::{Scale, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: ledger --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--out <dir>] [--quick]
       ledger --all [--seed <u64>] [--seconds <n>] [--quick]
       ledger --repeat-check [N] [--seconds <n>] [--quick]

workloads: cold_uniform hot_zipf mixed_churn update_storm
  --trace 1       the traced run: per-layer metrics instead of end-to-end ones
  --out <dir>     where the traced run writes ledger-trace-<workload>.json
                  (default: ledger-scratch/ beside the executable)
  --quick         the self-tests' 200-vertex scale
  --all           every workload, end-to-end and traced, each in a child process
  --repeat-check  every workload N times (default 2); exit 1 if an end-to-end
                  metric's spread exceeds its bound in BENCHMARK.json";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<std::path::PathBuf>,
    pub quick: bool,
    pub all: bool,
    pub repeat_check: Option<usize>,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 42,
            seconds: 20.0,
            trace: false,
            out: None,
            quick: false,
            all: false,
            repeat_check: None,
        };
        let mut it = args.iter().peekable();
        // A flag's value, when the next argument is one and not another flag.
        fn optional<'a>(
            it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
        ) -> Option<&'a String> {
            it.next_if(|next| !next.starts_with("--"))
        }
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next().ok_or_else(|| format!("{flag} needs {what}")).map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    parsed.workload = Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => {
                    parsed.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    parsed.seconds =
                        value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err("--seconds must be within (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    parsed.trace = match optional(&mut it).map(String::as_str) {
                        None | Some("1") => true,
                        Some("0") => false,
                        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--out" => parsed.out = Some(value("a directory")?.into()),
                "--quick" => parsed.quick = true,
                "--all" => parsed.all = true,
                "--repeat-check" => {
                    let n = match optional(&mut it) {
                        None => 2,
                        Some(n) => n.parse().map_err(|e| format!("--repeat-check: {e}"))?,
                    };
                    if n < 2 {
                        return Err("--repeat-check needs at least 2 runs".to_string());
                    }
                    parsed.repeat_check = Some(n);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let modes = usize::from(parsed.workload.is_some())
            + usize::from(parsed.all)
            + usize::from(parsed.repeat_check.is_some());
        if modes != 1 {
            return Err("give exactly one of --workload, --all and --repeat-check".to_string());
        }
        Ok(parsed)
    }

    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// The table a person reads: every metric by name, with unit and sample count.
pub fn print_table(title: &str, report: &Report, notes: &[String]) {
    println!("== {title}");
    for row in report.sorted_rows() {
        println!("{:<44} {:>16.6} {:<8} n={}", row.name, row.value, row.unit, row.samples);
    }
    for note in notes {
        println!("   {note}");
    }
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .report
        .sorted_rows()
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(r.name),
                r.value,
                json::quote(r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// One workload, one mode, in this process.
pub fn run_one(args: &Args, workload: Workload) -> Outcome {
    let scale = args.scale();
    let outcome = if args.trace {
        traced::run(workload, args.seed, args.seconds, &scale, args.out.as_deref())
    } else {
        e2e::run(workload, args.seed, args.seconds, &scale)
    };
    let missing = outcome.report.missing();
    assert!(missing.is_empty(), "the run did not emit {missing:?}");
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ledger: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat_check {
        return repeat::repeat_check(&args, runs);
    }
    if args.all {
        return repeat::run_all(&args);
    }
    let workload = args.workload.expect("parse() requires a mode");
    let outcome = run_one(&args, workload);
    let mode = if args.trace { "traced" } else { "end to end" };
    print_table(
        &format!("{} · {mode} · seed {} · {} s", workload.name(), args.seed, args.seconds),
        &outcome.report,
        &outcome.notes,
    );
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalogue::{END_TO_END, PER_LAYER};
    use std::sync::Mutex;

    fn quick(workload: Workload, trace: bool) -> Args {
        Args {
            workload: Some(workload),
            seed: 42,
            seconds: 0.4,
            trace,
            out: None,
            quick: true,
            all: false,
            repeat_check: None,
        }
    }

    /// Runs are timed, so they take turns; the first run of each kind is kept
    /// for every test that wants one, unless the test asks for a run of its
    /// own.
    static TURN: Mutex<Vec<((&'static str, bool), &'static Outcome)>> = Mutex::new(Vec::new());

    fn run_in_turn(workload: Workload, trace: bool, own: bool) -> &'static Outcome {
        let mut kept = TURN.lock().unwrap_or_else(|e| e.into_inner());
        let kind = (workload.name(), trace);
        if let Some((_, outcome)) = kept.iter().find(|(k, _)| *k == kind && !own) {
            return outcome;
        }
        let made: &'static Outcome =
            Box::leak(Box::new(run_one(&quick(workload, trace), workload)));
        if !own {
            kept.push((kind, made));
        }
        made
    }

    fn outcome(workload: Workload, trace: bool) -> &'static Outcome {
        run_in_turn(workload, trace, false)
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_workload_emits_each_declared_metric_exactly_once() {
        for workload in Workload::ALL {
            for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
                let outcome = outcome(workload, trace);
                let label = format!("{} (trace {trace}): {:?}", workload.name(), outcome.notes);
                assert!(outcome.correct && outcome.failed == 0 && outcome.attempted > 0, "{label}");
                // `Report::emit` refuses a second value and an undeclared
                // name, and `run_one` a missing one; count them all the same.
                let mut names: Vec<&str> = outcome.report.rows.iter().map(|r| r.name).collect();
                assert_eq!(names.len(), catalogue.len(), "{label}");
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), catalogue.len(), "{label}");
                assert!(outcome.report.rows.iter().all(|r| well_formed(r.name)), "{label}");

                // The driver's line: exactly four keys, every metric a number.
                let line = json::parse(&result_line(outcome)).expect("the result line is JSON");
                let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let metrics = line.get("metrics").expect("checked above").fields();
                assert_eq!(metrics.len(), catalogue.len());
                for ((name, value), (declared, unit)) in metrics.iter().zip(catalogue) {
                    assert_eq!(name, declared);
                    assert!(value.get("value").and_then(json::Value::as_f64).is_some(), "{name}");
                    assert_eq!(value.get("unit").and_then(json::Value::as_str), Some(*unit));
                }
                if !trace {
                    for row in &outcome.report.rows {
                        assert!(row.value > 0.0, "{} is {} on {label}", row.name, row.value);
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_json_and_the_code_declare_the_same_names() {
        let spec = json::parse(repeat::BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let keys: Vec<&str> = spec.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let text = |v: &json::Value, key: &str| -> String {
            v.get(key).and_then(json::Value::as_str).unwrap_or_default().to_string()
        };
        let unit_ok = |u: &str| {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            !u.is_empty() && u.len() <= 16 && u.chars().all(ok)
        };
        for (section, catalogue, keys) in [
            ("end_to_end", END_TO_END, &["name", "unit", "better", "bound"][..]),
            ("per_layer", PER_LAYER, &["name", "unit", "better"][..]),
        ] {
            let declared = spec.get(section).expect("section present").items();
            let names: Vec<(String, String)> =
                declared.iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
            let in_code: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(names, in_code, "{section} differs between BENCHMARK.json and the code");
            for m in declared {
                let have: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(have, keys, "{section} entry {}", text(m, "name"));
                assert!(well_formed(&text(m, "name")) && unit_ok(&text(m, "unit")));
                assert!(matches!(text(m, "better").as_str(), "lower" | "higher"));
            }
        }
        for metric in repeat::declared_end_to_end() {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25, "{}", metric.name);
        }
        let setup = spec.get("end_to_end").expect("checked above").items();
        let setup = setup.iter().find(|m| text(m, "name") == "setup_s").expect("setup_s declared");
        assert_eq!((text(setup, "unit").as_str(), text(setup, "better").as_str()), ("s", "lower"));

        let workloads = spec.get("workloads").expect("section present").items();
        let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        for w in workloads {
            let why = text(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.fields().len(), 2);
        }
        let seconds = spec.get("run_seconds").and_then(json::Value::as_f64).expect("present");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert!(repeat::BENCHMARK_JSON.len() <= 64 * 1024);
        let paths = spec.get("paths").expect("present").items();
        assert_eq!(paths.len(), 1);
        let path = paths[0].as_str().expect("a string");
        for word in spec.get("command").expect("present").items() {
            let word = word.as_str().expect("a string");
            assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
            assert!(!word.contains('/') || word.starts_with(path), "{word} is outside {path}");
        }
    }

    #[test]
    fn ladder_self_times_sum_to_the_thickest_stack() {
        for workload in Workload::ALL {
            let report = &outcome(workload, true).report;
            let get = |name: &str| report.get(name).unwrap_or_else(|| panic!("{name} missing"));
            let read = get("ladder.read.engine_us")
                + get("serve.service.self_us")
                + get("proto.codec.self_us")
                + get("serve.event_loop.self_us");
            let total = get("ladder.read.total_us");
            assert!((read - total).abs() <= 0.02 * total, "{}: {read} vs {total}", workload.name());
            let write = get("graph.with_batch_us") / 1e3
                + get("core.dtlp.apply_batch_ms")
                + get("serve.publish.self_ms")
                + get("store.wal.self_ms")
                + get("serve.event_loop.publish_self_ms");
            let total = get("ladder.write.total_ms");
            assert!(
                (write - total).abs() <= 0.02 * total,
                "{}: {write} vs {total}",
                workload.name()
            );
            assert!(total > 0.0 && get("ladder.read.total_us") > 0.0);
        }
    }

    #[test]
    fn the_split_between_layers_is_the_predicted_one() {
        let get = |w, name: &str| outcome(w, true).report.get(name).expect("declared metric");
        assert!(get(Workload::ColdUniform, "serve.cache.hit_share") <= 0.01);
        assert!(get(Workload::HotZipf, "serve.cache.hit_share") >= 0.99);
        // Every request hit, so the engine's part is exactly nothing. (The
        // other half of the prediction — the engine is 9/10 of a cold request
        // — holds at the full scale, not on a 200-vertex network, and is a
        // timing: README.md has it.)
        assert_eq!(get(Workload::HotZipf, "ladder.read.engine_share"), 0.0);
        assert!(get(Workload::ColdUniform, "ladder.read.engine_us") > 0.0);
        assert!(get(Workload::MixedChurn, "serve.cache.evicted_per_publish") > 0.0);
        assert!(get(Workload::UpdateStorm, "serve.publish.edges_per_s") > 0.0);
    }

    #[test]
    fn exact_counts_repeat_across_two_runs_of_one_seed() {
        let first = outcome(Workload::ColdUniform, true);
        let second = run_in_turn(Workload::ColdUniform, true, true);
        for name in [
            "core.dtlp.subgraphs",
            "core.dtlp.boundary_vertices",
            "core.dtlp.dirty_subgraphs_per_batch",
            "core.dtlp.paths_touched_per_batch",
            "core.kspdg.iterations_per_query",
            "core.kspdg.partials_per_query",
            "core.kspdg.partial_hit_share",
            "core.kspdg.subgraphs_examined_per_query",
            "core.kspdg.candidates_per_query",
            "core.kspdg.allocs_per_query",
            "algo.allocs_per_dijkstra",
            "store.wal_bytes_per_batch",
            "store.checkpoint_mb",
            "store.recover.batches_replayed",
            "repl.bytes_per_epoch",
            "proto.batch_bytes_per_edge",
            "proto.bytes_per_request",
        ] {
            assert_eq!(first.report.get(name), second.report.get(name), "{name}");
        }
    }

    #[test]
    fn arguments_parse_the_drivers_form_and_the_short_one() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--workload hot_zipf --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::HotZipf), 7, 10.0, true)
        );
        assert!(!Args::parse(&argv("--workload hot_zipf --trace 0")).unwrap().trace);
        assert!(Args::parse(&argv("--workload hot_zipf --trace --quick")).unwrap().trace);
        assert_eq!(Args::parse(&argv("--repeat-check")).unwrap().repeat_check, Some(2));
        assert_eq!(
            Args::parse(&argv("--repeat-check 5 --seconds 3")).unwrap().repeat_check,
            Some(5)
        );
        assert!(Args::parse(&argv("--all")).unwrap().all);
        for bad in [
            "",
            "--workload nope",
            "--all --repeat-check",
            "--workload hot_zipf --trace 2",
            "--seconds 0 --all",
            "--repeat-check 1",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
