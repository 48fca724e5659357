//! The end-to-end run: tracing off, the whole stack, one workload.

use crate::catalogue::{Report, END_TO_END};
use crate::inputs::{Dataset, Plan, Scale, Workload};
use crate::oracle::Oracle;
use crate::phase::{self, Phase};
use crate::reference::{self, Speedometer};
use crate::stack::{self, service_config};
use crate::{procfs, stats};
use ksp_graph::DynamicGraph;
use ksp_serve::QueryService;
use ksp_store::StoreConfig;
use std::time::{Duration, Instant};

/// What a run reports besides its metrics.
pub struct Outcome {
    pub report: Report,
    /// Operations inside the measured window, queries and publishes together.
    pub attempted: u64,
    /// Of those: errors, refusals, inconsistent and wrong answers.
    pub failed: u64,
    /// `failed == 0` and every other check of the run held.
    pub correct: bool,
    /// Lines for the human reader: what was checked, what went wrong.
    pub notes: Vec<String>,
}

/// What the oracle made of a run.
pub struct Verification {
    /// Answers compared with Yen's.
    pub checked: u64,
    /// What fails the run: wrong answers and failures that are not an
    /// answer's.
    pub wrong: Vec<String>,
    /// Valid answers that are not the k shortest paths; they lower
    /// `exact_share` and fail nothing (see `oracle.rs`).
    pub suboptimal: Vec<String>,
}

impl Verification {
    /// Answers that were exactly Yen's ÷ answers checked.
    pub fn exact_share(&self) -> f64 {
        let inexact = (self.suboptimal.len() + self.wrong.len()) as u64;
        stats::ratio(self.checked.saturating_sub(inexact) as f64, self.checked as f64)
    }

    pub fn summary(&self, seconds: f64) -> String {
        format!(
            "oracle: {} answers checked in {seconds:.2} s, {} wrong, {} suboptimal",
            self.checked,
            self.wrong.len(),
            self.suboptimal.len()
        )
    }

    /// One line per finding, for the notes.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        let wrong = self.wrong.iter().take(10).map(|f| format!("WRONG: {f}"));
        wrong.chain(self.suboptimal.iter().take(10).map(|t| format!("SUBOPTIMAL: {t}")))
    }
}

/// Checks the sampled answers of `phase` against the oracle, and — for a
/// persistent stack — that a restart recovers the last acknowledged epoch and
/// still answers every query of the universe. Consumes the phase's samples.
pub fn verify(
    plan: &Plan,
    scale: &Scale,
    graph0: &DynamicGraph,
    phase: &mut Phase,
    reopen: Option<&std::path::Path>,
) -> Verification {
    let mut oracle = Oracle::new(graph0, plan.batch_source(graph0));
    oracle.verify(&plan.universe, std::mem::take(&mut phase.reads.samples));
    if let Some(dir) = reopen {
        let acknowledged = phase.writes.published;
        match QueryService::open(dir, service_config(plan, scale), StoreConfig::default()) {
            Err(e) => oracle.fail(format!("the store does not reopen: {e}")),
            Ok((service, _)) => {
                let epoch = service.current_epoch();
                if epoch != acknowledged {
                    oracle.fail(format!("recovered epoch {epoch}, acknowledged {acknowledged}"));
                }
                for key in &plan.universe {
                    match service.query(key.source, key.target, key.k) {
                        Ok(answer) => oracle.check(
                            *key,
                            epoch.max(acknowledged),
                            &answer.paths,
                            "after recovery, ",
                        ),
                        Err(e) => oracle.fail(format!("after recovery, {key:?}: {e}")),
                    }
                }
            }
        }
    }
    Verification { checked: oracle.checked, wrong: oracle.wrong, suboptimal: oracle.suboptimal }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let confined = procfs::OneProcessor::confine();
    let data = Dataset::generate(scale);
    let plan = Plan::new(workload, seed, scale, &data);
    let speedometer = Speedometer::new();
    let (stack, mut setups_s) = stack::set_up(&plan, scale, &speedometer);
    let setup_speed = reference::speed(&mut speedometer.take());
    let mut clients = stack.connect(plan.connections);
    let run_for = Duration::from_secs_f64(seconds);
    let mut phase = phase::run(&plan, &stack, &data.graph, &mut clients, run_for, &speedometer);
    let rejected = phase.after.rejected - phase.before.rejected;

    // Everything below is outside the timed window. A persistent stack is
    // shut down first, so the restart check opens what a crash would find.
    drop(clients);
    let store = plan.persistent.then(|| stack.store_path());
    let stack::Stack { server, service, dir } = stack;
    drop(server);
    drop(service);
    let verify_started = Instant::now();
    let verified = verify(&plan, scale, &data.graph, &mut phase, store.as_deref());
    let verify_s = verify_started.elapsed().as_secs_f64();
    drop(dir);

    // Each figure is taken per repetition of the cycle — every repetition is
    // the same work — and the median over repetitions is reported, so that a
    // stall of the machine spoils one repetition, not the run. Throughput is
    // operations answered ÷ the repetition's wall-clock time, first request
    // drawn to last answer, so whatever else the repetition sends (the
    // publishes of `mixed_churn`) is in it. Every time is then stated at the
    // host's nominal speed (see `reference.rs`): the host ran the window at
    // `speed` times that, and the set-ups at `setup_speed`.
    let reps = &phase.reps;
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    let speed = reference::speed(&mut phase.reference_us);
    let setup_s = stats::median(&mut setups_s);
    let throughput = stats::median_of(reps, |r| r.throughput);
    let p50_ms = stats::median_of(reps, |r| r.p50_ms);
    // p90, not p95 or p99: a repetition of the shortest cycle, 96 publishes,
    // has ten samples beyond its p90 and one beyond its p99.
    let p90_ms = stats::median_of(reps, |r| r.p90_ms);
    let mut report = Report::new(END_TO_END);
    report.emit("setup_s", setup_s * setup_speed, setups_s.len() as u64);
    report.emit("throughput_ops", throughput / speed, ops);
    report.emit("latency_p50_ms", p50_ms * speed, ops);
    report.emit("latency_p90_ms", p90_ms * speed, ops);
    // Read when the window closed: the ledger's own bookkeeping afterwards
    // (and the restart check of a persistent stack) is not the program's.
    report.emit("peak_rss_mb", phase.peak_rss_mb, 1);
    report.emit("exact_share", verified.exact_share(), verified.checked);

    let attempted = phase.reads.attempted() + phase.writes.attempted();
    let failed = phase.reads.errors
        + phase.reads.inconsistent
        + phase.writes.errors
        + verified.wrong.len() as u64;
    let mut per_rep: Vec<f64> = reps.iter().map(|r| r.throughput).collect();
    stats::sort(&mut per_rep);
    let mut notes = vec![
        format!(
            "medians over {} repetitions of {} operations; a repetition's throughput ran from {:.1} to {:.1} /s (quartiles {:.1}, {:.1}); the slowest operation took {:.6} ms",
            reps.len(),
            ops / reps.len().max(1) as u64,
            stats::percentile(&per_rep, 0.0),
            stats::percentile(&per_rep, 1.0),
            stats::percentile(&per_rep, 0.25),
            stats::percentile(&per_rep, 0.75),
            reps.iter().map(|r| r.worst_ms).fold(0.0, f64::max),
        ),
        format!(
            "{} queries ({} hits, {} refused by admission) and {} publishes in {:.2} s, after {:.2} s of warm-up",
            phase.reads.attempted(),
            phase.reads.hits,
            rejected,
            phase.writes.attempted(),
            phase.wall.as_secs_f64(),
            phase.warmup.as_secs_f64(),
        ),
        verified.summary(verify_s),
        format!(
            "the host ran at {speed:.4} of its nominal speed inside the window ({} runs of the reference job) and at {setup_speed:.4} during set-up; as measured: {throughput:.6} /s, p50 {p50_ms:.6} ms, p90 {p90_ms:.6} ms, set-ups of {setups_s:.3?} s",
            phase.reference_us.len(),
        ),
    ];
    if confined.is_none() {
        notes.push("the kernel refused to confine the run to one processor".to_string());
    }
    if !phase.reads.due_ms.is_empty() {
        notes.push(format!(
            "scheduled reads: p50 {:.6} ms from due over {} reads",
            stats::median(&mut phase.reads.due_ms),
            phase.reads.due_ms.len()
        ));
    }
    notes.extend(verified.lines());
    Outcome { report, attempted, failed, correct: failed == 0 && ops > 0, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_suboptimal_answer_lowers_exact_share_and_every_one_counts() {
        let line = |n: usize| vec![String::from("v1 -> v2"); n];
        let verified = |suboptimal, wrong| Verification {
            checked: 200,
            wrong: line(wrong),
            suboptimal: line(suboptimal),
        };
        assert_eq!(verified(0, 0).exact_share(), 1.0);
        assert_eq!(verified(1, 0).exact_share(), 0.995);
        assert_eq!(verified(2, 0).exact_share(), 0.99);
        assert_eq!(verified(2, 1).exact_share(), 0.985);
    }
}
