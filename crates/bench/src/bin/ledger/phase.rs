//! One workload's traffic against a running stack: warm-up, then a measured
//! window of whole cycles. End-to-end and traced runs both call this; they
//! differ in how long the window is and in what they do with the counters.

use crate::inputs::{Plan, Traffic};
use crate::loadgen::{closed_loop, merge, ms, on_schedule, only_queries, Feed, ReadLog, Reader};
use crate::procfs;
use crate::reference::Speedometer;
use crate::stack::{Stack, TcpClient};
use crate::stats::Repetition;
use ksp_graph::{DynamicGraph, UpdateBatch};
use ksp_serve::MetricsReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the publishing connection saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Send → acknowledged epoch, per publish inside the window.
    pub rtt_ms: Vec<f64>,
    /// Edge-weight updates acknowledged inside the window.
    pub edges: u64,
    /// Failed publishes, and acknowledgements naming the wrong epoch.
    pub errors: u64,
    /// Batches acknowledged since the service started, warm-up included;
    /// also the epoch the service must be at.
    pub published: u64,
}

impl WriteLog {
    pub fn attempted(&self) -> u64 {
        self.rtt_ms.len() as u64 + self.errors
    }
}

/// Process and service counters at one instant.
struct Counters {
    at: Instant,
    cpu_ms: f64,
    peak_rss_mb: f64,
    rw_syscalls: u64,
    ctx_switches: u64,
    service: MetricsReport,
}

impl Counters {
    fn read(stack: &Stack) -> Self {
        Counters {
            at: Instant::now(),
            cpu_ms: procfs::cpu_ms(),
            peak_rss_mb: procfs::peak_rss_mb(),
            rw_syscalls: procfs::rw_syscalls(),
            ctx_switches: procfs::context_switches(),
            service: stack.service.metrics(),
        }
    }
}

/// The measured window of one run.
pub struct Phase {
    pub reads: ReadLog,
    pub writes: WriteLog,
    /// The repetitions of the primary stream — publishes where a connection
    /// publishes back to back, queries everywhere else — in which nothing
    /// failed.
    pub reps: Vec<Repetition>,
    pub warmup: Duration,
    pub wall: Duration,
    pub cpu_ms: f64,
    /// `VmHWM` when the window closed: set-up, warm-up and the window, ahead
    /// of whatever the ledger does with the results.
    pub peak_rss_mb: f64,
    /// What the reference job took, in CPU microseconds, each time a
    /// generator thread ran it inside the window.
    pub reference_us: Vec<f64>,
    pub rw_syscalls: u64,
    pub ctx_switches: u64,
    /// `QueryService::metrics()` when the window opened and when it closed.
    pub before: MetricsReport,
    pub after: MetricsReport,
}

impl Phase {
    fn close(
        start: Counters,
        end: Counters,
        warm_started: Instant,
        reads: ReadLog,
        writes: WriteLog,
        reps: Vec<Repetition>,
        reference_us: Vec<f64>,
    ) -> Self {
        Phase {
            reads,
            writes,
            reps,
            reference_us,
            warmup: start.at - warm_started,
            wall: end.at - start.at,
            cpu_ms: end.cpu_ms - start.cpu_ms,
            peak_rss_mb: end.peak_rss_mb,
            rw_syscalls: end.rw_syscalls - start.rw_syscalls,
            // Threads that ended inside the window take their counts along.
            ctx_switches: end.ctx_switches.saturating_sub(start.ctx_switches),
            before: start.service,
            after: end.service,
        }
    }
}

/// Sends `batch`, the stream's next one, and logs it, unless this is the
/// warm-up (`record` is false), when only the epoch is counted.
fn publish(client: &mut TcpClient, batch: &UpdateBatch, log: &mut WriteLog, record: bool) {
    let sent = Instant::now();
    let result = client.apply_batch(batch);
    let done = Instant::now();
    let acknowledged = matches!(result, Ok(epoch) if epoch == log.published + 1);
    if result.is_ok() {
        log.published += 1;
    }
    if !record {
        return;
    }
    if !acknowledged {
        log.errors += 1;
        return;
    }
    log.rtt_ms.push(ms(done - sent));
    log.edges += batch.len() as u64;
}

/// What runs on a connection ahead of each of its requests.
type Before<'a> = &'a (dyn Fn(&mut TcpClient, usize) + Sync);

/// Warm-up, then whole cycles for at least `run_for`, on every connection.
fn read_cycles(
    plan: &Plan,
    stack: &Stack,
    clients: &mut [TcpClient],
    run_for: Duration,
    speedometer: &Speedometer,
    warming: Before<'_>,
    measuring: Before<'_>,
) -> (Counters, Counters, ReadLog, Vec<Repetition>) {
    closed_loop(clients, &plan.universe, &Feed::once(&plan.warmup), warming);
    let start = Counters::read(stack);
    let feed = Feed::whole_cycles(&plan.cycle, run_for, speedometer);
    let logs = closed_loop(clients, &plan.universe, &feed, measuring);
    let end = Counters::read(stack);
    (start, end, merge(logs), feed.repetitions())
}

/// Runs `plan`'s traffic over `clients` (`plan.connections` connections to
/// `stack`) and measures for at least `run_for`, ending on a cycle boundary.
/// `graph0` is the epoch-0 graph the batch stream is derived from. The
/// generator's threads record the host's speed on `speedometer` as they go.
pub fn run(
    plan: &Plan,
    stack: &Stack,
    graph0: &DynamicGraph,
    clients: &mut [TcpClient],
    run_for: Duration,
    speedometer: &Speedometer,
) -> Phase {
    let warm_started = Instant::now();
    // Whatever was sampled before the window is not the window's.
    speedometer.take();
    let mut source = plan.batch_source(graph0);
    let mut writes = WriteLog::default();
    for _ in 0..plan.prelude {
        publish(&mut clients[0], &source.next_batch(), &mut writes, false);
    }
    match plan.traffic {
        Traffic::Readers => {
            let (start, end, reads, reps) = read_cycles(
                plan,
                stack,
                clients,
                run_for,
                speedometer,
                &only_queries,
                &only_queries,
            );
            Phase::close(start, end, warm_started, reads, writes, reps, speedometer.take())
        }
        Traffic::ReadersAndWriter { publish_every } => {
            // Whichever connection draws a request whose position in its
            // cycle is a multiple of `publish_every` sends the next batch
            // first.
            // Counting requests, not milliseconds, makes every repetition
            // hold the same publishes however fast the machine is; the lock
            // keeps the batches in order. A repetition's wall clock starts
            // when its first request is drawn, so every publish is inside it.
            let writer = Mutex::new((source, writes));
            let publish_due = |record: bool| {
                let writer = &writer;
                move |client: &mut TcpClient, position: usize| {
                    if (position % plan.cycle.len()).is_multiple_of(publish_every) {
                        let mut guard = writer.lock().expect("no publisher panics mid-batch");
                        let (source, log) = &mut *guard;
                        publish(client, &source.next_batch(), log, record);
                    }
                }
            };
            let (start, end, reads, reps) = read_cycles(
                plan,
                stack,
                clients,
                run_for,
                speedometer,
                &publish_due(false),
                &publish_due(true),
            );
            let (_, writes) = writer.into_inner().expect("no publisher panicked mid-batch");
            Phase::close(start, end, warm_started, reads, writes, reps, speedometer.take())
        }
        Traffic::WriterAndScheduledReader { read_every } => {
            let (writers, readers) = clients.split_at_mut(1);
            let (writer, reader) = (&mut writers[0], &mut readers[0]);
            let stop = AtomicBool::new(false);
            let universe = &plan.universe[..];
            let warm = Feed::once(&plan.warmup);
            closed_loop(std::slice::from_mut(reader), universe, &warm, &only_queries);
            std::thread::scope(|scope| {
                let (cycle, stop) = (&plan.cycle, &stop);
                let scheduled = scope.spawn(move || {
                    // 50 reads a second: the oracle can afford every one.
                    let mut reading = Reader::new(reader, universe).sampling_all();
                    on_schedule(read_every, stop, |j, due| {
                        reading.issue(cycle[j % cycle.len()], Some(due));
                    });
                    reading.finish()
                });
                let start = Counters::read(stack);
                let (mut reps, mut sampled) = (Vec::new(), None);
                for repetition in 0.. {
                    if repetition > 0 && start.at.elapsed() >= run_for {
                        break;
                    }
                    // Drawing a repetition's batches is the generator's
                    // work, not the service's: it is done before the clock
                    // starts, and the repetition is sent back to back.
                    let batches: Vec<UpdateBatch> =
                        (0..plan.publish_cycle).map(|_| source.next_batch()).collect();
                    let (began, logged, failed) =
                        (Instant::now(), writes.rtt_ms.len(), writes.errors);
                    for batch in &batches {
                        speedometer.sample_if_due(&mut sampled);
                        publish(writer, batch, &mut writes, true);
                    }
                    let wall_s = began.elapsed().as_secs_f64();
                    if writes.errors == failed {
                        let mut rtt_ms = writes.rtt_ms[logged..].to_vec();
                        reps.push(Repetition::of(&mut rtt_ms, wall_s));
                    }
                }
                let end = Counters::read(stack);
                stop.store(true, Ordering::Release);
                let reads = scheduled.join().expect("the scheduled reader panicked");
                Phase::close(start, end, warm_started, reads, writes, reps, speedometer.take())
            })
        }
    }
}
