//! The ledger's own load generator: a closed loop that measures whole cycles,
//! and an open loop on an absolute schedule that times every request from
//! when it was *due*, not from when it was sent, and reports how late it
//! fired. (`ksp_serve::run_open_loop_over` times from the send, so a stalled
//! reply costs only the one request that waited for it.)

use crate::reference::Speedometer;
use crate::stats::Repetition;
use ksp_proto::{KspClient, QueryAnswer, QueryKey, Transport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th answer of a closed- or open-loop connection is
/// kept for the oracle.
pub const SAMPLE_EVERY: usize = 8;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleeps, then yields through the last stretch: `thread::sleep` alone
/// overshoots by a wake-up latency that is several periods of a fast
/// schedule, and spinning outright would take a core from the server, which
/// shares the machine's two with the generator.
pub fn sleep_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// An answer kept for the oracle.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// Index into the workload's universe.
    pub key: u32,
    pub answer: QueryAnswer,
}

/// What one reading connection saw. Round trips of a closed loop are not
/// kept here: the `Feed` summarises them repetition by repetition, so what
/// the ledger itself holds in memory does not grow with the requests a
/// window fits.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Requests answered.
    pub answered: u64,
    /// Send → reply (scheduled requests only, like the next two).
    pub rtt_ms: Vec<f64>,
    /// Due → reply.
    pub due_ms: Vec<f64>,
    /// Due → send: how late the generator fired.
    pub late_ms: Vec<f64>,
    pub hits: u64,
    /// Transport errors, typed errors and `Overloaded` refusals.
    pub errors: u64,
    /// Sampled answers that differ from an earlier answer to the same query
    /// at the same epoch.
    pub inconsistent: u64,
    /// The distinct `(query, epoch)` answers among the sampled ones.
    pub samples: Vec<Sampled>,
}

impl ReadLog {
    pub fn attempted(&self) -> u64 {
        self.answered + self.errors
    }
}

/// Folds the logs of several connections into one.
pub fn merge(logs: Vec<ReadLog>) -> ReadLog {
    let mut all = ReadLog::default();
    for mut log in logs {
        all.answered += log.answered;
        all.rtt_ms.append(&mut log.rtt_ms);
        all.due_ms.append(&mut log.due_ms);
        all.late_ms.append(&mut log.late_ms);
        all.samples.append(&mut log.samples);
        all.hits += log.hits;
        all.errors += log.errors;
        all.inconsistent += log.inconsistent;
    }
    all
}

fn same_answer(a: &QueryAnswer, b: &QueryAnswer) -> bool {
    a.paths.len() == b.paths.len()
        && a.paths.iter().zip(&b.paths).all(|(x, y)| {
            x.vertices() == y.vertices()
                && x.distance().value().to_bits() == y.distance().value().to_bits()
        })
}

/// One connection issuing queries and keeping its log.
pub struct Reader<'a, T: Transport> {
    client: &'a mut KspClient<T>,
    universe: &'a [QueryKey],
    log: ReadLog,
    seen: HashMap<(u32, u64), usize>,
    issued: usize,
    sample_every: usize,
}

impl<'a, T: Transport> Reader<'a, T> {
    pub fn new(client: &'a mut KspClient<T>, universe: &'a [QueryKey]) -> Self {
        Reader {
            client,
            universe,
            log: ReadLog::default(),
            seen: HashMap::new(),
            issued: 0,
            sample_every: SAMPLE_EVERY,
        }
    }

    /// Keeps every answer for the oracle: for a reader slow enough that the
    /// oracle can afford them all.
    pub fn sampling_all(self) -> Self {
        Reader { sample_every: 1, ..self }
    }

    /// Sends query `key` now and waits for the answer; `due` is when the
    /// schedule wanted it sent, if there is a schedule. Returns the round
    /// trip in milliseconds and when the answer arrived, `None` on an error.
    pub fn issue(&mut self, key: u32, due: Option<Instant>) -> Option<(f64, Instant)> {
        let q = self.universe[key as usize];
        let sent = Instant::now();
        let result = self.client.query(q.source, q.target, q.k);
        let done = Instant::now();
        self.issued += 1;
        let answer = match result {
            Ok(answer) => answer,
            Err(_) => {
                self.log.errors += 1;
                return None;
            }
        };
        self.log.answered += 1;
        if let Some(due) = due {
            self.log.rtt_ms.push(ms(done - sent));
            self.log.due_ms.push(ms(done.saturating_duration_since(due)));
            self.log.late_ms.push(ms(sent.saturating_duration_since(due)));
        }
        self.log.hits += u64::from(answer.cache_hit);
        if self.issued.is_multiple_of(self.sample_every) {
            match self.seen.get(&(key, answer.epoch)) {
                Some(&at) => {
                    let consistent = same_answer(&self.log.samples[at].answer, &answer);
                    self.log.inconsistent += u64::from(!consistent);
                }
                None => {
                    self.seen.insert((key, answer.epoch), self.log.samples.len());
                    self.log.samples.push(Sampled { key, answer });
                }
            }
        }
        Some((ms(done - sent), done))
    }

    pub fn finish(self) -> ReadLog {
        self.log
    }
}

/// Hands requests to the connections of a closed loop and summarises their
/// round trips, repetition by repetition.
pub struct Feed<'a> {
    items: &'a [u32],
    /// `None`: hand out `items` once. `Some(t)`: cycle through `items` and
    /// stop at the first cycle boundary at least `t` after the start.
    run_for: Option<Duration>,
    started: Instant,
    /// Where the connections record the host's speed between their requests;
    /// `None` for a feed nothing is measured on.
    speedometer: Option<&'a Speedometer>,
    state: Mutex<FeedState>,
}

#[derive(Default)]
struct FeedState {
    next: usize,
    stopped: bool,
    /// Repetitions with answers outstanding, oldest first: the connections
    /// are never more than one repetition apart.
    open: VecDeque<Open>,
    /// The repetition `open[0]` is.
    first_open: usize,
    /// Finished repetitions in which no request failed.
    closed: Vec<Repetition>,
    spare: Vec<f64>,
}

/// A repetition under way.
struct Open {
    /// When its first request was handed out.
    started: Instant,
    /// When its latest answer arrived.
    ended: Instant,
    rtt_ms: Vec<f64>,
    failed: usize,
}

impl<'a> Feed<'a> {
    pub fn once(items: &'a [u32]) -> Self {
        Feed {
            items,
            run_for: None,
            started: Instant::now(),
            speedometer: None,
            state: Mutex::default(),
        }
    }

    pub fn whole_cycles(items: &'a [u32], run_for: Duration, speedometer: &'a Speedometer) -> Self {
        Feed { run_for: Some(run_for), speedometer: Some(speedometer), ..Feed::once(items) }
    }

    /// The next request: its key, and its position in the feed counted from
    /// the start (the repetition it belongs to is `position / cycle length`).
    fn next(&self) -> Option<(u32, usize)> {
        let mut state = self.state.lock().expect("no feed user panics while holding the lock");
        let next = state.next;
        if state.stopped || self.items.is_empty() {
            return None;
        }
        let at_boundary = next.is_multiple_of(self.items.len());
        let over = match self.run_for {
            None => at_boundary && next > 0,
            Some(run_for) => at_boundary && next > 0 && self.started.elapsed() >= run_for,
        };
        if over {
            state.stopped = true;
            return None;
        }
        if at_boundary {
            let now = Instant::now();
            let mut rtt_ms = std::mem::take(&mut state.spare);
            rtt_ms.reserve(self.items.len());
            state.open.push_back(Open { started: now, ended: now, rtt_ms, failed: 0 });
        }
        state.next = next + 1;
        Some((self.items[next % self.items.len()], next))
    }

    /// Records what became of the request handed out at `position`: its round
    /// trip in milliseconds and when the answer arrived, or `None` if it
    /// failed. A repetition whose every request is accounted for is
    /// summarised and its round trips are let go.
    fn answered(&self, position: usize, outcome: Option<(f64, Instant)>) {
        let mut state = self.state.lock().expect("no feed user panics while holding the lock");
        let at = position / self.items.len() - state.first_open;
        let open = &mut state.open[at];
        match outcome {
            Some((rtt_ms, done)) => {
                open.rtt_ms.push(rtt_ms);
                open.ended = open.ended.max(done);
            }
            None => open.failed += 1,
        }
        while state.open.front().is_some_and(|o| o.rtt_ms.len() + o.failed == self.items.len()) {
            let mut done = state.open.pop_front().expect("checked above");
            state.first_open += 1;
            if done.failed == 0 {
                let wall_s = (done.ended - done.started).as_secs_f64();
                state.closed.push(Repetition::of(&mut done.rtt_ms, wall_s));
            }
            done.rtt_ms.clear();
            state.spare = done.rtt_ms;
        }
    }

    /// The finished repetitions, in order. A repetition's wall clock runs
    /// from the moment its first request was handed out — ahead of whatever
    /// `before` sends — to its last answer; consecutive repetitions overlap
    /// where one connection still waits for the last answer of one while the
    /// other has begun the next.
    pub fn repetitions(self) -> Vec<Repetition> {
        self.state.into_inner().expect("no feed user panicked while holding the lock").closed
    }
}

/// Closed loop: every connection sends its next request — the next one the
/// shared feed hands out — as soon as the previous answer arrived. `before`
/// runs on the connection ahead of each request, with the request's position
/// in the feed: the place to send something other than a query in between.
pub fn closed_loop<T: Transport>(
    clients: &mut [KspClient<T>],
    universe: &[QueryKey],
    feed: &Feed<'_>,
    before: &(dyn Fn(&mut KspClient<T>, usize) + Sync),
) -> Vec<ReadLog> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut reader = Reader::new(client, universe);
                    let mut sampled = None;
                    while let Some((key, position)) = feed.next() {
                        if let Some(speedometer) = feed.speedometer {
                            speedometer.sample_if_due(&mut sampled);
                        }
                        before(reader.client, position);
                        feed.answered(position, reader.issue(key, None));
                    }
                    reader.finish()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("a closed-loop connection panicked")).collect()
    })
}

/// A `before` that does nothing.
pub fn only_queries<T: Transport>(_: &mut KspClient<T>, _: usize) {}

/// Open loop: request `j` is due `j / rate_hz` seconds after the start,
/// whatever became of the requests before it. A connection that is still
/// waiting for a reply cannot send, so a stall makes the requests behind it
/// late — and their latency, counted from when they were due, says so.
pub fn open_loop<T: Transport>(
    clients: &mut [KspClient<T>],
    universe: &[QueryKey],
    cycle: &[u32],
    rate_hz: f64,
    run_for: Duration,
) -> Vec<ReadLog> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let next = &next;
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut reader = Reader::new(client, universe);
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let offset = Duration::from_secs_f64(j as f64 / rate_hz);
                        if offset >= run_for {
                            return reader.finish();
                        }
                        let due = started + offset;
                        sleep_until(due);
                        reader.issue(cycle[j % cycle.len()], Some(due));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("an open-loop connection panicked")).collect()
    })
}

/// Calls `op(j, due_j)` at `due_j = start + j × every` until `stop` is set.
/// The schedule is absolute: an `op` that overruns makes the next call late,
/// not the whole schedule.
pub fn on_schedule(every: Duration, stop: &AtomicBool, mut op: impl FnMut(usize, Instant)) {
    let started = Instant::now();
    for j in 0.. {
        let due = started + every * j as u32;
        sleep_until(due);
        if stop.load(Ordering::Acquire) {
            return;
        }
        op(j, due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::VertexId;
    use ksp_proto::{Request, Response, TransportError, TransportStats, WireQueryStats};

    /// Answers every query at once, except one reply that it holds back.
    struct Stalling {
        calls: u32,
        stall_call: u32,
        stall: Duration,
    }

    impl Transport for Stalling {
        fn roundtrip(&mut self, _request: Request) -> Result<Response, TransportError> {
            self.calls += 1;
            if self.calls == self.stall_call {
                std::thread::sleep(self.stall);
            }
            Ok(Response::Query(QueryAnswer {
                paths: Vec::new(),
                epoch: 0,
                cache_hit: true,
                latency_micros: 0,
                stats: WireQueryStats::default(),
            }))
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    #[test]
    fn a_stalled_reply_is_charged_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(400);
        let transport = Stalling { calls: 0, stall_call: 5, stall };
        let mut clients = [KspClient::new(transport)];
        let universe = [QueryKey::new(VertexId(0), VertexId(1), 1)];
        // 50 requests, one every 20 ms; the 5th reply takes 400 ms.
        let log =
            merge(open_loop(&mut clients, &universe, &[0], 50.0, Duration::from_millis(1000)));
        assert_eq!(log.rtt_ms.len(), 50);
        assert_eq!(log.errors, 0);
        let slow = |v: &[f64]| v.iter().filter(|&&x| x >= 100.0).count();
        // Timed from the send, one request was slow; but the users behind it
        // waited too: the requests due during the stall were answered 380,
        // 360, ... ms after they should have been.
        assert!(slow(&log.rtt_ms) >= 1);
        assert!(
            slow(&log.due_ms) >= slow(&log.rtt_ms) + 8,
            "{} slow from due, {} slow from send",
            slow(&log.due_ms),
            slow(&log.rtt_ms)
        );
        let worst_late = log.late_ms.iter().cloned().fold(0.0, f64::max);
        assert!(worst_late >= 300.0, "the generator reports firing {worst_late} ms late");
    }

    #[test]
    fn a_repetitions_wall_clock_covers_what_is_sent_between_its_requests() {
        // Instant replies, two repetitions of three requests, and a `before`
        // that takes 30 ms ahead of the first request of each repetition —
        // where `mixed_churn` publishes.
        let mut clients =
            [KspClient::new(Stalling { calls: 0, stall_call: 0, stall: Duration::ZERO })];
        let universe = [QueryKey::new(VertexId(0), VertexId(1), 1)];
        let items = [0, 0, 0];
        let meter = Speedometer::new();
        let feed = Feed::whole_cycles(&items, Duration::from_millis(40), &meter);
        let pause = Duration::from_millis(30);
        let before = |_: &mut KspClient<Stalling>, position: usize| {
            if position.is_multiple_of(3) {
                std::thread::sleep(pause);
            }
        };
        let log = merge(closed_loop(&mut clients, &universe, &feed, &before));
        assert_eq!((log.answered, log.errors), (6, 0));
        assert!(log.rtt_ms.is_empty(), "a closed loop's round trips go to the feed");
        let reps = feed.repetitions();
        assert_eq!(reps.len(), 2);
        assert!(!meter.take().is_empty(), "a measured loop records the host's speed");
        for rep in reps {
            assert_eq!(rep.ops, 3);
            assert!(rep.wall_s >= pause.as_secs_f64(), "{} s leaves out the pause", rep.wall_s);
            let busy = rep.worst_ms * 3.0 / 1e3;
            assert!(busy < pause.as_secs_f64() / 2.0, "round trips alone took {busy} s");
        }
    }

    #[test]
    fn a_repetition_with_a_failed_request_is_not_summarised() {
        let items = [0, 0];
        let meter = Speedometer::new();
        let feed = Feed::whole_cycles(&items, Duration::from_secs(3600), &meter);
        let now = Instant::now();
        let drawn: Vec<usize> = (0..6).map_while(|_| feed.next()).map(|(_, at)| at).collect();
        // The connections are one repetition apart; the second repetition
        // loses a request; a repetition closes only once all of it is in.
        feed.answered(drawn[0], Some((1.0, now)));
        feed.answered(drawn[2], None);
        feed.answered(drawn[3], Some((1.0, now)));
        feed.answered(drawn[1], Some((3.0, now)));
        feed.answered(drawn[4], Some((2.0, now)));
        let reps = feed.repetitions();
        assert_eq!(reps.len(), 1, "the third repetition still waits for an answer");
        assert_eq!((reps[0].ops, reps[0].worst_ms), (2, 3.0));
    }

    #[test]
    fn feeds_stop_at_cycle_boundaries() {
        let items = [7, 8, 9];
        let once = Feed::once(&items);
        let keys = |feed: &Feed<'_>, n: usize| -> Vec<u32> {
            (0..n).map_while(|_| feed.next()).map(|(key, _)| key).collect()
        };
        assert_eq!(keys(&once, 9), items);
        assert_eq!(once.next(), None);
        // Time already up: the cycle under way is still finished.
        let meter = Speedometer::new();
        let short = Feed::whole_cycles(&items, Duration::ZERO, &meter);
        assert_eq!(keys(&short, 9).len(), 3);
        // Time not up: boundaries are crossed.
        let long = Feed::whole_cycles(&items, Duration::from_secs(3600), &meter);
        assert_eq!(keys(&long, 7), [7, 8, 9, 7, 8, 9, 7]);
        assert_eq!(long.next(), Some((8, 7)), "positions count from the start of the feed");
    }
}
