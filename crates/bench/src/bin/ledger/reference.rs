//! The reference job, and the host's speed measured by it.
//!
//! The machine the ledger runs on is a virtual one on a shared host, and how
//! fast it executes the same instructions changes by a third and more, for
//! minutes at a time, with what the host's other tenants do (same binary,
//! same inputs, one processor: 33 000 cached queries a second in one minute
//! and 24 000 in the next). No run length the benchmark contract allows
//! averages that out. So the ledger measures it: between their requests the
//! generator's threads run a fixed computation of the ledger's own and time
//! it by the calling thread's CPU clock, which stops while the thread is not
//! running: what the scheduler or the hypervisor does to the thread is not in
//! the figure, only how fast the processor currently runs this kind of code.
//! A run's wall-clock figures are then stated at the nominal speed, the one
//! at which the job takes `NOMINAL_US` (see `speed`).
//!
//! "This kind of code" matters. The slow minutes cost a loop that computes in
//! registers a tenth, a shortest-path search over flat arrays a fifth, and
//! the stack under test — hash maps, small allocations, system calls, a large
//! footprint of instructions — a third to a half. The job is therefore the
//! textbook search as the repository writes it: distances and parents in hash
//! maps, the network as one allocation per vertex, a binary heap. Timed
//! beside the repository's own `dijkstra_path` in the sizing passes, it slowed
//! with it, and the stack's figures slowed with both. But it is the ledger's
//! own code on the ledger's own data, so a change to the repository cannot
//! change it.

use crate::stats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::os::raw::{c_int, c_long};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// CPU microseconds the job takes on the sizing host while nothing else
/// contends for the core: the speed every figure is stated at.
pub const NOMINAL_US: f64 = 600.0;

/// A generator thread runs the job when it has not for this long: about one
/// eightieth of the thread's time.
const EVERY: Duration = Duration::from_millis(50);

const VERTICES: usize = 2048;
const DEGREE: usize = 4;
const SOURCE: u32 = 17;

/// The calling thread's CPU time so far, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanoseconds: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut time = Timespec { seconds: 0, nanoseconds: 0 };
    // SAFETY: `time` is a valid `struct timespec` for the call to fill in.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the kernel keeps a CPU clock for every thread");
    time.seconds as u64 * 1_000_000_000 + time.nanoseconds as u64
}

/// Runs the reference job and keeps what it took.
pub struct Speedometer {
    /// `adjacency[v]`: the neighbours of `v` and the weights of the edges to
    /// them.
    adjacency: Vec<Vec<(u32, u64)>>,
    /// CPU microseconds of each run of the job since the last `take`.
    samples_us: Mutex<Vec<f64>>,
}

impl Speedometer {
    pub fn new() -> Self {
        // A ring with three chords per vertex, from a fixed xorshift stream.
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let adjacency = (0..VERTICES)
            .map(|v| {
                (0..DEGREE)
                    .map(|i| {
                        let to =
                            if i == 0 { (v + 1) % VERTICES } else { next() as usize % VERTICES };
                        (to as u32, 1 + next() % 1000)
                    })
                    .collect()
            })
            .collect();
        Speedometer { adjacency, samples_us: Mutex::default() }
    }

    /// The job: the distance from `SOURCE` to every vertex and the tree that
    /// realises them; returns a checksum of both.
    fn search(&self) -> u64 {
        let mut distance = HashMap::from([(SOURCE, 0_u64)]);
        let mut parent = HashMap::new();
        let mut heap = BinaryHeap::from([(Reverse(0_u64), SOURCE)]);
        while let Some((Reverse(d), v)) = heap.pop() {
            if distance.get(&v).is_some_and(|&best| d > best) {
                continue;
            }
            for &(to, weight) in &self.adjacency[v as usize] {
                let through = d + weight;
                if distance.get(&to).is_none_or(|&best| through < best) {
                    distance.insert(to, through);
                    parent.insert(to, v);
                    heap.push((Reverse(through), to));
                }
            }
        }
        distance.values().fold(parent.len() as u64, |sum, &d| sum.wrapping_add(d))
    }

    /// Runs the job once on the calling thread and records its CPU time.
    pub fn sample(&self) {
        let started = thread_cpu_ns();
        std::hint::black_box(self.search());
        let took_us = (thread_cpu_ns() - started) as f64 / 1e3;
        self.samples_us.lock().expect("no sampler panics while holding the lock").push(took_us);
    }

    /// `sample`, if the calling thread — whose `last` this is — has not
    /// sampled for `EVERY`.
    pub fn sample_if_due(&self, last: &mut Option<Instant>) {
        if last.is_none_or(|at| at.elapsed() >= EVERY) {
            self.sample();
            *last = Some(Instant::now());
        }
    }

    /// The samples recorded since the last call.
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.samples_us.lock().expect("no sampler panicked"))
    }
}

/// The host's speed while `samples_us` were taken, as a share of the nominal
/// one: `NOMINAL_US` ÷ the median sample (sorts them); 1 where there is no
/// sample. A time measured at speed `s` would have been `time × s` at the
/// nominal speed, and a rate `rate ÷ s`.
pub fn speed(samples_us: &mut [f64]) -> f64 {
    if samples_us.is_empty() {
        1.0
    } else {
        NOMINAL_US / stats::median(samples_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_is_the_same_computation_every_time() {
        let meter = Speedometer::new();
        assert_eq!(meter.search(), meter.search());
        assert_eq!(meter.search(), Speedometer::new().search());
        // Every vertex is on the ring, so every vertex is reached, and the
        // checksum is the tree's size plus distances of at most 1 000 a hop.
        let sum = meter.search();
        assert!(sum >= VERTICES as u64 - 1 && sum < (VERTICES * VERTICES * 1000) as u64);
    }

    #[test]
    fn samples_are_cpu_time_and_due_every_so_often() {
        let meter = Speedometer::new();
        let mut last = None;
        meter.sample_if_due(&mut last);
        meter.sample_if_due(&mut last);
        assert_eq!(meter.take().len(), 1, "the second call came too soon");
        last = Some(Instant::now() - EVERY);
        meter.sample_if_due(&mut last);
        let mut samples = meter.take();
        assert_eq!(samples.len(), 1);
        assert!(samples[0] > 0.0 && meter.take().is_empty());
        // A sleeping thread uses no CPU time.
        let started = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(20));
        assert!(thread_cpu_ns() - started < 10_000_000);
        assert_eq!(speed(&mut []), 1.0);
        assert_eq!(speed(&mut [NOMINAL_US * 2.0, NOMINAL_US * 2.0, 1.0]), 0.5);
        assert!(speed(&mut samples) > 0.0);
    }
}
