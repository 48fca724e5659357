//! Process-wide counters read from `/proc/self`, and the one scheduling knob
//! the ledger turns. The ledger runs server and load generator in one
//! process, so every figure here covers both sides.

use std::fs;
use std::os::raw::c_int;

/// Words of a processor mask: room for 1 024 processors, what `cpu_set_t`
/// holds.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, bytes: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, bytes: usize, mask: *const u64) -> c_int;
}

/// While this lives, the thread that made it — and every thread started from
/// it, which is the whole stack under test and the load generator — runs on
/// one processor: the highest-numbered one the thread was allowed. Dropping
/// it gives the thread its processors back.
pub struct OneProcessor {
    allowed: [u64; MASK_WORDS],
}

impl OneProcessor {
    /// `None` where the kernel will not say or take a mask; the run then
    /// goes ahead on every processor.
    pub fn confine() -> Option<Self> {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is `size_of_val(&allowed)` writable bytes, and
        // pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        // SAFETY: `one` is `size_of_val(&one)` readable bytes.
        (unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } == 0)
            .then_some(OneProcessor { allowed })
    }
}

impl Drop for OneProcessor {
    fn drop(&mut self) {
        // SAFETY: as in `confine`. A refusal leaves the thread confined,
        // which harms nothing that runs after a workload.
        unsafe { sched_setaffinity(0, size_of_val(&self.allowed), self.allowed.as_ptr()) };
    }
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    status_kb("/proc/self/status", "VmHWM:") / 1024.0
}

/// `read`- plus `write`-family system calls issued so far (`syscr + syscw`).
pub fn rw_syscalls() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    field("syscr:") + field("syscw:")
}

/// User plus system CPU time consumed so far by all threads, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    let total = ticks(fields.next()) + ticks(fields.next());
    total * 1000.0 / clock_ticks_per_second()
}

/// Voluntary plus involuntary context switches of every live thread.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .map(|task| {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.rsplit(':').next()?.trim().parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

fn status_kb(path: &str, key: &str) -> f64 {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: c_int) -> std::os::raw::c_long;
    }
    const SC_CLK_TCK: c_int = 2;
    // SAFETY: `sysconf` takes a plain integer and has no preconditions; `std`
    // already links the C library it lives in.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let (io, cpu) = (rw_syscalls(), cpu_ms());
        let mut x = 0u64;
        while cpu_ms() < cpu + 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(rw_syscalls() > io, "reading /proc is itself a read syscall");
        assert!(context_switches() > 0);
    }

    fn allowed_processors() -> u32 {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: as in `OneProcessor::confine`.
        assert_eq!(unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) }, 0);
        mask.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn one_processor_confines_this_thread_and_its_children_until_dropped() {
        // A thread of its own: other tests must not inherit the mask.
        std::thread::spawn(|| {
            let before = allowed_processors();
            let confined = OneProcessor::confine().expect("a thread may narrow its own mask");
            assert_eq!(allowed_processors(), 1);
            assert_eq!(std::thread::spawn(allowed_processors).join().unwrap(), 1);
            drop(confined);
            assert_eq!(allowed_processors(), before);
        })
        .join()
        .unwrap();
    }
}
