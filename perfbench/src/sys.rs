//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, core count, and the file system under the
//! scratch directory.

use std::os::raw::{c_int, c_long};
use std::path::Path;

/// `struct timespec` on 64-bit Linux (the only platform this runs on).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// Words of a `cpu_set_t` (1,024 CPUs, glibc's fixed size).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: c_int = -8;

/// Keep every thread's allocations in glibc's main arena; returns whether
/// the allocator accepted. Call before any thread is spawned.
///
/// The server starts half a dozen threads per round, glibc hands each a
/// malloc arena of its own, and which arena ends up holding the engine's
/// state differs from run to run: `serve_wire`'s peak RSS read 21.2–22.4
/// MiB with per-thread arenas and 20.7–21.1 MiB with one, at the same
/// throughput. On the one CPU a run is pinned to, arenas have no
/// contention to relieve.
pub fn one_malloc_arena() -> bool {
    // SAFETY: `mallopt` only records a tunable of the allocator; it is
    // called from the main thread before any other thread exists.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Pin this thread, and every thread it spawns from here on, to the first
/// CPU it is allowed on; returns that CPU, or `None` when the kernel
/// refuses (the run then goes ahead unpinned).
///
/// On the two-core reference VM a server, its clients and their hand-offs
/// land either on one core or across both, run by run, and the two
/// placements differ by 45 % in throughput and 55 % in CPU time
/// (cross-core wake-ups are expensive under a hypervisor). One core is the
/// placement that repeats.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, the layout `sched_getaffinity` fills; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `size` bytes holding a CPU the
    // kernel just reported as allowed; the call only reads it.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// CPU seconds consumed by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout the
    // call expects, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cores the scheduler gives this process (ask before pinning).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// File-system type holding `dir`: the longest mount point in
/// `/proc/mounts` that prefixes it (`unknown` when that cannot be read).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
