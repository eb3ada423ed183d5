//! Clocks and process facts: wall time, process CPU time, peak RSS,
//! core count. Linux only — the peak comes from `/proc`.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, every thread) this process has consumed.
/// `/proc/self/stat` carries the same figure in 10 ms ticks, which is 4%
/// of the shortest round; the POSIX clock is nanosecond-grained.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid out `timespec`
    // (two 64-bit fields on 64-bit Linux, which the cfg above pins), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` under both clocks: `(result, wall seconds, CPU seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = process_cpu_secs();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_secs() - cpu0;
    (out, wall, cpu)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
