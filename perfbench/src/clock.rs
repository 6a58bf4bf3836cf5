//! The benchmark's clock: CPU time of its own process, scaled to a
//! reference host speed by a probe.
//!
//! Every time the benchmark reports is read from
//! `CLOCK_PROCESS_CPUTIME_ID`: the CPU time of all of this process's
//! threads (the optimizer's worker thread included), not wall-clock time.
//! On a shared host a run's wall time also counts the time it waited for
//! its CPU, behind another process on the same CPU or while the
//! hypervisor ran another guest (steal time). On the 2-vCPU host of
//! README.md a busy loop pinned to the run's CPU doubled a `replay` run's
//! wall time and moved its CPU time by 2–13 %.
//!
//! CPU time still drifts with the host: while other guests load the
//! physical core or its caches, the same instructions take longer. On
//! that host the same `replay` op list took 20.1 and then 15.4 CPU
//! seconds a minute apart. [`probe_ns`] measures the host's current speed
//! with a fixed kernel that is not program code, read right before and
//! right after each timed call, and [`scale`] turns the call's CPU time
//! into CPU time at the reference speed [`PROBE_REF_NS`]. A change to the
//! program moves the call's CPU time and never the probe, so every gain
//! or regression shows in full.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::ffi::c_long;
use std::hash::BuildHasherDefault;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout, and the
    // clock id is a constant every Linux kernel since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Seconds between two [`cpu_ns`] readings.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

/// Keys counted per probe chunk, into [`PROBE_SLOTS`] hash-map slots.
const PROBE_KEYS: u64 = 6_000;
const PROBE_SLOTS: u64 = 1 << 10;
/// Chunks per probe; the median is the reading, so one interrupted or
/// cache-cold chunk does not count.
const PROBE_CHUNKS: usize = 3;
/// What [`probe_ns`] reads at the reference speed: about its median over
/// 20-second runs on the 2-vCPU host of README.md.
pub const PROBE_REF_NS: f64 = 200_000.0;

/// One probe chunk: count pseudo-random keys in a hash map, sort the
/// counts and index them in a B-tree — hashing, branching and pointer
/// chasing over cache-resident data, like the simulator, interpreter
/// and JSON folds the workloads run. Of four kernels tried against ops
/// repeated 60 times each, this one (then at about three times this
/// size, read once per op) tracked the op times best: scaling
/// by it took the spread (standard deviation of the log) of a repeated
/// op from 0.19 to 0.14 on `native`, 0.18 to 0.15 on `minicu`, 0.11 to
/// 0.08 on `replay`, and from 0.12 to 0.13 on `optimize`. A UTF-8 scan
/// slowed under load more than the workloads did and doubled
/// `optimize`'s spread; a multiply chain and a pointer chase through
/// 8 MB barely tracked them.
fn probe_chunk() -> usize {
    type Fixed = BuildHasherDefault<DefaultHasher>;
    let mut counts: HashMap<u64, u64, Fixed> = HashMap::default();
    let mut r = 0x9e37_79b9_7f4a_7c15u64;
    for k in 0..PROBE_KEYS {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        *counts.entry(r % PROBE_SLOTS).or_default() += k;
    }
    let mut v: Vec<u64> = counts.into_values().collect();
    v.sort_unstable();
    let tree: BTreeMap<u64, usize> = v
        .iter()
        .enumerate()
        .map(|(i, x)| (x ^ i as u64, i))
        .collect();
    tree.len()
}

/// CPU time, in nanoseconds, of one probe chunk (the median of
/// [`PROBE_CHUNKS`]). The kernel is fixed benchmark code: no change to
/// the program moves it, only the host's speed does.
pub fn probe_ns() -> f64 {
    let mut t: Vec<f64> = (0..PROBE_CHUNKS)
        .map(|_| {
            let t0 = cpu_ns();
            std::hint::black_box(probe_chunk());
            (cpu_ns() - t0) as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[PROBE_CHUNKS / 2]
}

/// Factor that turns CPU time measured between the probe readings
/// `before` and `after` into CPU time at the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * PROBE_REF_NS / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        // Only a lower bound holds: other test threads share the process.
        let t0 = cpu_ns();
        let mut last = t0;
        while secs(t0, last) < 0.005 {
            let now = cpu_ns();
            assert!(now >= last, "process CPU time went backwards");
            last = now;
        }
    }

    #[test]
    fn probe_reads_a_positive_time_and_scale_inverts_it() {
        let p = probe_ns();
        assert!(p > 0.0 && p.is_finite(), "{p}");
        assert_eq!(scale(PROBE_REF_NS, PROBE_REF_NS), 1.0);
        assert_eq!(scale(2.0 * PROBE_REF_NS, 2.0 * PROBE_REF_NS), 0.5);
    }
}
