//! Anti-pattern 1: alternating CPU/GPU accesses in managed memory
//! (paper §III-A).
//!
//! "The runtime analysis examines the recorded data and reports whether
//! there are accesses to the same memory location from both CPU and GPU,
//! where at least one of the accesses is a write." Only managed memory
//! participates — `cudaMalloc`/host memory cannot ping-pong.

use hetsim::AllocKind;

use crate::antipattern::Finding;
use crate::smt::SmtEntry;

/// Number of words in `e` matching the alternating predicate.
pub fn alternating_elements(e: &SmtEntry) -> usize {
    e.shadow.iter().filter(|w| w.alternating()).count()
}

/// Detect the pattern on one allocation.
pub fn detect(e: &SmtEntry) -> Option<Finding> {
    if e.kind != AllocKind::Managed {
        return None;
    }
    let elements = alternating_elements(e);
    (elements > 0).then(|| Finding::AlternatingAccess {
        name: e.display_name(),
        base: e.base,
        elements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use hetsim::Device;

    const GPU: Device = Device::Gpu;

    fn entry_after(f: impl FnOnce(&mut Tracer)) -> Tracer {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 256, AllocKind::Managed);
        f(&mut t);
        t
    }

    #[test]
    fn cpu_write_gpu_read_is_alternating() {
        let t = entry_after(|t| {
            t.write(Device::Cpu, 0x10_0000, 4);
            t.read(GPU, 0x10_0000, 4);
            t.write(Device::Cpu, 0x10_0008, 8); // 2 more words
            t.read(GPU, 0x10_0008, 8);
        });
        let e = t.smt.lookup(0x10_0000).unwrap();
        match detect(e) {
            Some(Finding::AlternatingAccess { elements, .. }) => assert_eq!(elements, 3),
            other => panic!("expected finding, got {other:?}"),
        }
    }

    #[test]
    fn gpu_write_cpu_read_is_alternating() {
        let t = entry_after(|t| {
            t.write(GPU, 0x10_0000, 4);
            t.read(Device::Cpu, 0x10_0000, 4);
        });
        assert!(detect(t.smt.lookup(0x10_0000).unwrap()).is_some());
    }

    #[test]
    fn read_only_sharing_is_not_flagged() {
        let t = entry_after(|t| {
            t.read(Device::Cpu, 0x10_0000, 4);
            t.read(GPU, 0x10_0000, 4);
        });
        assert!(detect(t.smt.lookup(0x10_0000).unwrap()).is_none());
    }

    #[test]
    fn exclusive_access_is_not_flagged() {
        let t = entry_after(|t| {
            for i in 0..64 {
                t.write(GPU, 0x10_0000 + i * 4, 4);
                t.read(GPU, 0x10_0000 + i * 4, 4);
            }
        });
        assert!(detect(t.smt.lookup(0x10_0000).unwrap()).is_none());
    }

    #[test]
    fn disjoint_regions_in_same_alloc_not_flagged() {
        // CPU uses the first half, GPU the second: no single word is
        // shared, so no alternating accesses (even though the *page* may
        // still ping-pong — the paper calls that the false-sharing-like
        // effect and its remedy is object splitting).
        let t = entry_after(|t| {
            for i in 0..32 {
                t.write(Device::Cpu, 0x10_0000 + i * 4, 4);
            }
            for i in 32..64 {
                t.write(GPU, 0x10_0000 + i * 4, 4);
            }
        });
        assert!(detect(t.smt.lookup(0x10_0000).unwrap()).is_none());
    }

    #[test]
    fn non_managed_memory_never_flagged() {
        let mut t = Tracer::new();
        t.trace_alloc(0x20_0000, 64, AllocKind::Host);
        t.write(Device::Cpu, 0x20_0000, 4);
        t.read(GPU, 0x20_0000, 4); // (would be illegal on hw anyway)
        assert!(detect(t.smt.lookup(0x20_0000).unwrap()).is_none());
    }
}
