//! Placement advisor: turn an epoch's shadow data into concrete
//! `cudaMemAdvise` suggestions.
//!
//! The paper's remedies (§III-A) are stated for a human: "provide
//! appropriate memory access hints for individual memory regions". This
//! module closes that loop mechanically — the direction the paper's
//! related-work discussion of RTHMS and its own future work point at.
//!
//! Heuristics, per managed allocation:
//!
//! * written by exactly one side and read by the other ⇒ `SetReadMostly`
//!   only if writes are rare relative to cross reads; otherwise
//!   `SetPreferredLocation(writer)` so the readers map it remotely;
//! * accessed (read+write) by both sides on the *same* words with writes
//!   from both ⇒ no hint fixes it: suggest splitting the object
//!   (duplication), like the paper's LULESH remedy;
//! * touched by a single side only ⇒ `SetPreferredLocation` there, which
//!   pins it against eviction-induced wandering;
//! * read-only everywhere ⇒ `SetReadMostly` is always safe.

use hetsim::{AllocKind, Device, MemAdvise};

use crate::flags::AccessFlags;
use crate::smt::{Smt, SmtEntry};

/// One suggestion for one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// Allocation display name.
    pub name: String,
    /// Base address (apply target).
    pub base: hetsim::Addr,
    /// Size in bytes.
    pub size: u64,
    /// The recommended action.
    pub action: Action,
    /// One-line rationale derived from the observed counters.
    pub rationale: String,
}

/// Recommended placement action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Apply this `cudaMemAdvise` to the whole allocation.
    Advise(MemAdvise),
    /// No single hint helps: split the object into per-processor parts
    /// (the paper's domain-duplication remedy).
    SplitObject,
    /// Access pattern already clean; leave it alone.
    LeaveAlone,
}

impl std::fmt::Display for Suggestion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.action {
            Action::Advise(a) => format!("cudaMemAdvise({a:?})"),
            Action::SplitObject => "split into CPU part and GPU part".to_string(),
            Action::LeaveAlone => "leave alone".to_string(),
        };
        write!(f, "{}: {what} — {}", self.name, self.rationale)
    }
}

/// Per-allocation access profile the heuristics run on.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Profile {
    pub(crate) cpu_writes: usize,
    pub(crate) gpu_writes: usize,
    pub(crate) cpu_reads: usize,
    pub(crate) gpu_reads: usize,
    pub(crate) cross_reads: usize, // C>G + G>C words
    pub(crate) alternating: usize,
    pub(crate) touched: usize,
}

pub(crate) fn profile(e: &SmtEntry) -> Profile {
    let mut p = Profile::default();
    for w in &e.shadow {
        if w.get(AccessFlags::CPU_WROTE) {
            p.cpu_writes += 1;
        }
        if w.get(AccessFlags::GPU_WROTE) {
            p.gpu_writes += 1;
        }
        if w.get(AccessFlags::R_CC) || w.get(AccessFlags::R_GC) {
            p.cpu_reads += 1;
        }
        if w.get(AccessFlags::R_CG) || w.get(AccessFlags::R_GG) {
            p.gpu_reads += 1;
        }
        if w.get(AccessFlags::R_CG) || w.get(AccessFlags::R_GC) {
            p.cross_reads += 1;
        }
        if w.alternating() {
            p.alternating += 1;
        }
        if w.touched() {
            p.touched += 1;
        }
    }
    p
}

/// Produce suggestions for every managed allocation in the table.
pub fn suggest(smt: &Smt) -> Vec<Suggestion> {
    let mut out = Vec::new();
    for e in smt.iter() {
        if e.kind != AllocKind::Managed {
            continue;
        }
        // Freed-but-not-yet-purged entries keep their shadow for the
        // epoch's diagnostics, but advice for a dead pointer is useless
        // (and `apply` on its recycled base would hint the wrong data).
        if !e.live {
            continue;
        }
        let p = profile(e);
        if p.touched == 0 {
            continue;
        }
        let s = classify(e, p);
        out.push(s);
    }
    out
}

/// Platform-aware suggestions: on cache-coherent interconnects (the
/// paper's IBM+Volta NVLink system) cross-processor reads never migrate
/// pages, so read-duplication hints only buy invalidation overhead — the
/// paper measured ReadMostly at 0.8x there (Fig. 6). This variant
/// downgrades those hints to `LeaveAlone` on such platforms.
pub fn suggest_for(smt: &Smt, platform: &hetsim::Platform) -> Vec<Suggestion> {
    let mut out = suggest(smt);
    if platform.cpu_direct_access_gpu {
        for s in &mut out {
            if matches!(s.action, Action::Advise(MemAdvise::SetReadMostly)) {
                s.action = Action::LeaveAlone;
                s.rationale = format!(
                    "{} — but the coherent interconnect serves cross reads                      remotely, so duplication would only add invalidations",
                    s.rationale
                );
            }
        }
    }
    out
}

fn classify(e: &SmtEntry, p: Profile) -> Suggestion {
    let mk = |action: Action, rationale: String| Suggestion {
        name: e.display_name(),
        base: e.base,
        size: e.size,
        action,
        rationale,
    };

    let writes = p.cpu_writes + p.gpu_writes;
    let cpu_only = p.gpu_writes == 0 && p.gpu_reads == 0;
    let gpu_only = p.cpu_writes == 0 && p.cpu_reads == 0;

    if writes == 0 {
        // Read-only data: duplication is free of invalidations.
        return mk(
            Action::Advise(MemAdvise::SetReadMostly),
            "read-only on both sides; read duplication has no downside".into(),
        );
    }
    if cpu_only {
        return mk(
            Action::Advise(MemAdvise::SetPreferredLocation(Device::Cpu)),
            "CPU-exclusive; pin it to the host".into(),
        );
    }
    if gpu_only {
        return mk(
            Action::Advise(MemAdvise::SetPreferredLocation(Device::GPU0)),
            "GPU-exclusive; pin it to the device".into(),
        );
    }

    // Both sides involved from here on.
    if p.cpu_writes > 0 && p.gpu_writes > 0 && p.alternating > 0 {
        return mk(
            Action::SplitObject,
            format!(
                "both processors write it ({} alternating words); no hint \
                 removes the ping-pong",
                p.alternating
            ),
        );
    }
    // Single-writer, cross-read data: ReadMostly when writes are rare
    // compared to the reads that benefit from duplication.
    if p.cross_reads >= 4 * writes {
        return mk(
            Action::Advise(MemAdvise::SetReadMostly),
            format!(
                "{} cross-processor reads vs {} written words; duplication \
                 amortizes the occasional invalidation",
                p.cross_reads, writes
            ),
        );
    }
    // Frequently-written shared data: keep it at the writer, map readers.
    let writer = if p.cpu_writes >= p.gpu_writes {
        Device::Cpu
    } else {
        Device::GPU0
    };
    mk(
        Action::Advise(MemAdvise::SetPreferredLocation(writer)),
        format!(
            "written mostly by {} ({}/{} words) and shared; keep it there \
             and let the other side map it",
            writer,
            p.cpu_writes.max(p.gpu_writes),
            writes
        ),
    )
}

/// Apply every `Advise` suggestion to a machine (the auto-placement
/// demo). Returns how many were applied.
pub fn apply(machine: &mut hetsim::Machine, suggestions: &[Suggestion]) -> usize {
    let mut n = 0;
    for s in suggestions {
        if let Action::Advise(a) = &s.action {
            if machine.try_mem_advise(s.base, s.size, *a).is_ok() {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    const GPU: Device = Device::GPU0;

    fn tracer_with(base: u64, words: usize) -> Tracer {
        let mut t = Tracer::new();
        t.trace_alloc(base, (words * 4) as u64, AllocKind::Managed);
        t
    }

    fn one(t: &Tracer) -> Suggestion {
        let v = suggest(&t.smt);
        assert_eq!(v.len(), 1, "{v:?}");
        v.into_iter().next().unwrap()
    }

    #[test]
    fn read_only_data_gets_read_mostly() {
        let mut t = tracer_with(0x10_0000, 16);
        for i in 0..16u64 {
            t.read(Device::Cpu, 0x10_0000 + i * 4, 4);
            t.read(GPU, 0x10_0000 + i * 4, 4);
        }
        assert_eq!(one(&t).action, Action::Advise(MemAdvise::SetReadMostly));
    }

    #[test]
    fn gpu_exclusive_data_pinned_to_device() {
        let mut t = tracer_with(0x10_0000, 16);
        for i in 0..16u64 {
            t.write(GPU, 0x10_0000 + i * 4, 4);
            t.read(GPU, 0x10_0000 + i * 4, 4);
        }
        assert_eq!(
            one(&t).action,
            Action::Advise(MemAdvise::SetPreferredLocation(GPU))
        );
    }

    #[test]
    fn rarely_written_cross_read_gets_read_mostly() {
        // The LULESH domain shape: CPU writes a couple of words, the GPU
        // reads many.
        let mut t = tracer_with(0x10_0000, 64);
        t.write(Device::Cpu, 0x10_0000, 4);
        for i in 0..64u64 {
            t.read(GPU, 0x10_0000 + i * 4, 4);
        }
        assert_eq!(one(&t).action, Action::Advise(MemAdvise::SetReadMostly));
    }

    #[test]
    fn heavily_written_shared_data_prefers_the_writer() {
        let mut t = tracer_with(0x10_0000, 16);
        for i in 0..16u64 {
            t.write(Device::Cpu, 0x10_0000 + i * 4, 4);
        }
        // GPU reads only a couple of words: advice should keep the data
        // at the CPU rather than duplicate.
        t.read(GPU, 0x10_0000, 4);
        t.read(GPU, 0x10_0004, 4);
        assert_eq!(
            one(&t).action,
            Action::Advise(MemAdvise::SetPreferredLocation(Device::Cpu))
        );
    }

    #[test]
    fn dual_writer_data_suggests_splitting() {
        let mut t = tracer_with(0x10_0000, 16);
        for i in 0..8u64 {
            t.write(Device::Cpu, 0x10_0000 + i * 4, 4);
            t.read(GPU, 0x10_0000 + i * 4, 4);
            t.write(GPU, 0x10_0000 + i * 4, 4);
            t.read(Device::Cpu, 0x10_0000 + i * 4, 4);
        }
        assert_eq!(one(&t).action, Action::SplitObject);
    }

    #[test]
    fn untouched_and_unmanaged_allocations_are_skipped() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Managed); // untouched
        t.trace_alloc(0x20_0000, 64, AllocKind::Device(0)); // not managed
        t.write(GPU, 0x20_0000, 4);
        assert!(suggest(&t.smt).is_empty());
    }

    #[test]
    fn apply_sets_the_advice_on_a_machine() {
        use hetsim::{platform, Machine};
        let mut m = Machine::new(platform::intel_pascal());
        let tracer = crate::attach_tracer(&mut m);
        let p = m.alloc_managed::<f64>(64);
        tracer.borrow_mut().name(p.addr, "data");
        // Read-only on both sides.
        let _ = m.ld(p, 0);
        m.launch("r", 4, |t, m| {
            let _ = m.ld(p, t);
        });
        let suggestions = suggest(&tracer.borrow().smt);
        assert_eq!(apply(&mut m, &suggestions), 1);
        assert!(m.page_state(p.addr).read_mostly);
    }

    #[test]
    fn coherent_platforms_downgrade_read_mostly() {
        let mut t = tracer_with(0x10_0000, 64);
        t.write(Device::Cpu, 0x10_0000, 4);
        for i in 0..64u64 {
            t.read(GPU, 0x10_0000 + i * 4, 4);
        }
        let pcie = suggest_for(&t.smt, &hetsim::platform::intel_pascal());
        assert_eq!(pcie[0].action, Action::Advise(MemAdvise::SetReadMostly));
        let nvlink = suggest_for(&t.smt, &hetsim::platform::power9_volta());
        assert_eq!(nvlink[0].action, Action::LeaveAlone);
        assert!(nvlink[0].rationale.contains("coherent interconnect"));
        // Preferred-location pins are kept on both platforms.
        let mut t2 = tracer_with(0x10_0000, 8);
        t2.write(GPU, 0x10_0000, 4);
        let nv2 = suggest_for(&t2.smt, &hetsim::platform::power9_volta());
        assert_eq!(
            nv2[0].action,
            Action::Advise(MemAdvise::SetPreferredLocation(GPU))
        );
    }

    #[test]
    fn empty_trace_yields_no_suggestions() {
        let t = Tracer::new();
        assert!(suggest(&t.smt).is_empty());
        assert!(suggest_for(&t.smt, &hetsim::platform::intel_pascal()).is_empty());
    }

    #[test]
    fn device_only_allocations_are_never_advised() {
        // cudaMalloc memory is not managed: cudaMemAdvise does not apply,
        // even when the access pattern would otherwise scream ReadMostly.
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Device(0));
        t.trace_alloc(0x20_0000, 64, AllocKind::Device(1));
        for i in 0..16u64 {
            t.read(GPU, 0x10_0000 + i * 4, 4);
            t.read(Device::Gpu(1), 0x20_0000 + i * 4, 4);
        }
        assert!(suggest(&t.smt).is_empty());
    }

    #[test]
    fn read_only_everywhere_block_is_read_mostly_with_zero_writes() {
        // Every word read by both sides, none written anywhere: the
        // writes==0 branch must win before any writer-ratio heuristic.
        let mut t = tracer_with(0x10_0000, 32);
        for i in 0..32u64 {
            t.read(Device::Cpu, 0x10_0000 + i * 4, 4);
            t.read(GPU, 0x10_0000 + i * 4, 4);
            t.read(GPU, 0x10_0000 + i * 4, 4); // repeat reads are idempotent
        }
        let s = one(&t);
        assert_eq!(s.action, Action::Advise(MemAdvise::SetReadMostly));
        assert!(s.rationale.contains("read-only"), "{}", s.rationale);
    }

    #[test]
    fn allocations_freed_before_epoch_end_are_skipped() {
        let mut t = tracer_with(0x10_0000, 16);
        t.trace_alloc(0x20_0000, 64, AllocKind::Managed);
        for i in 0..16u64 {
            t.write(GPU, 0x10_0000 + i * 4, 4);
            t.write(GPU, 0x20_0000 + i * 4, 4);
        }
        // Free the first allocation mid-epoch: its shadow survives until
        // purge (for diagnostics) but the advisor must not act on it.
        t.trace_free(0x10_0000);
        let v = suggest(&t.smt);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].base, 0x20_0000);
        // After the purge the result is the same.
        t.smt.purge_dead();
        let v = suggest(&t.smt);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].base, 0x20_0000);
    }

    #[test]
    fn display_is_informative() {
        let mut t = tracer_with(0x10_0000, 8);
        t.smt.set_label(0x10_0000, "dom");
        t.write(Device::Cpu, 0x10_0000, 4);
        for i in 0..8u64 {
            t.read(GPU, 0x10_0000 + i * 4, 4);
        }
        let text = one(&t).to_string();
        assert!(
            text.starts_with("dom: cudaMemAdvise(SetReadMostly)"),
            "{text}"
        );
        assert!(text.contains("cross-processor reads"), "{text}");
    }
}
