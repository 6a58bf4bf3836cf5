//! Diagnostic output: the summative per-allocation statistics of the
//! paper's `tracePrint` (Fig. 4), in textual form.

use std::fmt::Write as _;

use hetsim::{Addr, AllocKind};

use crate::flags::AccessFlags;
use crate::smt::{Smt, SmtEntry};
use crate::tracer::Tracer;

/// Summative access statistics for one allocation over the current epoch.
///
/// All counts are *distinct word addresses* — "multiple writes to the same
/// address by the same device are counted as one" (paper §III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocSummary {
    /// Display name (user label or address).
    pub name: String,
    pub base: Addr,
    pub size: u64,
    pub kind: AllocKind,
    /// Whether the user attached a name via the diagnostic pragma.
    pub named: bool,
    /// Words written by the CPU (`C` column).
    pub writes_c: usize,
    /// Words written by a GPU (`G` column).
    pub writes_g: usize,
    /// Words read whose value was written by the CPU and read by the CPU.
    pub r_cc: usize,
    /// CPU-written, GPU-read (`C>G`).
    pub r_cg: usize,
    /// GPU-written, CPU-read (`G>C`).
    pub r_gc: usize,
    /// GPU-written, GPU-read (`G>G`).
    pub r_gg: usize,
    /// Fraction of words accessed at least once, in percent.
    pub density_pct: f64,
    /// Words matching the alternating-access anti-pattern.
    pub alternating: usize,
    /// Whether the allocation is still live (false: freed this epoch,
    /// shadow retained for this diagnostic).
    pub live: bool,
}

impl AllocSummary {
    /// Whether anything touched this allocation during the epoch.
    pub fn touched(&self) -> bool {
        self.writes_c + self.writes_g + self.r_cc + self.r_cg + self.r_gc + self.r_gg > 0
    }
}

/// Compute the summary of one SMT entry.
pub fn summarize_entry(e: &SmtEntry) -> AllocSummary {
    let mut s = AllocSummary {
        name: e.display_name(),
        base: e.base,
        size: e.size,
        kind: e.kind,
        named: e.label.is_some(),
        writes_c: 0,
        writes_g: 0,
        r_cc: 0,
        r_cg: 0,
        r_gc: 0,
        r_gg: 0,
        density_pct: 0.0,
        alternating: 0,
        live: e.live,
    };
    let mut touched = 0usize;
    for w in &e.shadow {
        if w.touched() {
            touched += 1;
        }
        if w.get(AccessFlags::CPU_WROTE) {
            s.writes_c += 1;
        }
        if w.get(AccessFlags::GPU_WROTE) {
            s.writes_g += 1;
        }
        if w.get(AccessFlags::R_CC) {
            s.r_cc += 1;
        }
        if w.get(AccessFlags::R_CG) {
            s.r_cg += 1;
        }
        if w.get(AccessFlags::R_GC) {
            s.r_gc += 1;
        }
        if w.get(AccessFlags::R_GG) {
            s.r_gg += 1;
        }
        if w.alternating() {
            s.alternating += 1;
        }
    }
    if !e.shadow.is_empty() {
        s.density_pct = 100.0 * touched as f64 / e.shadow.len() as f64;
    }
    s
}

/// Summarize the whole table, in allocation order. When `named_only` is
/// set, only allocations registered through the diagnostic pragma appear —
/// matching the paper's "checking N *named* allocations".
pub fn summarize(smt: &Smt, named_only: bool) -> Vec<AllocSummary> {
    let mut entries: Vec<&SmtEntry> = smt
        .iter()
        .filter(|e| !named_only || e.label.is_some())
        .collect();
    entries.sort_by_key(|e| e.serial);
    entries.into_iter().map(summarize_entry).collect()
}

/// Render summaries in the layout of the paper's Fig. 4.
pub fn format_fig4(summaries: &[AllocSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "*** checking {} named allocations", summaries.len());
    for s in summaries {
        let _ = writeln!(out, "{}", s.name);
        let _ = writeln!(out, "write counts                    write>read counts");
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>8} {:>8} {:>8}",
            "C", "G", "C>C", "C>G", "G>C", "G>G"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>8} {:>8} {:>8}",
            s.writes_c, s.writes_g, s.r_cc, s.r_cg, s.r_gc, s.r_gg
        );
        let _ = writeln!(
            out,
            "access density (in %): {}",
            s.density_pct.round() as i64
        );
        let _ = writeln!(out, "{} elements with alternating accesses", s.alternating);
        let _ = writeln!(out);
    }
    out
}

/// The paper's `tracePrint`: summarize, render, then reset the shadow
/// memory and release deferred frees (a new epoch begins).
pub fn trace_print(tracer: &mut Tracer, out: &mut dyn std::io::Write, named_only: bool) {
    let summaries = summarize(&tracer.smt, named_only);
    let _ = out.write_all(format_fig4(&summaries).as_bytes());
    tracer.end_epoch();
}

/// Like [`trace_print`] but returns the summaries instead of printing, and
/// still advances the epoch. Harnesses use this to capture per-iteration
/// data.
pub fn trace_collect(tracer: &mut Tracer, named_only: bool) -> Vec<AllocSummary> {
    let summaries = summarize(&tracer.smt, named_only);
    tracer.end_epoch();
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::Device;

    const GPU: Device = Device::Gpu;

    fn demo_tracer() -> Tracer {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 400, AllocKind::Managed); // 100 words
        t.name(0x10_0000, "dom");
        // CPU writes 27 words.
        for i in 0..27 {
            t.write(Device::Cpu, 0x10_0000 + 4 * i, 4);
        }
        // GPU reads 4 of them: C>G.
        for i in 0..4 {
            t.read(GPU, 0x10_0000 + 4 * i, 4);
        }
        t
    }

    #[test]
    fn summary_counts_distinct_words() {
        let mut t = demo_tracer();
        // Write the same word many times: still one.
        for _ in 0..10 {
            t.write(Device::Cpu, 0x10_0000, 4);
        }
        let s = &summarize(&t.smt, false)[0];
        assert_eq!(s.writes_c, 27);
        assert_eq!(s.writes_g, 0);
        assert_eq!(s.r_cg, 4);
        assert_eq!(s.alternating, 4); // CPU wrote + GPU read those 4
    }

    #[test]
    fn density_is_touched_over_total() {
        let t = demo_tracer();
        let s = &summarize(&t.smt, false)[0];
        assert!((s.density_pct - 27.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_layout_contains_expected_lines() {
        let t = demo_tracer();
        let txt = format_fig4(&summarize(&t.smt, true));
        assert!(txt.contains("*** checking 1 named allocations"));
        assert!(txt.contains("dom"));
        assert!(txt.contains("write counts"));
        assert!(txt.contains("C>C"));
        assert!(txt.contains("access density (in %): 27"));
        assert!(txt.contains("4 elements with alternating accesses"));
    }

    #[test]
    fn named_only_filters() {
        let mut t = demo_tracer();
        t.trace_alloc(0x20_0000, 64, AllocKind::Host); // unnamed
        assert_eq!(summarize(&t.smt, true).len(), 1);
        assert_eq!(summarize(&t.smt, false).len(), 2);
    }

    #[test]
    fn trace_print_resets_epoch() {
        let mut t = demo_tracer();
        let mut sink = Vec::new();
        trace_print(&mut t, &mut sink, true);
        assert!(!sink.is_empty());
        let s = &summarize(&t.smt, false)[0];
        assert!(!s.touched());
    }

    #[test]
    fn summary_of_freed_allocation_still_reported() {
        let mut t = demo_tracer();
        t.trace_free(0x10_0000);
        let s = &summarize(&t.smt, false)[0];
        assert!(!s.live);
        assert_eq!(s.writes_c, 27); // shadow survived the free
    }
}
