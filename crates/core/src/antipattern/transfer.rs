//! Anti-pattern 3: unnecessary data transfers (paper §III-A/§III-C), plus
//! the derived findings the evaluation reports in Table II (unused
//! allocations, round-trip copies of unmodified data, transfers
//! overwritten before use).
//!
//! The detector works on `cudaMalloc` memory that was populated or drained
//! by explicit `cudaMemcpy`: it scans the transferred ranges for
//! contiguous word runs that the GPU never consumed (inbound) or never
//! produced (outbound).

use hetsim::AllocKind;

use crate::antipattern::{AnalysisConfig, Finding};
use crate::flags::AccessFlags;
use crate::smt::{SmtEntry, WORD_BYTES};

/// Word-index coverage of a list of byte ranges.
fn coverage(e: &SmtEntry, ranges: &[(u64, u64)]) -> Vec<bool> {
    let mut cov = vec![false; e.words()];
    for &(off, len) in ranges {
        if len == 0 {
            continue;
        }
        let first = (off / WORD_BYTES) as usize;
        let last = (((off + len - 1) / WORD_BYTES) as usize).min(cov.len().saturating_sub(1));
        for c in &mut cov[first..=last] {
            *c = true;
        }
    }
    cov
}

/// Contiguous `true` runs of at least `min_len`, as `(start, len)`.
fn runs(mask: &[bool], min_len: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &m) in mask.iter().enumerate() {
        match (m, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                if i - s >= min_len {
                    out.push((s, i - s));
                }
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        if mask.len() - s >= min_len {
            out.push((s, mask.len() - s));
        }
    }
    out
}

/// Detect unnecessary-transfer findings on one allocation.
pub fn detect(e: &SmtEntry, cfg: &AnalysisConfig) -> Vec<Finding> {
    let mut out = Vec::new();

    // Unused allocation: nothing — not even a transfer — touched it.
    if !e.shadow.iter().any(|w| w.touched()) {
        if e.kind != AllocKind::Host && e.size > 0 {
            out.push(Finding::UnusedAllocation {
                name: e.display_name(),
                base: e.base,
                size: e.size,
            });
        }
        return out;
    }

    // The transfer analysis proper applies to cudaMalloc memory fed by
    // explicit copies (§III-A: "Memory allocated with cudaMalloc").
    if !matches!(e.kind, AllocKind::Device) {
        return out;
    }

    let min = cfg.min_transfer_run_words.max(1);

    if !e.copied_in.is_empty() {
        let cov_in = coverage(e, &e.copied_in);
        // Inbound words the GPU never read nor wrote.
        let dead: Vec<bool> = cov_in
            .iter()
            .zip(&e.shadow)
            .map(|(&c, w)| c && !w.gpu_touched())
            .collect();
        for (off, len) in runs(&dead, min) {
            out.push(Finding::TransferredNeverAccessed {
                name: e.display_name(),
                base: e.base,
                off_words: off,
                len_words: len,
            });
        }
        // Inbound words the GPU wrote without ever reading the
        // transferred value: the copy was wasted even though the memory
        // is used.
        let clobbered: Vec<bool> = cov_in
            .iter()
            .zip(&e.shadow)
            .map(|(&c, w)| c && w.get(AccessFlags::GPU_WROTE) && !w.get(AccessFlags::R_CG))
            .collect();
        for (off, len) in runs(&clobbered, min) {
            out.push(Finding::TransferredOverwritten {
                name: e.display_name(),
                base: e.base,
                off_words: off,
                len_words: len,
            });
        }
    }

    if !e.copied_out.is_empty() {
        let cov_out = coverage(e, &e.copied_out);
        // Outbound words the GPU never modified.
        let stale: Vec<bool> = cov_out
            .iter()
            .zip(&e.shadow)
            .map(|(&c, w)| c && !w.get(AccessFlags::GPU_WROTE))
            .collect();
        for (off, len) in runs(&stale, min) {
            out.push(Finding::TransferredOutUnmodified {
                name: e.display_name(),
                base: e.base,
                off_words: off,
                len_words: len,
            });
        }
        // The whole buffer made a round trip with zero GPU writes.
        if !e.copied_in.is_empty() && !e.shadow.iter().any(|w| w.get(AccessFlags::GPU_WROTE)) {
            out.push(Finding::RoundTripUnmodified {
                name: e.display_name(),
                base: e.base,
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use hetsim::{CopyKind, Device};

    const GPU: Device = Device::Gpu;
    const DEV_BASE: u64 = 0x20_0000;
    const HOST_BASE: u64 = 0x10_0000;

    fn setup(bytes: u64) -> Tracer {
        let mut t = Tracer::new();
        t.trace_alloc(HOST_BASE, bytes, AllocKind::Host);
        t.trace_alloc(DEV_BASE, bytes, AllocKind::Device);
        t
    }

    fn cfg() -> AnalysisConfig {
        AnalysisConfig {
            min_transfer_run_words: 4,
            ..AnalysisConfig::default()
        }
    }

    fn detect_dev(t: &Tracer) -> Vec<Finding> {
        detect(t.smt.lookup(DEV_BASE).unwrap(), &cfg())
    }

    #[test]
    fn fully_consumed_transfer_is_clean() {
        let mut t = setup(1024);
        t.trace_memcpy(DEV_BASE, HOST_BASE, 1024, CopyKind::HostToDevice);
        for w in 0..256 {
            t.read(GPU, DEV_BASE + w * 4, 4);
        }
        assert!(detect_dev(&t).is_empty());
    }

    #[test]
    fn untouched_transfer_tail_flagged() {
        let mut t = setup(1024);
        t.trace_memcpy(DEV_BASE, HOST_BASE, 1024, CopyKind::HostToDevice);
        // GPU only reads the first 64 of 256 words.
        for w in 0..64 {
            t.read(GPU, DEV_BASE + w * 4, 4);
        }
        let f = detect_dev(&t);
        assert!(
            f.iter().any(|f| matches!(
                f,
                Finding::TransferredNeverAccessed {
                    off_words: 64,
                    len_words: 192,
                    ..
                }
            )),
            "findings: {f:?}"
        );
    }

    #[test]
    fn short_gaps_below_min_run_ignored() {
        let mut t = setup(256); // 64 words
        t.trace_memcpy(DEV_BASE, HOST_BASE, 256, CopyKind::HostToDevice);
        // GPU reads everything except words 10 and 11 (a 2-run < min 4).
        for w in 0..64 {
            if w != 10 && w != 11 {
                t.read(GPU, DEV_BASE + w * 4, 4);
            }
        }
        assert!(detect_dev(&t).is_empty());
    }

    #[test]
    fn transfer_out_of_unmodified_data_flagged() {
        // The Backprop input_cuda pattern: in, read, out — never written.
        let mut t = setup(512);
        t.trace_memcpy(DEV_BASE, HOST_BASE, 512, CopyKind::HostToDevice);
        for w in 0..128 {
            t.read(GPU, DEV_BASE + w * 4, 4);
        }
        t.trace_memcpy(HOST_BASE, DEV_BASE, 512, CopyKind::DeviceToHost);
        let f = detect_dev(&t);
        assert!(f
            .iter()
            .any(|f| matches!(f, Finding::TransferredOutUnmodified { len_words: 128, .. })));
        assert!(f
            .iter()
            .any(|f| matches!(f, Finding::RoundTripUnmodified { .. })));
    }

    #[test]
    fn overwritten_before_read_flagged() {
        // The Gaussian m_cuda pattern: transferred in, then every word is
        // written by the GPU before being read.
        let mut t = setup(256);
        t.trace_memcpy(DEV_BASE, HOST_BASE, 256, CopyKind::HostToDevice);
        for w in 0..64 {
            t.write(GPU, DEV_BASE + w * 4, 4);
            t.read(GPU, DEV_BASE + w * 4, 4); // reads its own value: G>G
        }
        let f = detect_dev(&t);
        assert!(f
            .iter()
            .any(|f| matches!(f, Finding::TransferredOverwritten { len_words: 64, .. })));
    }

    #[test]
    fn consumed_then_written_not_flagged_as_overwritten() {
        let mut t = setup(256);
        t.trace_memcpy(DEV_BASE, HOST_BASE, 256, CopyKind::HostToDevice);
        for w in 0..64 {
            t.read(GPU, DEV_BASE + w * 4, 4); // consumes transfer (C>G)
            t.write(GPU, DEV_BASE + w * 4, 4);
        }
        assert!(detect_dev(&t).is_empty());
    }

    #[test]
    fn unused_allocation_flagged() {
        // The Backprop output_hidden_cuda pattern.
        let t = setup(4096);
        let f = detect_dev(&t);
        assert!(matches!(
            f.as_slice(),
            [Finding::UnusedAllocation { size: 4096, .. }]
        ));
    }

    #[test]
    fn host_allocations_not_analyzed() {
        let t = setup(256);
        let f = detect(t.smt.lookup(HOST_BASE).unwrap(), &cfg());
        assert!(f.is_empty());
    }

    #[test]
    fn runs_helper_edge_cases() {
        assert_eq!(runs(&[], 1), vec![]);
        assert_eq!(runs(&[true, true, true], 1), vec![(0, 3)]);
        assert_eq!(runs(&[false, true, true, false, true], 2), vec![(1, 2)]);
        assert_eq!(runs(&[true, false, true, true], 1), vec![(0, 1), (2, 2)]);
    }
}
