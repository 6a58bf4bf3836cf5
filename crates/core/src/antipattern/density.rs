//! Anti-pattern 2: low access density (paper §III-A).
//!
//! density(block) = touched addresses / block size. A block is diagnosed
//! when it has at least one access and its density is at or below the
//! configured threshold.

use crate::antipattern::{AnalysisConfig, Finding};
use crate::smt::SmtEntry;

/// Whole-allocation access density in `[0, 1]`.
pub fn density(e: &SmtEntry) -> f64 {
    if e.shadow.is_empty() {
        return 0.0;
    }
    let touched = e.shadow.iter().filter(|w| w.touched()).count();
    touched as f64 / e.shadow.len() as f64
}

/// Per-block densities: `(word offset, density)` for consecutive blocks of
/// `block_words` (the final block may be shorter).
pub fn block_densities(e: &SmtEntry, block_words: usize) -> Vec<(usize, f64)> {
    assert!(block_words > 0, "block size must be positive");
    e.shadow
        .chunks(block_words)
        .enumerate()
        .map(|(i, chunk)| {
            let touched = chunk.iter().filter(|w| w.touched()).count();
            (i * block_words, touched as f64 / chunk.len() as f64)
        })
        .collect()
}

/// Detect low density on one allocation: a whole-allocation finding and,
/// if a block size is configured, per-block findings for sparse blocks
/// inside otherwise-dense allocations.
pub fn detect(e: &SmtEntry, cfg: &AnalysisConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    let d = density(e);
    let accessed = e.shadow.iter().any(|w| w.touched());
    if accessed && d <= cfg.density_threshold {
        out.push(Finding::LowAccessDensity {
            name: e.display_name(),
            base: e.base,
            density: d,
            threshold: cfg.density_threshold,
        });
    }
    if let Some(bw) = cfg.density_block_words {
        for (off, bd) in block_densities(e, bw) {
            let block = &e.shadow[off..(off + bw).min(e.shadow.len())];
            let touched = block.iter().any(|w| w.touched());
            if touched && bd <= cfg.density_threshold && d > cfg.density_threshold {
                // Only report blocks when the allocation as a whole was
                // not already flagged, to avoid drowning the user.
                out.push(Finding::LowDensityBlock {
                    name: e.display_name(),
                    base: e.base,
                    block_off: off,
                    block_words: block.len(),
                    density: bd,
                    threshold: cfg.density_threshold,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use hetsim::{AllocKind, Device};

    fn tracer_alloc(words: usize) -> Tracer {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, (words * 4) as u64, AllocKind::Managed);
        t
    }

    fn touch(t: &mut Tracer, words: impl Iterator<Item = usize>) {
        for w in words {
            t.write(Device::Gpu, 0x10_0000 + (w as u64) * 4, 4);
        }
    }

    #[test]
    fn density_fraction() {
        let mut t = tracer_alloc(100);
        touch(&mut t, 0..9);
        let e = t.smt.lookup(0x10_0000).unwrap();
        assert!((density(e) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn untouched_allocation_not_flagged() {
        let t = tracer_alloc(100);
        let e = t.smt.lookup(0x10_0000).unwrap();
        assert!(detect(e, &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn sparse_allocation_flagged() {
        let mut t = tracer_alloc(100);
        touch(&mut t, 0..10); // 10 %
        let e = t.smt.lookup(0x10_0000).unwrap();
        let f = detect(e, &AnalysisConfig::default());
        assert!(matches!(
            f.as_slice(),
            [Finding::LowAccessDensity { density, .. }] if (*density - 0.1).abs() < 1e-12
        ));
    }

    #[test]
    fn dense_allocation_not_flagged() {
        let mut t = tracer_alloc(100);
        touch(&mut t, 0..80); // 80 %
        let e = t.smt.lookup(0x10_0000).unwrap();
        assert!(detect(e, &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn threshold_is_inclusive() {
        // "density <= threshold" per the paper's formula.
        let mut t = tracer_alloc(100);
        touch(&mut t, 0..50);
        let e = t.smt.lookup(0x10_0000).unwrap();
        let cfg = AnalysisConfig {
            density_threshold: 0.5,
            ..AnalysisConfig::default()
        };
        assert_eq!(detect(e, &cfg).len(), 1);
    }

    #[test]
    fn block_granularity_finds_sparse_corner() {
        // Dense overall (75 %) but the last quarter is untouched except
        // one word.
        let mut t = tracer_alloc(128);
        touch(&mut t, 0..96);
        touch(&mut t, std::iter::once(120));
        let e = t.smt.lookup(0x10_0000).unwrap();
        let cfg = AnalysisConfig {
            density_block_words: Some(32),
            ..AnalysisConfig::default()
        };
        let f = detect(e, &cfg);
        assert_eq!(f.len(), 1);
        assert!(matches!(
            &f[0],
            Finding::LowDensityBlock { block_off: 96, .. }
        ));
    }

    #[test]
    fn block_densities_partition_correctly() {
        let mut t = tracer_alloc(10);
        touch(&mut t, [0usize, 1, 2, 3, 8].into_iter());
        let e = t.smt.lookup(0x10_0000).unwrap();
        let b = block_densities(e, 4);
        assert_eq!(b.len(), 3); // 4 + 4 + 2 words
        assert_eq!(b[0], (0, 1.0));
        assert_eq!(b[1], (4, 0.0));
        assert_eq!(b[2], (8, 0.5));
    }
}
