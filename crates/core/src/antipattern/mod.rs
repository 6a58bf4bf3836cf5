//! The three memory-access anti-patterns of paper §III-A, plus the
//! additional transfer findings the evaluation reports for the Rodinia
//! benchmarks (Table II).

pub mod alternating;
pub mod density;
pub mod online;
pub mod transfer;

use hetsim::Addr;

use crate::report::Report;
use crate::smt::Smt;

/// Tunable thresholds of the runtime analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Low-access-density threshold: allocations (and blocks) with at
    /// least one access and density `<=` this are diagnosed. The paper
    /// suggests 50 %.
    pub density_threshold: f64,
    /// Optional block granularity (in 32-bit words) for per-block density
    /// ("for a user-defined block size", §III-C). `None` analyzes whole
    /// allocations only.
    pub density_block_words: Option<usize>,
    /// Minimum length (in words) of a contiguous transferred-but-unused
    /// run to report ("the minimum block size of these contiguous memory
    /// regions is parametrizable", §III-C).
    pub min_transfer_run_words: usize,
    /// Report unnamed allocations too (the paper's tool analyzes
    /// everything; names only improve messages).
    pub include_unnamed: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            density_threshold: 0.5,
            density_block_words: None,
            min_transfer_run_words: 16,
            include_unnamed: true,
        }
    }
}

/// One diagnosed anti-pattern instance.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// Anti-pattern 1: both processors accessed the same managed words,
    /// at least one side writing.
    AlternatingAccess {
        name: String,
        base: Addr,
        /// Number of words matching the predicate.
        elements: usize,
    },
    /// Anti-pattern 2: the allocation was accessed but only sparsely.
    LowAccessDensity {
        name: String,
        base: Addr,
        /// Measured density in `[0, 1]`.
        density: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// Anti-pattern 2 at block granularity: one sparse block inside an
    /// otherwise dense allocation.
    LowDensityBlock {
        name: String,
        base: Addr,
        /// Block start, in words from the allocation base.
        block_off: usize,
        /// Block length in words.
        block_words: usize,
        density: f64,
        threshold: f64,
    },
    /// Anti-pattern 3: a contiguous run was copied host→device but the
    /// GPU never touched it.
    TransferredNeverAccessed {
        name: String,
        base: Addr,
        /// Run start in words from the allocation base.
        off_words: usize,
        /// Run length in words.
        len_words: usize,
    },
    /// Anti-pattern 3: a contiguous run was copied device→host although
    /// the GPU never modified it.
    TransferredOutUnmodified {
        name: String,
        base: Addr,
        off_words: usize,
        len_words: usize,
    },
    /// A transferred-in run was completely overwritten by the GPU before
    /// any GPU read — the initial transfer was wasted (the Gaussian
    /// `m_cuda` finding of Table II).
    TransferredOverwritten {
        name: String,
        base: Addr,
        off_words: usize,
        len_words: usize,
    },
    /// The allocation was never accessed at all (the Backprop
    /// `output_hidden_cuda` finding of Table II).
    UnusedAllocation { name: String, base: Addr, size: u64 },
    /// Data was copied to the device and back although the GPU never
    /// wrote any of it (the Backprop `input_cuda` finding of Table II).
    RoundTripUnmodified { name: String, base: Addr },
}

/// Coarse classification, for counting findings by type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    Alternating,
    LowDensity,
    UnnecessaryTransfer,
    UnusedAllocation,
}

impl Finding {
    /// Which anti-pattern family the finding belongs to.
    pub fn kind(&self) -> FindingKind {
        match self {
            Finding::AlternatingAccess { .. } => FindingKind::Alternating,
            Finding::LowAccessDensity { .. } | Finding::LowDensityBlock { .. } => {
                FindingKind::LowDensity
            }
            Finding::TransferredNeverAccessed { .. }
            | Finding::TransferredOutUnmodified { .. }
            | Finding::TransferredOverwritten { .. }
            | Finding::RoundTripUnmodified { .. } => FindingKind::UnnecessaryTransfer,
            Finding::UnusedAllocation { .. } => FindingKind::UnusedAllocation,
        }
    }

    /// The allocation name the finding refers to.
    pub fn alloc_name(&self) -> &str {
        match self {
            Finding::AlternatingAccess { name, .. }
            | Finding::LowAccessDensity { name, .. }
            | Finding::LowDensityBlock { name, .. }
            | Finding::TransferredNeverAccessed { name, .. }
            | Finding::TransferredOutUnmodified { name, .. }
            | Finding::TransferredOverwritten { name, .. }
            | Finding::UnusedAllocation { name, .. }
            | Finding::RoundTripUnmodified { name, .. } => name,
        }
    }

    /// The remedy suggestions of paper §III-A for this pattern family.
    pub fn remedy(&self) -> &'static str {
        match self.kind() {
            FindingKind::Alternating => {
                "provide cudaMemAdvise hints matching the access pattern, or split \
                 the object into a CPU part and a GPU part"
            }
            FindingKind::LowDensity => {
                "partition the transfer to overlap computation and communication, \
                 optimize the data layout, or use cudaMallocManaged"
            }
            FindingKind::UnnecessaryTransfer => {
                "revise the algorithm to eliminate transfers of memory that is not \
                 accessed or not altered"
            }
            FindingKind::UnusedAllocation => "remove the allocation",
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::AlternatingAccess { name, elements, .. } => write!(
                f,
                "{name}: {elements} elements with alternating CPU/GPU accesses"
            ),
            Finding::LowAccessDensity {
                name,
                density,
                threshold,
                ..
            } => write!(
                f,
                "{name}: low access density {:.0}% (threshold {:.0}%)",
                density * 100.0,
                threshold * 100.0
            ),
            Finding::LowDensityBlock {
                name,
                block_off,
                block_words,
                density,
                ..
            } => write!(
                f,
                "{name}: block at word {block_off} (+{block_words}) has low access \
                 density {:.0}%",
                density * 100.0
            ),
            Finding::TransferredNeverAccessed {
                name,
                off_words,
                len_words,
                ..
            } => write!(
                f,
                "{name}: {len_words} words at word offset {off_words} were copied to \
                 the GPU but never accessed there"
            ),
            Finding::TransferredOutUnmodified {
                name,
                off_words,
                len_words,
                ..
            } => write!(
                f,
                "{name}: {len_words} words at word offset {off_words} were copied back \
                 to the CPU although the GPU never modified them"
            ),
            Finding::TransferredOverwritten {
                name,
                off_words,
                len_words,
                ..
            } => write!(
                f,
                "{name}: {len_words} words at word offset {off_words} were copied to \
                 the GPU but overwritten before any GPU read — the transfer can be \
                 eliminated"
            ),
            Finding::UnusedAllocation { name, size, .. } => {
                write!(f, "{name}: allocation of {size} bytes is never used")
            }
            Finding::RoundTripUnmodified { name, .. } => write!(
                f,
                "{name}: copied to the GPU and back although the GPU never modified it"
            ),
        }
    }
}

/// Run every detector over the table and collect the findings into a
/// [`Report`]. Does not reset the shadow memory.
pub fn analyze(smt: &Smt, cfg: &AnalysisConfig) -> Report {
    let mut findings = Vec::new();
    for e in smt.iter() {
        if !cfg.include_unnamed && e.label.is_none() {
            continue;
        }
        findings.extend(alternating::detect(e));
        findings.extend(density::detect(e, cfg));
        findings.extend(transfer::detect(e, cfg));
    }
    Report::new(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use hetsim::{AllocKind, CopyKind, Device};

    #[test]
    fn analyze_runs_all_detectors() {
        let mut t = Tracer::new();
        // Alternating: CPU writes, GPU reads the same word.
        t.trace_alloc(0x10_0000, 4096, AllocKind::Managed);
        t.write(Device::Cpu, 0x10_0000, 4);
        t.read(Device::Gpu, 0x10_0000, 4);
        // Unnecessary transfer: H2D copy never touched by the GPU.
        t.trace_alloc(0x20_0000, 4096, AllocKind::Device);
        t.trace_alloc(0x30_0000, 4096, AllocKind::Host);
        t.trace_memcpy(0x20_0000, 0x30_0000, 4096, CopyKind::HostToDevice);
        let report = analyze(&t.smt, &AnalysisConfig::default());
        let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind()).collect();
        assert!(kinds.contains(&FindingKind::Alternating));
        assert!(kinds.contains(&FindingKind::UnnecessaryTransfer));
        assert!(kinds.contains(&FindingKind::LowDensity)); // 1 word of 1024
    }

    #[test]
    fn include_unnamed_false_skips_anonymous() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Managed);
        t.write(Device::Cpu, 0x10_0000, 4);
        t.read(Device::Gpu, 0x10_0000, 4);
        let cfg = AnalysisConfig {
            include_unnamed: false,
            ..AnalysisConfig::default()
        };
        assert!(analyze(&t.smt, &cfg).is_empty());
        t.name(0x10_0000, "x");
        assert!(!analyze(&t.smt, &cfg).is_empty());
    }

    #[test]
    fn finding_display_and_remedies() {
        let f = Finding::AlternatingAccess {
            name: "dom".into(),
            base: 0x1000,
            elements: 18,
        };
        assert_eq!(
            f.to_string(),
            "dom: 18 elements with alternating CPU/GPU accesses"
        );
        assert!(f.remedy().contains("cudaMemAdvise"));
        let f = Finding::UnusedAllocation {
            name: "output_hidden_cuda".into(),
            base: 0x1000,
            size: 64,
        };
        assert_eq!(f.kind(), FindingKind::UnusedAllocation);
        assert!(f.to_string().contains("never used"));
    }
}
