//! Platform presets: the three CPU/GPU combinations of the paper's
//! evaluation (§IV), expressed as cost-model parameters.
//!
//! The absolute values are order-of-magnitude estimates from public
//! documentation (PCIe 3.0 x16 ≈ 12 GB/s effective, NVLink 2.0 ≈ 60 GB/s
//! effective to a Power9, UM fault service ≈ tens of microseconds). The
//! reproduction targets *shapes* — who wins and where the crossovers fall —
//! so only the ratios between parameters matter.

/// Interconnect family between host and GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interconnect {
    /// PCI Express 3.0 x16 (the two Intel systems).
    Pcie3,
    /// NVLink 2.0 (the IBM Power9 system). Cache-coherent: the CPU can
    /// load/store GPU-resident managed pages directly.
    Nvlink2,
}

/// Cost-model parameters of a simulated heterogeneous node.
///
/// All times are nanoseconds, all bandwidths bytes per nanosecond
/// (1 B/ns = 1 GB/s).
#[derive(Debug, Clone)]
pub struct Platform {
    /// Human-readable platform name as used in the paper's figures.
    pub name: &'static str,
    /// Interconnect family (drives the coherence shortcuts below).
    pub interconnect: Interconnect,
    /// Unified-memory page size in bytes. CUDA migrates in 64 KiB chunks
    /// on the evaluated GPUs.
    pub page_size: u64,
    /// Per-word cost of a CPU access that hits local memory.
    pub cpu_word_ns: f64,
    /// Per-word cost of a GPU access that hits device memory, *per thread*
    /// before dividing by `gpu_parallelism`.
    pub gpu_word_ns: f64,
    /// Effective number of GPU lanes making progress concurrently. Word
    /// and compute costs inside a kernel are divided by this.
    pub gpu_parallelism: f64,
    /// Cost of one CPU arithmetic operation (`compute` hints on the host).
    pub cpu_flop_ns: f64,
    /// Cost of one GPU arithmetic operation per thread (divided by
    /// `gpu_parallelism`).
    pub gpu_flop_ns: f64,
    /// Driver overhead of servicing one page fault (trap, TLB shootdown,
    /// driver bookkeeping) — *excluding* the data movement itself.
    pub fault_ns: f64,
    /// Interconnect bandwidth for page migrations and explicit copies.
    pub link_bw: f64,
    /// Fixed latency of one explicit `cudaMemcpy` call.
    pub memcpy_latency_ns: f64,
    /// Per-word cost of a *remote* access through an established mapping
    /// (AccessedBy / preferred-location mappings; also CPU direct access
    /// over NVLink).
    pub remote_word_ns: f64,
    /// Cost of invalidating one read-duplicated copy on a write to a
    /// ReadMostly page.
    pub invalidate_ns: f64,
    /// Cost of establishing a remote mapping for a page.
    pub map_ns: f64,
    /// GPU physical memory capacity in bytes. Managed pages resident on
    /// the GPU beyond this trigger eviction (oversubscription; see `gpumem`).
    pub gpu_mem_bytes: u64,
    /// Fixed cost of launching a kernel.
    pub kernel_launch_ns: f64,
    /// Host-side cost of an explicit `cudaStreamSynchronize` (driver call,
    /// event polling). Chunked-overlap schemes pay this once per chunk,
    /// which is why overlapping stops paying off when the interconnect is
    /// fast (Pathfinder on NVLink, paper Fig. 11).
    pub stream_sync_ns: f64,
    /// Whether the CPU can directly load/store GPU-resident managed pages
    /// without migrating them (NVLink address-translation coherence). On
    /// PCIe systems a CPU touch of a GPU-resident page always migrates it
    /// back to the host.
    pub cpu_direct_access_gpu: bool,
    /// Whether `cudaMemcpyAsync` from pageable host memory degenerates to
    /// a synchronous staged copy. True on the Power9 test system — the
    /// reason the paper's overlapped Pathfinder "remains slower on IBM
    /// plus Nvidia Volta" (Fig. 11) despite the faster link.
    pub async_pageable_copy_serializes: bool,
}

// `Machine` is deliberately not `Send` (it shares hooks via
// `Rc<RefCell<..>>`), so parallel evaluation hands each worker thread a
// `Platform` and lets it build its own machine. That contract only works
// while `Platform` stays plain data; this assert turns a field that
// breaks it into a compile error here instead of a confusing bound
// failure in `xplacer-optimize`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Platform>()
};

impl Platform {
    /// Time to move `bytes` across the host/GPU interconnect.
    #[inline]
    pub fn xfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.link_bw
    }

    /// Full cost of migrating one page: fault service plus data movement.
    #[inline]
    pub fn page_migration_ns(&self) -> f64 {
        self.fault_ns + self.xfer_ns(self.page_size)
    }

    /// Number of the page containing `addr`.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr / self.page_size
    }
}

/// Intel E5-2695 v4 + Nvidia Pascal P100 over PCIe 3.0 (paper's primary
/// x86 testbed).
pub fn intel_pascal() -> Platform {
    Platform {
        name: "Intel+Pascal",
        interconnect: Interconnect::Pcie3,
        page_size: 64 * 1024,
        cpu_word_ns: 1.2,
        gpu_word_ns: 12.0,
        gpu_parallelism: 1792.0,
        cpu_flop_ns: 0.5,
        gpu_flop_ns: 1.0,
        fault_ns: 25_000.0,
        link_bw: 12.0,
        memcpy_latency_ns: 10_000.0,
        remote_word_ns: 450.0,
        invalidate_ns: 4_000.0,
        map_ns: 6_000.0,
        gpu_mem_bytes: 16 << 30,
        kernel_launch_ns: 8_000.0,
        stream_sync_ns: 9_000.0,
        cpu_direct_access_gpu: false,
        async_pageable_copy_serializes: false,
    }
}

/// Intel E5-2698 v3 + Nvidia Volta V100 over PCIe 3.0 (the third system of
/// Fig. 6). Faster GPU, same interconnect pain.
pub fn intel_volta() -> Platform {
    Platform {
        name: "Intel+Volta",
        interconnect: Interconnect::Pcie3,
        page_size: 64 * 1024,
        cpu_word_ns: 1.3,
        gpu_word_ns: 10.0,
        gpu_parallelism: 2560.0,
        cpu_flop_ns: 0.55,
        gpu_flop_ns: 0.7,
        fault_ns: 30_000.0,
        link_bw: 12.0,
        memcpy_latency_ns: 10_000.0,
        remote_word_ns: 450.0,
        invalidate_ns: 4_000.0,
        map_ns: 6_000.0,
        gpu_mem_bytes: 16 << 30,
        kernel_launch_ns: 7_000.0,
        stream_sync_ns: 9_000.0,
        cpu_direct_access_gpu: false,
        async_pageable_copy_serializes: false,
    }
}

/// IBM Power9 + Nvidia Volta V100 over NVLink 2.0. High interconnect
/// bandwidth, cheap faults, and cache-coherent CPU access to GPU memory —
/// the reason the paper's remedies barely help (or hurt) on this system.
pub fn power9_volta() -> Platform {
    Platform {
        name: "IBM+Volta",
        interconnect: Interconnect::Nvlink2,
        page_size: 64 * 1024,
        cpu_word_ns: 1.4,
        gpu_word_ns: 10.0,
        gpu_parallelism: 2560.0,
        cpu_flop_ns: 0.6,
        gpu_flop_ns: 0.7,
        fault_ns: 6_000.0,
        link_bw: 60.0,
        memcpy_latency_ns: 6_000.0,
        remote_word_ns: 40.0,
        // Coherence invalidations are relatively costlier on the NVLink
        // system (cross-socket TLB shootdowns over the coherent fabric) —
        // the reason ReadMostly is a net loss there (Fig. 6, 0.8x).
        invalidate_ns: 9_000.0,
        map_ns: 3_000.0,
        gpu_mem_bytes: 16 << 30,
        kernel_launch_ns: 7_000.0,
        stream_sync_ns: 9_000.0,
        cpu_direct_access_gpu: true,
        async_pageable_copy_serializes: true,
    }
}

/// The three evaluation platforms in the order the paper's figures list
/// them.
pub fn all_platforms() -> Vec<Platform> {
    vec![intel_pascal(), intel_volta(), power9_volta()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_interconnects() {
        assert_eq!(intel_pascal().interconnect, Interconnect::Pcie3);
        assert_eq!(intel_volta().interconnect, Interconnect::Pcie3);
        assert_eq!(power9_volta().interconnect, Interconnect::Nvlink2);
    }

    #[test]
    fn nvlink_is_meaningfully_faster_than_pcie() {
        let pcie = intel_pascal();
        let nvl = power9_volta();
        assert!(nvl.link_bw >= 4.0 * pcie.link_bw);
        assert!(nvl.fault_ns < pcie.fault_ns / 2.0);
        assert!(nvl.remote_word_ns < pcie.remote_word_ns / 5.0);
        assert!(nvl.cpu_direct_access_gpu);
        assert!(!pcie.cpu_direct_access_gpu);
    }

    #[test]
    fn migration_cost_dominated_by_fault_on_pcie() {
        let p = intel_pascal();
        // One 64 KiB page at 12 B/ns is ~5.5 us of data movement; the fault
        // service adds tens of microseconds on top.
        assert!(p.page_migration_ns() > p.xfer_ns(p.page_size));
        assert!(p.fault_ns > p.xfer_ns(p.page_size));
    }

    #[test]
    fn page_of_is_page_granular() {
        let p = intel_pascal();
        assert_eq!(p.page_of(0), 0);
        assert_eq!(p.page_of(p.page_size - 1), 0);
        assert_eq!(p.page_of(p.page_size), 1);
        assert_eq!(p.page_of(3 * p.page_size + 17), 3);
    }

    #[test]
    fn all_platforms_order_matches_paper() {
        let names: Vec<&str> = all_platforms().iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["Intel+Pascal", "Intel+Volta", "IBM+Volta"]);
    }
}
