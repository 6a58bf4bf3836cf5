//! The unified-memory driver: page states, on-demand migration,
//! read-duplication, remote mappings, and the `cudaMemAdvise` policies
//! (paper §II-A/§II-B).
//!
//! This is the component whose hidden data movement the paper's
//! anti-patterns describe: alternating CPU/GPU accesses bounce pages back
//! and forth here, and every bounce costs a fault plus a page transfer.

use crate::alloc::HEAP_BASE;
use crate::gpumem::GpuMemory;
use crate::platform::Platform;
use crate::stats::Stats;
use crate::types::{Device, DeviceSet, MemAdvise};

/// Per-page coherence and advice state.
#[derive(Debug, Clone)]
pub struct PageState {
    /// Whether the page belongs to a `cudaMallocManaged` allocation (only
    /// managed pages participate in UM paging).
    pub managed: bool,
    /// Device holding the authoritative copy.
    pub owner: Device,
    /// Devices holding a valid copy (always includes `owner`).
    pub copies: DeviceSet,
    /// Devices with a remote mapping established (access without
    /// migration, at interconnect word cost).
    pub mapped: DeviceSet,
    /// `cudaMemAdviseSetReadMostly` in effect.
    pub read_mostly: bool,
    /// `cudaMemAdviseSetPreferredLocation` target, if set.
    pub preferred: Option<Device>,
    /// Devices named by `cudaMemAdviseSetAccessedBy`.
    pub accessed_by: DeviceSet,
}

impl Default for PageState {
    fn default() -> Self {
        PageState {
            managed: false,
            owner: Device::Cpu,
            copies: DeviceSet::single(Device::Cpu),
            mapped: DeviceSet::EMPTY,
            read_mostly: false,
            preferred: None,
            accessed_by: DeviceSet::EMPTY,
        }
    }
}

/// Outcome of one driver access, for the caller's accounting.
///
/// The serial cost is decomposed into the buckets a profiler charges to
/// distinct event kinds; [`AccessOutcome::serial_ns`] sums them back into
/// the single charge the machine applies to the clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessOutcome {
    /// Fault-service overhead: fault handling latency plus any mapping
    /// establishment or remote word transfer done *while servicing the
    /// fault* (not the page payload itself).
    pub fault_service_ns: f64,
    /// Page payload movement: the transfer part of a migration or a
    /// ReadMostly duplication.
    pub transfer_ns: f64,
    /// Remote word access over an already-established mapping (no fault).
    pub remote_ns: f64,
    /// Invalidating duplicated copies on a write.
    pub invalidate_ns: f64,
    /// Writing dirty evicted pages back to the host.
    pub evict_writeback_ns: f64,
    /// The access faulted.
    pub fault: bool,
    /// The access was served through a remote mapping.
    pub remote: bool,
    /// The access migrated the page.
    pub migrated: bool,
    /// The access duplicated a ReadMostly page into the accessor.
    pub duplicated: bool,
    /// Duplicated copies invalidated by this write.
    pub invalidations: u32,
    /// Pages evicted from GPU memory to make room.
    pub evictions: u32,
    /// Dirty evicted pages written back to the host.
    pub writeback_pages: u32,
    /// Bytes written back to the host by those evictions (dirty pages).
    pub evicted_bytes: u64,
}

impl AccessOutcome {
    /// Total serial (non-parallelizable) cost in nanoseconds.
    pub fn serial_ns(&self) -> f64 {
        self.fault_service_ns
            + self.transfer_ns
            + self.remote_ns
            + self.invalidate_ns
            + self.evict_writeback_ns
    }

    fn absorb_eviction(&mut self, ev: EvictOutcome) {
        self.evict_writeback_ns += ev.cost_ns;
        self.evictions += ev.pages;
        self.writeback_pages += ev.writeback_pages;
        self.evicted_bytes += ev.writeback_bytes;
    }
}

/// What making a page resident on a GPU evicted along the way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvictOutcome {
    /// Serial cost of the writebacks.
    pub cost_ns: f64,
    /// Pages evicted (dirty or clean).
    pub pages: u32,
    /// Dirty subset migrated back to the host.
    pub writeback_pages: u32,
    /// Bytes those writebacks moved.
    pub writeback_bytes: u64,
}

/// Outcome of a `cudaMemPrefetchAsync`: the pages moved, the evictions the
/// destination had to make, and the costs of both.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefetchOutcome {
    /// Transfer cost of the prefetched pages themselves.
    pub transfer_ns: f64,
    /// Writeback cost of evictions forced at the destination.
    pub evict_writeback_ns: f64,
    /// Pages the prefetch actually moved (each counted as a migration).
    pub pages: u32,
    /// Bytes those pages moved.
    pub bytes_moved: u64,
    /// Pages evicted at the destination to make room.
    pub evictions: u32,
    /// Dirty evicted subset written back to the host.
    pub writeback_pages: u32,
    /// Bytes those writebacks moved.
    pub writeback_bytes: u64,
}

impl PrefetchOutcome {
    /// Total serial cost to schedule on the stream.
    pub fn cost_ns(&self) -> f64 {
        self.transfer_ns + self.evict_writeback_ns
    }
}

/// The driver: a dense page table covering the bump-allocated heap.
pub struct UmDriver {
    page_size: u64,
    base_page: u64,
    pages: Vec<PageState>,
}

impl UmDriver {
    pub fn new(page_size: u64) -> Self {
        UmDriver {
            page_size,
            base_page: HEAP_BASE / page_size,
            pages: Vec::new(),
        }
    }

    #[inline]
    fn idx(&self, page: u64) -> usize {
        debug_assert!(page >= self.base_page, "page below heap base");
        (page - self.base_page) as usize
    }

    /// Register the pages of a fresh allocation. Managed pages start owned
    /// by the CPU (the allocating side populates them on first touch).
    pub fn register_alloc(&mut self, base: u64, size: u64, managed: bool) {
        let first = base / self.page_size;
        let last = (base + size.max(1) - 1) / self.page_size;
        let need = self.idx(last) + 1;
        if self.pages.len() < need {
            self.pages.resize_with(need, PageState::default);
        }
        for p in first..=last {
            let i = self.idx(p);
            self.pages[i] = PageState {
                managed,
                ..PageState::default()
            };
        }
    }

    /// Release page state when an allocation is freed; a resident copy is
    /// dropped from device memory.
    pub fn release_range(&mut self, base: u64, size: u64, gpu: &mut GpuMemory) {
        let first = base / self.page_size;
        let last = (base + size.max(1) - 1) / self.page_size;
        for p in first..=last {
            let i = self.idx(p);
            if i < self.pages.len() {
                if self.pages[i].copies.contains(Device::Gpu) {
                    gpu.release(p);
                }
                self.pages[i] = PageState::default();
            }
        }
    }

    /// Inspect a page's state (test/diagnostic use).
    pub fn state(&self, page: u64) -> &PageState {
        &self.pages[self.idx(page)]
    }

    /// Apply `cudaMemAdvise` to an address range (must be managed — the
    /// caller validates the allocation kind).
    pub fn advise(&mut self, base: u64, size: u64, advice: MemAdvise) {
        let first = base / self.page_size;
        let last = (base + size.max(1) - 1) / self.page_size;
        for p in first..=last {
            let i = self.idx(p);
            let st = &mut self.pages[i];
            match advice {
                MemAdvise::SetReadMostly => st.read_mostly = true,
                MemAdvise::UnsetReadMostly => {
                    st.read_mostly = false;
                    // Collapse duplicated copies back to the owner.
                    st.copies = DeviceSet::single(st.owner);
                }
                MemAdvise::SetPreferredLocation(d) => st.preferred = Some(d),
                MemAdvise::UnsetPreferredLocation => st.preferred = None,
                MemAdvise::SetAccessedBy(d) => {
                    st.accessed_by.insert(d);
                    // "Causes the data to be always mapped in the specified
                    // processor's page tables" (§II-B).
                    if !st.copies.contains(d) {
                        st.mapped.insert(d);
                    }
                }
                MemAdvise::UnsetAccessedBy(d) => {
                    st.accessed_by.remove(d);
                    st.mapped.remove(d);
                }
            }
        }
    }

    /// Handle one word access by `dev` to managed `page`.
    ///
    /// Returns the serial cost of whatever the driver had to do; the local
    /// word cost itself is charged by the machine.
    pub fn access(
        &mut self,
        pf: &Platform,
        gpu: &mut GpuMemory,
        stats: &mut Stats,
        dev: Device,
        page: u64,
        write: bool,
    ) -> AccessOutcome {
        let i = self.idx(page);
        let st = &self.pages[i];
        debug_assert!(st.managed, "driver access to unmanaged page");

        // Fast path: local copy, no coherence action needed.
        if st.copies.contains(dev) && (!write || st.copies.len() == 1) {
            if write && st.owner != dev {
                self.pages[i].owner = dev;
            }
            return AccessOutcome::default();
        }

        let mut out = AccessOutcome::default();

        if st.copies.contains(dev) && write {
            // Write to a read-duplicated page: invalidate the other copy
            // ("only the page where the write occurred will be valid").
            let (cost, n) = self.invalidate_other(i, page, dev, pf, gpu, stats);
            out.invalidate_ns += cost;
            out.invalidations = n;
            return out;
        }

        if st.mapped.contains(dev) {
            // Established remote mapping: access over the interconnect,
            // no fault, no migration.
            out.remote_ns += pf.remote_word_ns;
            out.remote = true;
            stats.remote_accesses += 1;
            return out;
        }

        // Fault path.
        out.fault = true;
        match dev {
            Device::Cpu => stats.cpu_faults += 1,
            Device::Gpu => stats.gpu_faults += 1,
        }

        if !write && st.read_mostly {
            // Duplicate a read-only copy into the faulting processor.
            out.fault_service_ns += pf.fault_ns;
            out.transfer_ns += pf.xfer_ns(pf.page_size);
            stats.duplications += 1;
            out.duplicated = true;
            if dev == Device::Gpu {
                let ev = self.make_resident(page, pf, gpu, stats);
                out.absorb_eviction(ev);
            }
            let st = &mut self.pages[i];
            st.copies.insert(dev);
            st.mapped.remove(dev);
            return out;
        }

        let preferred_elsewhere = match st.preferred {
            Some(p) => p != dev && st.copies.contains(p),
            None => false,
        };
        if preferred_elsewhere {
            // "The faulting processor will try to directly establish a
            // mapping to the region without causing page migration."
            out.fault_service_ns += pf.fault_ns * 0.25 + pf.map_ns + pf.remote_word_ns;
            out.remote = true;
            stats.remote_accesses += 1;
            self.pages[i].mapped.insert(dev);
            return out;
        }

        if dev == Device::Cpu && pf.cpu_direct_access_gpu && st.owner.is_gpu() {
            // NVLink coherence: the CPU maps GPU-resident pages instead of
            // pulling them back (the key platform difference behind the
            // paper's Fig. 6 IBM results).
            out.fault_service_ns += pf.map_ns + pf.remote_word_ns;
            out.remote = true;
            stats.remote_accesses += 1;
            self.pages[i].mapped.insert(Device::Cpu);
            return out;
        }

        // Default policy: migrate the page to the faulting processor.
        // `page_migration_ns` = fault service + payload transfer; keep the
        // split visible for attribution.
        out.fault_service_ns += pf.fault_ns;
        out.transfer_ns += pf.page_migration_ns() - pf.fault_ns;
        out.migrated = true;
        let ev = self.move_page(i, page, dev, pf, gpu, stats);
        out.absorb_eviction(ev);
        out
    }

    /// Handle `words` consecutive word accesses by `dev` to the same
    /// managed `page` — the bulk fast path. The first word goes through
    /// [`UmDriver::access`] in full; after it the page is in a steady
    /// state for this device (a free local hit, or a remote access over
    /// the mapping the first word established), so the whole tail is
    /// resolved here in O(1) instead of re-probing the page map per
    /// word. Returns the first word's outcome plus the serial cost of
    /// *each* tail word (0 for local hits, `remote_word_ns` for remote
    /// mappings); tail stats are already applied.
    #[allow(clippy::too_many_arguments)]
    pub fn access_range(
        &mut self,
        pf: &Platform,
        gpu: &mut GpuMemory,
        stats: &mut Stats,
        dev: Device,
        page: u64,
        write: bool,
        words: u64,
    ) -> (AccessOutcome, f64) {
        let out = self.access(pf, gpu, stats, dev, page, write);
        if words <= 1 {
            return (out, 0.0);
        }
        let st = self.state(page);
        if st.copies.contains(dev) {
            (out, 0.0)
        } else {
            debug_assert!(st.mapped.contains(dev), "steady state is local or mapped");
            stats.remote_accesses += words - 1;
            (out, pf.remote_word_ns)
        }
    }

    /// Invalidate the copy of page `i` that `keeper` does not hold, if
    /// any. Returns the serial cost and the number of copies invalidated.
    fn invalidate_other(
        &mut self,
        i: usize,
        page: u64,
        keeper: Device,
        pf: &Platform,
        gpu: &mut GpuMemory,
        stats: &mut Stats,
    ) -> (f64, u32) {
        let st = &mut self.pages[i];
        let other = keeper.other();
        let held = st.copies.contains(other);
        st.copies = DeviceSet::single(keeper);
        st.owner = keeper;
        if !held {
            return (0.0, 0);
        }
        stats.invalidations += 1;
        if other == Device::Gpu {
            gpu.release(page);
        }
        (pf.invalidate_ns, 1)
    }

    /// Move managed page `i` (number `page`) to `dst`: count the
    /// migration, drop the GPU copy it leaves, make it resident on the GPU
    /// it reaches, and hand it to `dst` alone, restoring the `AccessedBy`
    /// mappings of the other device. Returns what making room evicted.
    fn move_page(
        &mut self,
        i: usize,
        page: u64,
        dst: Device,
        pf: &Platform,
        gpu: &mut GpuMemory,
        stats: &mut Stats,
    ) -> EvictOutcome {
        stats.bytes_migrated += pf.page_size;
        let mut ev = EvictOutcome::default();
        if dst == Device::Gpu {
            stats.migrations_h2d += 1;
            ev = self.make_resident(page, pf, gpu, stats);
        } else {
            stats.migrations_d2h += 1;
            if self.pages[i].copies.contains(Device::Gpu) {
                gpu.release(page);
            }
        }
        let st = &mut self.pages[i];
        st.owner = dst;
        st.copies = DeviceSet::single(dst);
        st.mapped.remove(dst);
        // An AccessedBy device keeps its mapping across migration.
        if st.accessed_by.contains(dst.other()) {
            st.mapped.insert(dst.other());
        }
        ev
    }

    /// Insert `page` into GPU memory, handling any evictions that makes
    /// necessary.
    fn make_resident(
        &mut self,
        page: u64,
        pf: &Platform,
        gpu: &mut GpuMemory,
        stats: &mut Stats,
    ) -> EvictOutcome {
        let mut out = EvictOutcome::default();
        for &e in gpu.insert(page) {
            let ei = self.idx(e);
            let st = &mut self.pages[ei];
            stats.evictions += 1;
            out.pages += 1;
            if st.owner == Device::Gpu {
                // Dirty page: write back to host.
                out.cost_ns += pf.xfer_ns(pf.page_size);
                out.writeback_pages += 1;
                out.writeback_bytes += pf.page_size;
                stats.bytes_evicted += pf.page_size;
                stats.migrations_d2h += 1;
                stats.bytes_migrated += pf.page_size;
                st.owner = Device::Cpu;
                st.copies = DeviceSet::single(Device::Cpu);
            } else {
                // Clean duplicated copy: just drop it.
                st.copies.remove(Device::Gpu);
                if st.copies.is_empty() {
                    st.copies = DeviceSet::single(st.owner);
                }
            }
        }
        out
    }

    /// `cudaMemPrefetchAsync` semantics: proactively migrate the pages of
    /// a range to `dst` without fault latency. Returns what moved and what
    /// it cost so the caller can schedule it on a stream and report it.
    pub fn prefetch(
        &mut self,
        pf: &Platform,
        gpu: &mut GpuMemory,
        stats: &mut Stats,
        base: u64,
        size: u64,
        dst: Device,
    ) -> PrefetchOutcome {
        let first = base / self.page_size;
        let last = (base + size.max(1) - 1) / self.page_size;
        let mut out = PrefetchOutcome::default();
        for page in first..=last {
            let i = self.idx(page);
            let st = &self.pages[i];
            if !st.managed || st.copies.contains(dst) {
                continue;
            }
            out.transfer_ns += pf.xfer_ns(pf.page_size);
            out.pages += 1;
            out.bytes_moved += pf.page_size;
            let ev = self.move_page(i, page, dst, pf, gpu, stats);
            out.evict_writeback_ns += ev.cost_ns;
            out.evictions += ev.pages;
            out.writeback_pages += ev.writeback_pages;
            out.writeback_bytes += ev.writeback_bytes;
        }
        out
    }

    /// Page size this driver was configured with.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::intel_pascal;

    const GPU: Device = Device::Gpu;

    struct Fixture {
        pf: Platform,
        drv: UmDriver,
        gpu: GpuMemory,
        stats: Stats,
        base: u64,
    }

    fn fixture() -> Fixture {
        fixture_with_gpu_pages(1024)
    }

    fn fixture_with_gpu_pages(gpu_pages: u64) -> Fixture {
        let pf = intel_pascal();
        let mut drv = UmDriver::new(pf.page_size);
        let gpu = GpuMemory::new(gpu_pages * pf.page_size, pf.page_size);
        let base = HEAP_BASE;
        drv.register_alloc(base, 4 * pf.page_size, true);
        Fixture {
            pf,
            drv,
            gpu,
            stats: Stats::default(),
            base,
        }
    }

    impl Fixture {
        fn page(&self, n: u64) -> u64 {
            self.base / self.pf.page_size + n
        }
        fn access(&mut self, dev: Device, page: u64, write: bool) -> AccessOutcome {
            self.drv
                .access(&self.pf, &mut self.gpu, &mut self.stats, dev, page, write)
        }
    }

    #[test]
    fn first_cpu_touch_is_free_gpu_touch_faults() {
        let mut f = fixture();
        let p = f.page(0);
        let o = f.access(Device::Cpu, p, true);
        assert_eq!(o, AccessOutcome::default());
        let o = f.access(GPU, p, false);
        assert!(o.fault && o.migrated);
        assert_eq!(f.stats.gpu_faults, 1);
        assert_eq!(f.stats.migrations_h2d, 1);
        assert_eq!(f.drv.state(p).owner, GPU);
    }

    #[test]
    fn repeated_gpu_access_hits_after_migration() {
        let mut f = fixture();
        let p = f.page(0);
        f.access(GPU, p, false);
        let o = f.access(GPU, p, false);
        assert_eq!(o, AccessOutcome::default());
        assert_eq!(f.stats.gpu_faults, 1);
    }

    #[test]
    fn alternating_accesses_ping_pong_pages() {
        // The paper's anti-pattern #1: each side's touch migrates the page.
        let mut f = fixture();
        let p = f.page(0);
        for _ in 0..5 {
            f.access(GPU, p, false);
            f.access(Device::Cpu, p, true);
        }
        assert_eq!(f.stats.gpu_faults, 5);
        assert_eq!(f.stats.cpu_faults, 5);
        assert_eq!(f.stats.migrations(), 10);
    }

    #[test]
    fn read_mostly_duplicates_and_stops_ping_pong() {
        let mut f = fixture();
        let p = f.page(0);
        f.drv
            .advise(f.base, f.pf.page_size, MemAdvise::SetReadMostly);
        f.access(Device::Cpu, p, false);
        let o = f.access(GPU, p, false);
        assert!(o.fault);
        assert_eq!(f.stats.duplications, 1);
        // Both now read without faults.
        assert_eq!(f.access(Device::Cpu, p, false), AccessOutcome::default());
        assert_eq!(f.access(GPU, p, false), AccessOutcome::default());
        assert!(f.drv.state(p).copies.contains(Device::Cpu));
        assert!(f.drv.state(p).copies.contains(GPU));
    }

    #[test]
    fn write_to_read_mostly_invalidates_other_copies() {
        let mut f = fixture();
        let p = f.page(0);
        f.drv
            .advise(f.base, f.pf.page_size, MemAdvise::SetReadMostly);
        f.access(Device::Cpu, p, false);
        f.access(GPU, p, false); // duplicate
        let o = f.access(Device::Cpu, p, true); // CPU write invalidates GPU copy
        assert!(o.serial_ns() > 0.0);
        assert_eq!(o.serial_ns(), o.invalidate_ns);
        assert_eq!(f.stats.invalidations, 1);
        assert_eq!(f.drv.state(p).copies.len(), 1);
        assert_eq!(f.drv.state(p).owner, Device::Cpu);
        // GPU read must re-duplicate.
        let o = f.access(GPU, p, false);
        assert!(o.fault);
        assert_eq!(f.stats.duplications, 2);
    }

    #[test]
    fn preferred_location_maps_instead_of_migrating() {
        let mut f = fixture();
        let p = f.page(0);
        f.drv.advise(
            f.base,
            f.pf.page_size,
            MemAdvise::SetPreferredLocation(Device::Cpu),
        );
        f.access(Device::Cpu, p, true);
        let o = f.access(GPU, p, false);
        assert!(o.fault && o.remote && !o.migrated);
        assert_eq!(f.drv.state(p).owner, Device::Cpu);
        // Subsequent GPU accesses go remote without faulting.
        let o = f.access(GPU, p, false);
        assert!(o.remote && !o.fault);
        assert_eq!(f.stats.remote_accesses, 2);
    }

    #[test]
    fn accessed_by_establishes_mapping_without_migration() {
        let mut f = fixture();
        let p = f.page(0);
        f.access(Device::Cpu, p, true);
        f.drv
            .advise(f.base, f.pf.page_size, MemAdvise::SetAccessedBy(GPU));
        let o = f.access(GPU, p, false);
        assert!(o.remote && !o.fault && !o.migrated);
        assert_eq!(f.drv.state(p).owner, Device::Cpu);
    }

    #[test]
    fn accessed_by_mapping_survives_migration() {
        let mut f = fixture();
        let p = f.page(0);
        f.drv.advise(
            f.base,
            f.pf.page_size,
            MemAdvise::SetAccessedBy(Device::Cpu),
        );
        // GPU write migrates the page to the GPU...
        let o = f.access(GPU, p, true);
        assert!(o.migrated);
        // ...but the CPU keeps a mapping, so it reads remotely, no fault.
        let o = f.access(Device::Cpu, p, false);
        assert!(o.remote && !o.fault);
    }

    #[test]
    fn nvlink_cpu_reads_gpu_pages_remotely() {
        let mut f = fixture();
        f.pf = crate::platform::power9_volta();
        let p = f.page(0);
        f.access(GPU, p, true); // GPU-owned now
        let o = f.access(Device::Cpu, p, false);
        assert!(o.remote && !o.migrated);
        assert_eq!(f.drv.state(p).owner, GPU);
        // Second CPU read uses the established mapping without a fault.
        let o = f.access(Device::Cpu, p, false);
        assert!(o.remote && !o.fault);
    }

    #[test]
    fn pcie_cpu_touch_pulls_page_back() {
        let mut f = fixture();
        let p = f.page(0);
        f.access(GPU, p, true);
        let o = f.access(Device::Cpu, p, false);
        assert!(o.migrated);
        assert_eq!(f.drv.state(p).owner, Device::Cpu);
    }

    #[test]
    fn oversubscription_evicts_and_thrashes() {
        let mut f = fixture_with_gpu_pages(2);
        // 4 pages of data, 2 pages of device memory.
        for n in 0..4 {
            let p = f.page(n);
            f.access(GPU, p, true);
        }
        assert!(f.stats.evictions >= 2);
        // Touching page 0 again faults: it was evicted.
        let p0 = f.page(0);
        let o = f.access(GPU, p0, false);
        assert!(o.fault);
        // Evicted dirty pages were written back to the host.
        assert!(f.stats.migrations_d2h >= 2);
    }

    #[test]
    fn unset_read_mostly_collapses_copies() {
        let mut f = fixture();
        let p = f.page(0);
        f.drv
            .advise(f.base, f.pf.page_size, MemAdvise::SetReadMostly);
        f.access(Device::Cpu, p, false);
        f.access(GPU, p, false);
        assert_eq!(f.drv.state(p).copies.len(), 2);
        f.drv
            .advise(f.base, f.pf.page_size, MemAdvise::UnsetReadMostly);
        assert_eq!(f.drv.state(p).copies.len(), 1);
        assert!(!f.drv.state(p).read_mostly);
    }

    #[test]
    fn prefetch_moves_pages_without_faults() {
        let mut f = fixture();
        let p = f.page(0);
        f.access(Device::Cpu, p, true);
        let (base, size) = (f.base, 2 * f.pf.page_size);
        let po = f
            .drv
            .prefetch(&f.pf, &mut f.gpu, &mut f.stats, base, size, GPU);
        assert!(po.cost_ns() > 0.0);
        assert_eq!(po.pages, 2);
        assert_eq!(po.bytes_moved, 2 * f.pf.page_size);
        assert_eq!(f.stats.gpu_faults, 0, "prefetch must not fault");
        assert_eq!(f.drv.state(p).owner, GPU);
        // Subsequent GPU access is a clean hit.
        let o = f.access(GPU, p, false);
        assert_eq!(o, AccessOutcome::default());
        // Prefetching a range already at the destination is free.
        let po2 = f
            .drv
            .prefetch(&f.pf, &mut f.gpu, &mut f.stats, base, size, GPU);
        assert_eq!(po2, PrefetchOutcome::default());
    }

    #[test]
    fn outcome_reports_duplication_invalidation_and_eviction_detail() {
        let mut f = fixture();
        let p = f.page(0);
        f.drv
            .advise(f.base, f.pf.page_size, MemAdvise::SetReadMostly);
        f.access(Device::Cpu, p, false);
        let o = f.access(GPU, p, false);
        assert!(o.duplicated && o.fault);
        let o = f.access(Device::Cpu, p, true);
        assert_eq!(o.invalidations, 1);
        assert!(!o.duplicated);

        // Oversubscribe: outcome reports the evictions it forced.
        let mut f = fixture_with_gpu_pages(1);
        f.access(GPU, f.page(0), true);
        let o = f.access(GPU, f.page(1), true);
        assert_eq!(o.evictions, 1);
        assert_eq!(o.writeback_pages, 1);
        assert_eq!(o.evicted_bytes, f.pf.page_size, "dirty page written back");
        assert!(o.evict_writeback_ns > 0.0);
    }

    #[test]
    fn access_range_matches_per_word_loop() {
        // The bulk entry point must leave stats and total serial cost
        // exactly where the per-word loop would, across migration,
        // remote-mapping, and read-duplication steady states.
        let scenarios: &[fn(&mut Fixture)] = &[
            |_| {},
            |f| {
                let (base, sz) = (f.base, f.pf.page_size);
                f.drv
                    .advise(base, sz, MemAdvise::SetPreferredLocation(Device::Cpu));
                f.access(Device::Cpu, f.page(0), true);
            },
            |f| {
                let (base, sz) = (f.base, f.pf.page_size);
                f.drv.advise(base, sz, MemAdvise::SetReadMostly);
                f.access(Device::Cpu, f.page(0), false);
            },
        ];
        for (dev, write) in [(GPU, false), (GPU, true), (Device::Cpu, false)] {
            for setup in scenarios {
                let mut a = fixture();
                setup(&mut a);
                let mut b = fixture();
                setup(&mut b);
                let p = a.page(0);
                let words = 9u64;
                let mut serial_a = 0.0;
                for _ in 0..words {
                    serial_a += a.access(dev, p, write).serial_ns();
                }
                let (out, tail) =
                    b.drv
                        .access_range(&b.pf, &mut b.gpu, &mut b.stats, dev, p, write, words);
                let serial_b = out.serial_ns() + tail * (words - 1) as f64;
                assert_eq!(a.stats, b.stats);
                assert_eq!(serial_a, serial_b);
            }
        }
    }

    #[test]
    fn release_range_resets_state() {
        let mut f = fixture();
        let p = f.page(0);
        f.access(GPU, p, true);
        let (base, size) = (f.base, 4 * f.pf.page_size);
        f.drv.release_range(base, size, &mut f.gpu);
        assert!(!f.gpu.resident(p));
        assert_eq!(f.drv.state(p).owner, Device::Cpu);
    }
}
