//! A deliberately naive reference model of the unified-memory driver.
//!
//! [`RefUmModel`] re-implements the paper's UM semantics (§II-A/§II-B)
//! from the prose description, independently of `hetsim::unified`: a flat
//! page map, linear scans, `Vec<Device>` instead of bitmasks, and no cost
//! model at all. The point is differential testing — the production
//! driver is optimized and event-driven; this model is small enough to
//! audit by eye. [`LockstepHook`] runs it in lockstep with a live
//! [`hetsim::Machine`] through the `MemHook` seam and records every
//! divergence: a structured event the model did not predict, a predicted
//! event that never arrived, or a final page state that disagrees.
//!
//! The model deliberately does *not* model GPU memory capacity: it
//! assumes no page is ever evicted. Lockstep runs therefore need a
//! machine whose GPU memory comfortably holds the working set (the
//! default 16 GiB does for every canonical workload); eviction paths are
//! covered separately by the conservation tests in `tests/conformance.rs`.

use std::collections::BTreeMap;

use hetsim::{AccessKind, AllocKind, Device, Event, MemAdvise, Op, TimedEvent};

/// Naive per-page state, mirroring the fields of
/// `hetsim::unified::PageState` with open-coded containers.
#[derive(Debug, Clone, PartialEq)]
pub struct RefPage {
    pub managed: bool,
    pub owner: Device,
    /// Devices holding a valid copy, sorted (CPU before GPUs).
    pub copies: Vec<Device>,
    /// Devices with an established remote mapping, sorted.
    pub mapped: Vec<Device>,
    pub read_mostly: bool,
    pub preferred: Option<Device>,
    pub accessed_by: Vec<Device>,
}

impl Default for RefPage {
    fn default() -> Self {
        RefPage {
            managed: false,
            owner: Device::Cpu,
            copies: vec![Device::Cpu],
            mapped: Vec::new(),
            read_mostly: false,
            preferred: None,
            accessed_by: Vec::new(),
        }
    }
}

fn insert_dev(set: &mut Vec<Device>, d: Device) {
    if !set.contains(&d) {
        set.push(d);
        set.sort_by_key(|d| match d {
            Device::Cpu => 0u32,
            Device::Gpu(g) => 1 + *g as u32,
        });
    }
}

fn remove_dev(set: &mut Vec<Device>, d: Device) {
    set.retain(|x| *x != d);
}

/// Counters the model accumulates; a strict subset of [`hetsim::Stats`],
/// restricted to what the UM driver itself maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefStats {
    pub cpu_faults: u64,
    pub gpu_faults: u64,
    pub migrations_h2d: u64,
    pub migrations_d2h: u64,
    pub bytes_migrated: u64,
    pub duplications: u64,
    pub invalidations: u64,
    pub remote_accesses: u64,
}

/// What the model predicts one access will make the driver do. The order
/// of any emitted events is fixed by the machine: fault, duplication,
/// migration, invalidation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefAccessOutcome {
    pub fault: bool,
    pub duplicated: bool,
    pub migrated: bool,
    pub remote: bool,
    pub invalidations: u32,
}

/// The reference page-map model. `page_size` must match the platform the
/// lockstep machine runs on; `nvlink_cpu_maps_gpu` mirrors the platform's
/// `cpu_direct_access_gpu` flag.
#[derive(Debug, Default)]
pub struct RefUmModel {
    pub page_size: u64,
    pub nvlink_cpu_maps_gpu: bool,
    pages: BTreeMap<u64, RefPage>,
    pub stats: RefStats,
}

impl RefUmModel {
    pub fn new(page_size: u64, nvlink_cpu_maps_gpu: bool) -> Self {
        RefUmModel {
            page_size,
            nvlink_cpu_maps_gpu,
            ..Default::default()
        }
    }

    fn page_range(&self, base: u64, size: u64) -> std::ops::RangeInclusive<u64> {
        let first = base / self.page_size;
        let last = (base + size.max(1) - 1) / self.page_size;
        first..=last
    }

    pub fn register_alloc(&mut self, base: u64, size: u64, managed: bool) {
        for p in self.page_range(base, size) {
            self.pages.insert(
                p,
                RefPage {
                    managed,
                    ..Default::default()
                },
            );
        }
    }

    pub fn release(&mut self, base: u64, size: u64) {
        for p in self.page_range(base, size) {
            self.pages.remove(&p);
        }
    }

    /// The model's view of a page (default state if never registered).
    pub fn page(&self, page: u64) -> RefPage {
        self.pages.get(&page).cloned().unwrap_or_default()
    }

    pub fn is_managed(&self, addr: u64) -> bool {
        self.pages
            .get(&(addr / self.page_size))
            .map(|p| p.managed)
            .unwrap_or(false)
    }

    /// Registered pages in address order, managed only.
    pub fn managed_pages(&self) -> Vec<u64> {
        self.pages
            .iter()
            .filter(|(_, st)| st.managed)
            .map(|(p, _)| *p)
            .collect()
    }

    pub fn advise(&mut self, base: u64, size: u64, advice: MemAdvise) {
        for p in self.page_range(base, size) {
            let st = self.pages.entry(p).or_default();
            match advice {
                MemAdvise::SetReadMostly => st.read_mostly = true,
                MemAdvise::UnsetReadMostly => {
                    st.read_mostly = false;
                    st.copies = vec![st.owner];
                }
                MemAdvise::SetPreferredLocation(d) => st.preferred = Some(d),
                MemAdvise::UnsetPreferredLocation => st.preferred = None,
                MemAdvise::SetAccessedBy(d) => {
                    insert_dev(&mut st.accessed_by, d);
                    if !st.copies.contains(&d) {
                        insert_dev(&mut st.mapped, d);
                    }
                }
                MemAdvise::UnsetAccessedBy(d) => {
                    remove_dev(&mut st.accessed_by, d);
                    remove_dev(&mut st.mapped, d);
                }
            }
        }
    }

    /// One word access by `dev` to managed `page`; returns what the
    /// driver is expected to do. Mirrors the paper's decision order:
    /// local-copy fast path, write-invalidation, established mapping,
    /// then the fault path (read-duplication, preferred-location mapping,
    /// NVLink direct mapping, default migration).
    pub fn access(&mut self, dev: Device, page: u64, write: bool) -> RefAccessOutcome {
        let mut out = RefAccessOutcome::default();
        let st = self.pages.entry(page).or_default();

        if st.copies.contains(&dev) && (!write || st.copies.len() == 1) {
            if write {
                st.owner = dev;
            }
            return out;
        }

        if st.copies.contains(&dev) && write {
            out.invalidations = (st.copies.len() - 1) as u32;
            self.stats.invalidations += out.invalidations as u64;
            st.copies = vec![dev];
            st.owner = dev;
            return out;
        }

        if st.mapped.contains(&dev) {
            out.remote = true;
            self.stats.remote_accesses += 1;
            return out;
        }

        out.fault = true;
        match dev {
            Device::Cpu => self.stats.cpu_faults += 1,
            Device::Gpu(_) => self.stats.gpu_faults += 1,
        }

        if !write && st.read_mostly {
            out.duplicated = true;
            self.stats.duplications += 1;
            insert_dev(&mut st.copies, dev);
            remove_dev(&mut st.mapped, dev);
            return out;
        }

        let preferred_elsewhere = match st.preferred {
            Some(p) => p != dev && st.copies.contains(&p),
            None => false,
        };
        if preferred_elsewhere {
            out.remote = true;
            self.stats.remote_accesses += 1;
            insert_dev(&mut st.mapped, dev);
            return out;
        }

        if dev == Device::Cpu && self.nvlink_cpu_maps_gpu && st.owner.is_gpu() {
            out.remote = true;
            self.stats.remote_accesses += 1;
            insert_dev(&mut st.mapped, Device::Cpu);
            return out;
        }

        out.migrated = true;
        self.stats.bytes_migrated += self.page_size;
        if dev.is_gpu() {
            self.stats.migrations_h2d += 1;
        } else {
            self.stats.migrations_d2h += 1;
        }
        st.owner = dev;
        st.copies = vec![dev];
        remove_dev(&mut st.mapped, dev);
        let accessed_by = st.accessed_by.clone();
        for d in accessed_by {
            if d != dev {
                insert_dev(&mut st.mapped, d);
            }
        }
        out
    }

    /// `cudaMemPrefetchAsync`: returns `(pages_moved, bytes_moved)`.
    pub fn prefetch(&mut self, base: u64, size: u64, dst: Device) -> (u32, u64) {
        let mut pages = 0u32;
        let mut bytes = 0u64;
        for p in self.page_range(base, size) {
            let st = self.pages.entry(p).or_default();
            if !st.managed || st.copies.contains(&dst) {
                continue;
            }
            pages += 1;
            bytes += self.page_size;
            self.stats.bytes_migrated += self.page_size;
            if dst.is_gpu() {
                self.stats.migrations_h2d += 1;
            } else {
                self.stats.migrations_d2h += 1;
            }
            st.owner = dst;
            st.copies = vec![dst];
            remove_dev(&mut st.mapped, dst);
            let accessed_by = st.accessed_by.clone();
            for d in accessed_by {
                if d != dst {
                    insert_dev(&mut st.mapped, d);
                }
            }
        }
        (pages, bytes)
    }
}

/// Compare a model page against the driver's `PageState`; returns the
/// list of mismatched fields (empty = agreement).
pub fn diff_page(model: &RefPage, driver: &hetsim::unified::PageState) -> Vec<String> {
    let mut diffs = Vec::new();
    let drv_copies: Vec<Device> = driver.copies.iter().collect();
    let drv_mapped: Vec<Device> = driver.mapped.iter().collect();
    let drv_accessed: Vec<Device> = driver.accessed_by.iter().collect();
    if model.managed != driver.managed {
        diffs.push(format!("managed: {} vs {}", model.managed, driver.managed));
    }
    if model.owner != driver.owner {
        diffs.push(format!("owner: {:?} vs {:?}", model.owner, driver.owner));
    }
    if model.copies != drv_copies {
        diffs.push(format!("copies: {:?} vs {:?}", model.copies, drv_copies));
    }
    if model.mapped != drv_mapped {
        diffs.push(format!("mapped: {:?} vs {:?}", model.mapped, drv_mapped));
    }
    if model.read_mostly != driver.read_mostly {
        diffs.push(format!(
            "read_mostly: {} vs {}",
            model.read_mostly, driver.read_mostly
        ));
    }
    if model.preferred != driver.preferred {
        diffs.push(format!(
            "preferred: {:?} vs {:?}",
            model.preferred, driver.preferred
        ));
    }
    if model.accessed_by != drv_accessed {
        diffs.push(format!(
            "accessed_by: {:?} vs {:?}",
            model.accessed_by, drv_accessed
        ));
    }
    diffs
}

/// A `MemHook` that drives [`RefUmModel`] in lockstep with the machine.
///
/// The machine emits the structured driver events for an access *before*
/// the per-access callback fires, so the hook buffers fault-class events
/// and, when the access callback arrives, asks the model what should have
/// happened and matches the buffer against the prediction.
#[derive(Default)]
pub struct LockstepHook {
    pub model: RefUmModel,
    /// Live allocations: base -> (size, kind).
    allocs: BTreeMap<u64, (u64, AllocKind)>,
    /// Fault-class events since the last access callback.
    pending: Vec<Event>,
    /// Human-readable divergence log; empty after a clean run.
    pub divergences: Vec<String>,
    /// Number of managed accesses actually cross-checked.
    pub checked_accesses: u64,
    /// Number of events matched against model predictions.
    pub checked_events: u64,
    /// Number of multi-element `on_access` callbacks cross-checked (0 on
    /// a machine with the bulk fast path disabled).
    pub checked_ranges: u64,
}

impl LockstepHook {
    pub fn new(page_size: u64, nvlink_cpu_maps_gpu: bool) -> Self {
        LockstepHook {
            model: RefUmModel::new(page_size, nvlink_cpu_maps_gpu),
            ..Default::default()
        }
    }

    fn diverge(&mut self, msg: String) {
        // Cap the log so a systematic divergence doesn't OOM the test.
        if self.divergences.len() < 64 {
            self.divergences.push(msg);
        }
    }

    /// Expected event sequence for one predicted access outcome, in the
    /// machine's emission order.
    fn expected_events(
        &self,
        dev: Device,
        page: u64,
        write: bool,
        out: RefAccessOutcome,
    ) -> Vec<Event> {
        let mut ev = Vec::new();
        if out.fault {
            ev.push(Event::PageFault { dev, page, write });
        }
        if out.duplicated {
            ev.push(Event::ReadDup {
                page,
                to: dev,
                bytes: self.model.page_size,
            });
        }
        if out.migrated {
            ev.push(Event::Migration {
                page,
                to: dev,
                bytes: self.model.page_size,
            });
        }
        if out.invalidations > 0 {
            ev.push(Event::Invalidate {
                page,
                copies: out.invalidations,
            });
        }
        ev
    }

    /// Cross-check one per-word access.
    fn check_word(&mut self, dev: Device, addr: u64, write: bool) {
        if !self.model.is_managed(addr) {
            if !self.pending.is_empty() {
                self.diverge(format!(
                    "unmanaged access {dev:?} @{addr:#x} but driver events pending: {:?}",
                    self.pending
                ));
                self.pending.clear();
            }
            return;
        }
        let page = addr / self.model.page_size;
        let out = self.model.access(dev, page, write);
        let expected = self.expected_events(dev, page, write, out);
        let got = std::mem::take(&mut self.pending);
        self.checked_accesses += 1;
        self.checked_events += got.len() as u64;
        if got != expected {
            self.diverge(format!(
                "access {dev:?} page {page:#x} write={write}: driver emitted {got:?}, \
                 model expected {expected:?}"
            ));
        }
    }

    /// Verify final page states against the machine. Call after the run;
    /// appends any state mismatch to `divergences`.
    pub fn check_final_state(&mut self, machine: &hetsim::Machine) {
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            self.diverge(format!("run ended with unconsumed events: {pending:?}"));
        }
        let mut mismatches = Vec::new();
        for page in self.model.managed_pages() {
            let addr = page * self.model.page_size;
            let diffs = diff_page(&self.model.page(page), machine.page_state(addr));
            if !diffs.is_empty() {
                mismatches.push(format!("page {page:#x}: {}", diffs.join(", ")));
            }
        }
        for m in mismatches {
            self.diverge(format!("final state (model vs driver) {m}"));
        }
    }

    /// Cross-check one range access of more than one element.
    fn check_range(
        &mut self,
        dev: Device,
        addr: u64,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
    ) {
        // Mirror the machine's bulk fast path: the driver resolved the
        // range once per page (emitting fault-class events only for the
        // first word of each page group), so all pending events belong to
        // this one callback. Predict per page group, then compare the
        // concatenated expectation against the whole buffer.
        if count == 0 || elem_size == 0 {
            return;
        }
        let write = kind.writes();
        let ps = self.model.page_size;
        let mut expected = Vec::new();
        let mut i = 0u64;
        while i < count {
            let a = addr + i * u64::from(elem_size);
            let page = a / ps;
            let last_in_page = (page + 1) * ps - 1;
            let k = ((last_in_page - a) / u64::from(elem_size) + 1).min(count - i);
            if self.model.is_managed(a) {
                self.checked_accesses += k;
                let out = self.model.access(dev, page, write);
                expected.extend(self.expected_events(dev, page, write, out));
                if k > 1 {
                    // Steady-state tail: after the first word, the page is
                    // either a free local hit or one remote access per word.
                    let st = self.model.page(page);
                    if st.copies.contains(&dev) {
                        // local — no events, no stats
                    } else if st.mapped.contains(&dev) {
                        self.model.stats.remote_accesses += k - 1;
                    } else {
                        self.diverge(format!(
                            "range access {dev:?} page {page:#x}: tail words \
                             neither local nor mapped in the model"
                        ));
                    }
                }
            }
            i += k;
        }
        let got = std::mem::take(&mut self.pending);
        self.checked_events += got.len() as u64;
        self.checked_ranges += 1;
        if got != expected {
            self.diverge(format!(
                "range access {dev:?} @{addr:#x} x{count} ({kind:?}): driver \
                 emitted {got:?}, model expected {expected:?}"
            ));
        }
    }
}

impl hetsim::MemHook for LockstepHook {
    fn on_access(&mut self, dev: Device, addr: u64, elem_size: u32, count: u64, kind: AccessKind) {
        if count == 1 {
            // The machine services an RMW as a single write-intent access.
            self.check_word(dev, addr, kind.writes());
        } else {
            self.check_range(dev, addr, elem_size, count, kind);
        }
    }

    fn on_op(&mut self, op: &Op) {
        // cudaMemcpy bypasses UM paging entirely; nothing to model.
        match *op {
            Op::Alloc { base, size, kind } => {
                self.allocs.insert(base, (size, kind));
                self.model
                    .register_alloc(base, size, kind == AllocKind::Managed);
            }
            Op::Free { base } => {
                if let Some((size, _)) = self.allocs.remove(&base) {
                    self.model.release(base, size);
                }
            }
            _ => {}
        }
    }

    fn on_event(&mut self, ev: &TimedEvent) {
        match &ev.event {
            Event::PageFault { .. }
            | Event::ReadDup { .. }
            | Event::Migration { .. }
            | Event::Invalidate { .. } => self.pending.push(ev.event.clone()),
            Event::Evict { .. } => {
                // The model assumes ample GPU memory; any eviction in a
                // lockstep run is a real divergence from that assumption.
                self.diverge(format!(
                    "unexpected eviction under lockstep: {:?}",
                    ev.event
                ));
            }
            Event::Advise {
                addr,
                bytes,
                advice,
            } => {
                self.model.advise(*addr, *bytes, *advice);
                self.checked_events += 1;
            }
            Event::Prefetch {
                addr,
                bytes,
                pages,
                bytes_moved,
                to,
                ..
            } => {
                let (p, b) = self.model.prefetch(*addr, *bytes, *to);
                self.checked_events += 1;
                if p != *pages || b != *bytes_moved {
                    self.diverge(format!(
                        "prefetch {addr:#x}+{bytes} to {to:?}: driver moved \
                         {pages} pages/{bytes_moved} bytes, model expected {p}/{b}"
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::MemHook;

    #[test]
    fn checked_ranges_count_only_multi_element_accesses() {
        let mut h = LockstepHook::new(4096, false);
        let (base, kind) = (0x10_0000, AllocKind::Managed);
        h.on_op(&Op::Alloc {
            base,
            size: 8192,
            kind,
        });
        h.on_access(Device::Cpu, base, 8, 1, AccessKind::Write);
        h.on_access(Device::Cpu, base + 8, 8, 1, AccessKind::ReadWrite);
        assert_eq!((h.checked_accesses, h.checked_ranges), (2, 0));
        h.on_access(Device::Cpu, base, 8, 1024, AccessKind::Read);
        assert_eq!((h.checked_accesses, h.checked_ranges), (2 + 1024, 1));
        assert!(h.divergences.is_empty(), "{:?}", h.divergences);
    }
}
