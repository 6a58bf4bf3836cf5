//! The tracer: XPlacer's runtime bookkeeping (paper §III-C).
//!
//! Implements [`hetsim::MemHook`], so attaching a [`Tracer`] to a
//! [`hetsim::Machine`] corresponds to running the source-instrumented
//! binary: every heap read/write lands in `traceR`/`traceW`/`traceRW`,
//! every allocation in the wrapped `cudaMalloc*`, every copy in the
//! wrapped `cudaMemcpy`, every launch in the kernel-launch wrapper.

use hetsim::{AccessKind, Addr, AllocKind, CopyKind, Device, MemHook, Op};

use crate::flags::AccessFlags;
use crate::smt::{Smt, WORD_BYTES};

/// A user-level object description, as produced by the expansion of the
/// `#pragma xpl diagnostic` arguments (paper §III-B): target address,
/// access expression, and element size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XplAllocData {
    /// Address the expression points to.
    pub addr: Addr,
    /// The access expression, e.g. `(dom)->m_p`.
    pub name: String,
    /// `sizeof(*expr)`.
    pub elem_size: u64,
}

impl XplAllocData {
    pub fn new(addr: Addr, name: impl Into<String>, elem_size: u64) -> Self {
        XplAllocData {
            addr,
            name: name.into(),
            elem_size,
        }
    }
}

/// The runtime tracer.
pub struct Tracer {
    /// The shadow memory table. Public so analyses can walk it.
    pub smt: Smt,
    /// Kernel launches observed this epoch (name, count collapsed).
    pub kernel_log: Vec<String>,
    /// Bases freed this epoch (their shadow lives until `end_epoch`).
    pending_free: Vec<Addr>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            smt: Smt::new(),
            kernel_log: Vec::new(),
            pending_free: Vec::new(),
        }
    }

    /// Record `count` contiguous elements of `elem_size` bytes starting at
    /// `addr`, all accessed by `dev` — `traceR`, `traceW` or `traceRW` as
    /// `kind` says. A single word is `count == 1`; an address no
    /// allocation holds is ignored. The result is bit-identical to `count`
    /// one-element calls.
    #[inline]
    pub fn trace(&mut self, dev: Device, addr: Addr, elem_size: u64, count: u64, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.trace_span(
                addr,
                elem_size,
                count,
                false,
                |w| w.read_saturated(dev),
                |w| w.record_read(dev),
            ),
            AccessKind::Write => self.trace_span(
                addr,
                elem_size,
                count,
                false,
                |w| w.write_saturated(dev),
                |w| w.record_write(dev),
            ),
            // The read sees the value before the write, so order matters.
            AccessKind::ReadWrite => self.trace_span(
                addr,
                elem_size,
                count,
                true,
                |w| w.rw_saturated(dev),
                |w| {
                    w.record_read(dev);
                    w.record_write(dev);
                },
            ),
        }
    }

    /// The span routine behind [`trace`](Self::trace): one SMT lookup for
    /// the whole range and one `record` pass over its word span, skipped
    /// when every word is already `saturated`. Reads and writes by one
    /// device are idempotent per word, so one pass is exact. A
    /// read-modify-write is not idempotent where two elements share a
    /// shadow word (the second element's read sees the first element's
    /// write), so an `rmw` range that is not word-aligned with a
    /// word-multiple element size goes one element at a time, as does a
    /// range spilling past its allocation (its outside elements get the
    /// "untracked ⇒ ignored" treatment they would one by one).
    #[inline(always)]
    fn trace_span(
        &mut self,
        addr: Addr,
        elem_size: u64,
        count: u64,
        rmw: bool,
        saturated: impl Fn(AccessFlags) -> bool,
        record: impl Fn(&mut AccessFlags),
    ) {
        if count == 0 {
            return;
        }
        let Some(e) = self.smt.lookup_mut(addr) else {
            return;
        };
        if count == 1 {
            let (a, b) = e.word_span(addr, elem_size);
            e.shadow[a..=b].iter_mut().for_each(record);
            return;
        }
        let bytes = elem_size.saturating_mul(count);
        let shared_words =
            rmw && !(addr.is_multiple_of(WORD_BYTES) && elem_size.is_multiple_of(WORD_BYTES));
        if shared_words || addr + bytes > e.base + e.size {
            for i in 0..count {
                let a = addr + i * elem_size;
                if let Some(e) = self.smt.lookup_mut(a) {
                    let (first, last) = e.word_span(a, elem_size);
                    e.shadow[first..=last].iter_mut().for_each(&record);
                }
            }
            return;
        }
        let (a, b) = e.word_span(addr, bytes);
        let span = &mut e.shadow[a..=b];
        // Branch-free on purpose: the saturated case scans every word
        // either way, and an early-exit scan cost twice as much per word
        // and moved by up to 15 % with the placement of unrelated code.
        // At saturation a read-modify-write changes nothing either.
        if span.iter().fold(true, |all, &w| all & saturated(w)) {
            return;
        }
        span.iter_mut().for_each(record);
    }

    /// Start tracking an allocation — the wrapped `cudaMalloc*`.
    pub fn trace_alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
        self.smt.insert(base, size, kind);
    }

    /// Retire an allocation — the wrapped `cudaFree`. Its shadow lives
    /// until the epoch ends.
    pub fn trace_free(&mut self, base: Addr) {
        if self.smt.remove_defer(base) {
            self.pending_free.push(base);
        }
    }

    /// Record a copy — the wrapped `cudaMemcpy`. Each operand is one
    /// access of `bytes` bytes, clamped to its allocation.
    pub fn trace_memcpy(&mut self, dst: Addr, src: Addr, bytes: u64, kind: CopyKind) {
        if bytes == 0 {
            return;
        }
        // Paper §III-C: "Memory transfers from CPU to GPU are recorded as
        // writes by the CPU, while memory transfers from GPU to CPU are
        // recorded as reads by the CPU."
        match kind {
            CopyKind::HostToDevice => {
                self.trace(Device::Cpu, dst, bytes, 1, AccessKind::Write);
                if let Some(e) = self.smt.lookup_mut(dst) {
                    e.copied_in.push((dst - e.base, bytes));
                }
            }
            CopyKind::DeviceToHost => {
                self.trace(Device::Cpu, src, bytes, 1, AccessKind::Read);
                if let Some(e) = self.smt.lookup_mut(src) {
                    e.copied_out.push((src - e.base, bytes));
                }
            }
            CopyKind::DeviceToDevice | CopyKind::HostToHost => {
                // Same-side copies move no data across the interconnect;
                // record plain access on both operands.
                let dev = if kind == CopyKind::HostToHost {
                    Device::Cpu
                } else {
                    Device::GPU0
                };
                self.trace(dev, src, bytes, 1, AccessKind::Read);
                self.trace(dev, dst, bytes, 1, AccessKind::Write);
            }
        }
    }

    /// Record a kernel launch — the kernel-launch wrapper.
    pub fn trace_launch(&mut self, name: &str) {
        self.kernel_log.push(name.to_string());
    }

    /// Register user-level names for allocations (the expanded argument
    /// list of `#pragma xpl diagnostic`). Unknown addresses are ignored,
    /// matching the paper's "not tracked ⇒ ignored" rule.
    pub fn register_names(&mut self, objects: &[XplAllocData]) {
        for o in objects {
            self.smt.set_label(o.addr, &o.name);
        }
    }

    /// Shorthand for a single name.
    pub fn name(&mut self, addr: Addr, name: &str) {
        self.smt.set_label(addr, name);
    }

    /// End the current diagnostic epoch: zero all shadow memory, release
    /// shadow entries of allocations freed during the epoch, clear the
    /// kernel log. Called by `tracePrint` after producing output.
    pub fn end_epoch(&mut self) {
        self.smt.reset_shadows();
        self.smt.purge_dead();
        self.pending_free.clear();
        self.kernel_log.clear();
    }

    /// Number of allocations currently tracked.
    pub fn tracked(&self) -> usize {
        self.smt.len()
    }
}

/// One-word shorthands for unit tests: `trace(…, 1, kind)`.
#[cfg(test)]
impl Tracer {
    pub(crate) fn read(&mut self, dev: Device, addr: Addr, size: u64) {
        self.trace(dev, addr, size, 1, AccessKind::Read);
    }

    pub(crate) fn write(&mut self, dev: Device, addr: Addr, size: u64) {
        self.trace(dev, addr, size, 1, AccessKind::Write);
    }

    pub(crate) fn rw(&mut self, dev: Device, addr: Addr, size: u64) {
        self.trace(dev, addr, size, 1, AccessKind::ReadWrite);
    }
}

impl MemHook for Tracer {
    /// The tracer finds the allocation in its own SMT, as the paper's
    /// runtime does (Table III measures that lookup), so it ignores the
    /// machine's `serial`.
    fn on_access(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
        _serial: u64,
    ) {
        self.trace(dev, addr, u64::from(elem_size), count, kind);
    }

    fn on_op(&mut self, op: &Op) {
        match *op {
            Op::Alloc { base, size, kind } => self.trace_alloc(base, size, kind),
            Op::Free { base } => self.trace_free(base),
            Op::Memcpy {
                dst,
                src,
                bytes,
                kind,
                ..
            } => self.trace_memcpy(dst, src, bytes, kind),
            Op::Launch { name, .. } => self.trace_launch(name),
            _ => {}
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::AccessFlags;

    const GPU: Device = Device::GPU0;

    fn tracer_with_alloc(size: u64) -> (Tracer, Addr) {
        let mut t = Tracer::new();
        let base = 0x10_0000;
        t.trace_alloc(base, size, AllocKind::Managed);
        (t, base)
    }

    #[test]
    fn read_write_update_shadow_words() {
        let (mut t, base) = tracer_with_alloc(64);
        t.write(Device::Cpu, base, 8); // words 0 and 1
        t.read(GPU, base + 4, 4); // word 1
        let e = t.smt.lookup(base).unwrap();
        assert!(e.shadow[0].get(AccessFlags::CPU_WROTE));
        assert!(e.shadow[1].get(AccessFlags::CPU_WROTE));
        assert!(e.shadow[1].get(AccessFlags::R_CG));
        assert!(!e.shadow[2].touched());
    }

    #[test]
    fn untracked_addresses_ignored() {
        let (mut t, _) = tracer_with_alloc(64);
        t.write(Device::Cpu, 0xDEAD_0000, 4); // no crash, no effect
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn rmw_is_read_then_write() {
        let (mut t, base) = tracer_with_alloc(16);
        // GPU increments a value last written by the CPU.
        t.write(Device::Cpu, base, 4);
        t.rw(GPU, base, 4);
        let e = t.smt.lookup(base).unwrap();
        // The read saw CPU origin (C>G), then the GPU became last writer.
        assert!(e.shadow[0].get(AccessFlags::R_CG));
        assert!(e.shadow[0].get(AccessFlags::GPU_WROTE));
        assert!(e.shadow[0].get(AccessFlags::LAST_WRITER_GPU));
    }

    #[test]
    fn h2d_memcpy_recorded_as_cpu_writes_on_dst() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 256, AllocKind::Host);
        t.trace_alloc(0x20_0000, 256, AllocKind::Device(0));
        t.trace_memcpy(0x20_0000, 0x10_0000, 128, CopyKind::HostToDevice);
        let e = t.smt.lookup(0x20_0000).unwrap();
        assert!(e.shadow[0].get(AccessFlags::CPU_WROTE));
        assert!(e.shadow[31].get(AccessFlags::CPU_WROTE));
        assert!(!e.shadow[32].touched());
        assert_eq!(e.copied_in, vec![(0, 128)]);
    }

    #[test]
    fn d2h_memcpy_recorded_as_cpu_reads_of_src() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 256, AllocKind::Device(0));
        t.trace_alloc(0x20_0000, 256, AllocKind::Host);
        // GPU wrote the buffer first.
        t.write(GPU, 0x10_0000, 256);
        t.trace_memcpy(0x20_0000, 0x10_0000, 256, CopyKind::DeviceToHost);
        let e = t.smt.lookup(0x10_0000).unwrap();
        // CPU reads of GPU-written values: G>C.
        assert!(e.shadow[0].get(AccessFlags::R_GC));
        assert_eq!(e.copied_out, vec![(0, 256)]);
    }

    #[test]
    fn epoch_reset_clears_everything() {
        let (mut t, base) = tracer_with_alloc(64);
        t.write(Device::Cpu, base, 4);
        t.trace_launch("k1");
        t.trace_free(base);
        assert_eq!(t.tracked(), 1); // deferred
        t.end_epoch();
        assert_eq!(t.tracked(), 0);
        assert!(t.kernel_log.is_empty());
    }

    #[test]
    fn memcpy_over_4_gib_is_not_truncated() {
        // `bytes` ≥ 4 GiB used to be cast to u32 before word_span, so a
        // (1<<32)+4 byte copy silently shadowed only the first word.
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Device(0));
        t.trace_alloc(0x20_0000, 64, AllocKind::Host);
        let huge = (1u64 << 32) + 4;
        t.trace_memcpy(0x10_0000, 0x20_0000, huge, CopyKind::HostToDevice);
        let e = t.smt.lookup(0x10_0000).unwrap();
        // Clamped to the allocation: all 16 words written, not just one.
        assert!(e.shadow[15].get(AccessFlags::CPU_WROTE));
        assert_eq!(e.copied_in, vec![(0, huge)]);

        t.trace_memcpy(0x20_0000, 0x10_0000, huge, CopyKind::DeviceToHost);
        let e = t.smt.lookup(0x10_0000).unwrap();
        assert!(e.shadow[15].get(AccessFlags::R_CC));
    }

    /// Replays `ops` on two tracers — `count` one-element calls on one, a
    /// `count`-element call on the other — and asserts identical shadow
    /// bytes.
    fn assert_range_equiv(size: u64, ops: &[(AccessKind, Device, u64, u64, u64)]) {
        let (mut per, base) = tracer_with_alloc(size);
        let (mut rng, _) = tracer_with_alloc(size);
        for &(kind, dev, off, elem, count) in ops {
            for i in 0..count {
                per.trace(dev, base + off + i * elem, elem, 1, kind);
            }
            rng.trace(dev, base + off, elem, count, kind);
        }
        let a: Vec<u8> = per
            .smt
            .lookup(base)
            .unwrap()
            .shadow
            .iter()
            .map(|f| f.0)
            .collect();
        let b: Vec<u8> = rng
            .smt
            .lookup(base)
            .unwrap()
            .shadow
            .iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(a, b, "ops: {ops:?}");
    }

    #[test]
    fn range_trace_matches_per_element() {
        use AccessKind::*;
        // Aligned word-multiple elements: the vectorized pass.
        assert_range_equiv(
            256,
            &[(Write, Device::Cpu, 0, 4, 64), (Read, GPU, 0, 4, 64)],
        );
        assert_range_equiv(
            256,
            &[(Write, GPU, 16, 8, 20), (ReadWrite, Device::Cpu, 16, 8, 20)],
        );
        // Sub-word elements straddling shadow words (RMW falls back).
        assert_range_equiv(64, &[(ReadWrite, GPU, 0, 2, 32)]);
        assert_range_equiv(64, &[(Read, Device::Cpu, 1, 1, 63), (Write, GPU, 3, 2, 30)]);
        // Unaligned base with word-multiple element.
        assert_range_equiv(64, &[(ReadWrite, Device::Cpu, 2, 4, 15)]);
        // Mixed devices over the same span: origin flips mid-history.
        assert_range_equiv(
            128,
            &[
                (Write, Device::Cpu, 0, 4, 32),
                (ReadWrite, GPU, 0, 4, 32),
                (Read, Device::Cpu, 0, 4, 32),
                (Read, GPU, 64, 4, 16),
            ],
        );
    }

    #[test]
    fn range_trace_is_idempotent_at_saturation() {
        use AccessKind::*;
        // Re-running a saturated range (early-exit path) must match two
        // per-element passes exactly.
        assert_range_equiv(
            128,
            &[
                (Write, GPU, 0, 4, 32),
                (Write, GPU, 0, 4, 32),
                (Read, Device::Cpu, 0, 8, 16),
                (Read, Device::Cpu, 0, 8, 16),
                (ReadWrite, GPU, 0, 4, 32),
                (ReadWrite, GPU, 0, 4, 32),
            ],
        );
    }

    #[test]
    fn range_spilling_past_allocation_matches_per_element_clamp() {
        // 64-byte alloc, range asks for 32 elements of 4 bytes starting
        // at offset 32: the last 24 elements are untracked and ignored.
        assert_range_equiv(64, &[(AccessKind::Write, Device::Cpu, 32, 4, 32)]);
        assert_range_equiv(64, &[(AccessKind::ReadWrite, GPU, 32, 4, 32)]);
    }

    #[test]
    fn hook_range_seam_dispatches_by_kind() {
        let (mut t, base) = tracer_with_alloc(64);
        t.on_access(Device::Cpu, base, 4, 4, AccessKind::Write, 0);
        t.on_access(GPU, base, 4, 4, AccessKind::Read, 0);
        t.on_access(GPU, base + 16, 4, 4, AccessKind::ReadWrite, 0);
        let e = t.smt.lookup(base).unwrap();
        assert!(e.shadow[0].get(AccessFlags::CPU_WROTE));
        assert!(e.shadow[3].get(AccessFlags::R_CG));
        assert!(e.shadow[4].get(AccessFlags::GPU_WROTE));
        assert!(e.shadow[4].get(AccessFlags::R_CC) || e.shadow[4].get(AccessFlags::R_CG));
        assert!(!e.shadow[8].touched());
    }

    #[test]
    fn register_names_labels_known_allocs_only() {
        let (mut t, base) = tracer_with_alloc(64);
        t.register_names(&[
            XplAllocData::new(base, "dom", 8),
            XplAllocData::new(0xBAD, "ghost", 8),
        ]);
        assert_eq!(t.smt.lookup(base).unwrap().display_name(), "dom");
    }
}
