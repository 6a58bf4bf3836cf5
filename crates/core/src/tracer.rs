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
    /// When false, trace calls are no-ops (lets harnesses skip warmup).
    pub enabled: bool,
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
            enabled: true,
            kernel_log: Vec::new(),
            pending_free: Vec::new(),
        }
    }

    /// Record a read of `size` bytes at `addr` by `dev` — `traceR`.
    #[inline]
    pub fn trace_r(&mut self, dev: Device, addr: Addr, size: u32) {
        if !self.enabled {
            return;
        }
        if let Some(e) = self.smt.lookup_mut(addr) {
            let (a, b) = e.word_span(addr, u64::from(size));
            for w in &mut e.shadow[a..=b] {
                w.record_read(dev);
            }
        }
    }

    /// Record a write — `traceW`.
    #[inline]
    pub fn trace_w(&mut self, dev: Device, addr: Addr, size: u32) {
        if !self.enabled {
            return;
        }
        if let Some(e) = self.smt.lookup_mut(addr) {
            let (a, b) = e.word_span(addr, u64::from(size));
            for w in &mut e.shadow[a..=b] {
                w.record_write(dev);
            }
        }
    }

    /// Record a read-modify-write — `traceRW`. The read sees the value
    /// before the write, so order matters.
    #[inline]
    pub fn trace_rw(&mut self, dev: Device, addr: Addr, size: u32) {
        if !self.enabled {
            return;
        }
        if let Some(e) = self.smt.lookup_mut(addr) {
            let (a, b) = e.word_span(addr, u64::from(size));
            for w in &mut e.shadow[a..=b] {
                w.record_read(dev);
                w.record_write(dev);
            }
        }
    }

    /// Vectorized `traceR` over `count` contiguous elements of
    /// `elem_size` bytes: one SMT lookup for the whole range, one pass
    /// over the word span, with an early exit when every word already
    /// carries the read bit this access would set. Reads are idempotent
    /// per word, so the single pass is bit-identical to `count`
    /// individual `trace_r` calls.
    pub fn trace_r_range(&mut self, dev: Device, addr: Addr, elem_size: u32, count: u64) {
        if !self.enabled || count == 0 || elem_size == 0 {
            return;
        }
        let bytes = u64::from(elem_size).saturating_mul(count);
        let Some(e) = self.smt.lookup_mut(addr) else {
            return;
        };
        if addr + bytes > e.base + e.size {
            // Range spills past this allocation: fall back to per-element
            // tracing so out-of-entry elements get the same "untracked ⇒
            // ignored" treatment they would per word.
            for i in 0..count {
                self.trace_r(dev, addr + i * u64::from(elem_size), elem_size);
            }
            return;
        }
        let (a, b) = e.word_span(addr, bytes);
        if saturated(&e.shadow[a..=b], |w| w.read_saturated(dev)) {
            return;
        }
        for w in &mut e.shadow[a..=b] {
            w.record_read(dev);
        }
    }

    /// Vectorized `traceW`. Writes by one device are idempotent per
    /// word, so a single pass is exact for any alignment.
    pub fn trace_w_range(&mut self, dev: Device, addr: Addr, elem_size: u32, count: u64) {
        if !self.enabled || count == 0 || elem_size == 0 {
            return;
        }
        let bytes = u64::from(elem_size).saturating_mul(count);
        let Some(e) = self.smt.lookup_mut(addr) else {
            return;
        };
        if addr + bytes > e.base + e.size {
            for i in 0..count {
                self.trace_w(dev, addr + i * u64::from(elem_size), elem_size);
            }
            return;
        }
        let (a, b) = e.word_span(addr, bytes);
        if saturated(&e.shadow[a..=b], |w| w.write_saturated(dev)) {
            return;
        }
        for w in &mut e.shadow[a..=b] {
            w.record_write(dev);
        }
    }

    /// Vectorized `traceRW`. A read-modify-write is *not* idempotent
    /// when two elements straddle one shadow word (the second element's
    /// read sees the first element's write and records a same-device
    /// read), so the single `record_read`+`record_write` pass is only
    /// used when each word belongs to exactly one element — i.e. the
    /// range is word-aligned with a word-multiple element size.
    /// Unaligned ranges fall back to per-element tracing.
    pub fn trace_rw_range(&mut self, dev: Device, addr: Addr, elem_size: u32, count: u64) {
        if !self.enabled || count == 0 || elem_size == 0 {
            return;
        }
        let bytes = u64::from(elem_size).saturating_mul(count);
        let aligned =
            addr.is_multiple_of(WORD_BYTES) && u64::from(elem_size).is_multiple_of(WORD_BYTES);
        let fits = match self.smt.lookup_mut(addr) {
            Some(e) => addr + bytes <= e.base + e.size,
            None => return,
        };
        if !aligned || !fits {
            for i in 0..count {
                self.trace_rw(dev, addr + i * u64::from(elem_size), elem_size);
            }
            return;
        }
        let e = self.smt.lookup_mut(addr).expect("entry just found");
        let (a, b) = e.word_span(addr, bytes);
        // At saturation both the read and the write are no-ops, so the
        // early exit is exact even though RMW mutates the origin.
        if saturated(&e.shadow[a..=b], |w| w.rw_saturated(dev)) {
            return;
        }
        for w in &mut e.shadow[a..=b] {
            w.record_read(dev);
            w.record_write(dev);
        }
    }

    /// Start tracking an allocation — the wrapped `cudaMalloc*`.
    pub fn trace_alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
        if self.enabled {
            self.smt.insert(base, size, kind);
        }
    }

    /// Retire an allocation — the wrapped `cudaFree`. Its shadow lives
    /// until the epoch ends.
    pub fn trace_free(&mut self, base: Addr) {
        if self.enabled && self.smt.remove_defer(base) {
            self.pending_free.push(base);
        }
    }

    /// Record a copy — the wrapped `cudaMemcpy`.
    pub fn trace_memcpy(&mut self, dst: Addr, src: Addr, bytes: u64, kind: CopyKind) {
        if !self.enabled || bytes == 0 {
            return;
        }
        // Paper §III-C: "Memory transfers from CPU to GPU are recorded as
        // writes by the CPU, while memory transfers from GPU to CPU are
        // recorded as reads by the CPU."
        match kind {
            CopyKind::HostToDevice => {
                if let Some(e) = self.smt.lookup_mut(dst) {
                    let (a, b) = e.word_span(dst, bytes);
                    for w in &mut e.shadow[a..=b] {
                        w.record_write(Device::Cpu);
                    }
                    e.copied_in.push((dst - e.base, bytes));
                }
            }
            CopyKind::DeviceToHost => {
                if let Some(e) = self.smt.lookup_mut(src) {
                    let (a, b) = e.word_span(src, bytes);
                    for w in &mut e.shadow[a..=b] {
                        w.record_read(Device::Cpu);
                    }
                    e.copied_out.push((src - e.base, bytes));
                }
            }
            CopyKind::DeviceToDevice | CopyKind::HostToHost => {
                // Same-side copies move no data across the interconnect;
                // record plain access on both operands.
                if let Some(e) = self.smt.lookup_mut(src) {
                    let (a, b) = e.word_span(src, bytes);
                    let dev = if kind == CopyKind::HostToHost {
                        Device::Cpu
                    } else {
                        Device::GPU0
                    };
                    for w in &mut e.shadow[a..=b] {
                        w.record_read(dev);
                    }
                }
                if let Some(e) = self.smt.lookup_mut(dst) {
                    let (a, b) = e.word_span(dst, bytes);
                    let dev = if kind == CopyKind::HostToHost {
                        Device::Cpu
                    } else {
                        Device::GPU0
                    };
                    for w in &mut e.shadow[a..=b] {
                        w.record_write(dev);
                    }
                }
            }
        }
    }

    /// Record a kernel launch — the kernel-launch wrapper.
    pub fn trace_launch(&mut self, name: &str) {
        if self.enabled {
            self.kernel_log.push(name.to_string());
        }
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

/// Whether `same` holds for every word of `span`, i.e. a range access
/// would change no flag. Branch-free on purpose: the saturated case scans
/// every word either way, and an early-exit scan cost twice as much per
/// word and moved by up to 15 % with the placement of unrelated code.
fn saturated(span: &[AccessFlags], same: impl Fn(AccessFlags) -> bool) -> bool {
    span.iter().fold(true, |all, &w| all & same(w))
}

impl MemHook for Tracer {
    fn on_access(&mut self, dev: Device, addr: Addr, elem_size: u32, count: u64, kind: AccessKind) {
        match (count, kind) {
            (1, AccessKind::Read) => self.trace_r(dev, addr, elem_size),
            (1, AccessKind::Write) => self.trace_w(dev, addr, elem_size),
            (1, AccessKind::ReadWrite) => self.trace_rw(dev, addr, elem_size),
            (_, AccessKind::Read) => self.trace_r_range(dev, addr, elem_size, count),
            (_, AccessKind::Write) => self.trace_w_range(dev, addr, elem_size, count),
            (_, AccessKind::ReadWrite) => self.trace_rw_range(dev, addr, elem_size, count),
        }
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
        t.trace_w(Device::Cpu, base, 8); // words 0 and 1
        t.trace_r(GPU, base + 4, 4); // word 1
        let e = t.smt.lookup(base).unwrap();
        assert!(e.shadow[0].get(AccessFlags::CPU_WROTE));
        assert!(e.shadow[1].get(AccessFlags::CPU_WROTE));
        assert!(e.shadow[1].get(AccessFlags::R_CG));
        assert!(!e.shadow[2].touched());
    }

    #[test]
    fn untracked_addresses_ignored() {
        let (mut t, _) = tracer_with_alloc(64);
        t.trace_w(Device::Cpu, 0xDEAD_0000, 4); // no crash, no effect
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn rmw_is_read_then_write() {
        let (mut t, base) = tracer_with_alloc(16);
        // GPU increments a value last written by the CPU.
        t.trace_w(Device::Cpu, base, 4);
        t.trace_rw(GPU, base, 4);
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
        t.trace_w(GPU, 0x10_0000, 256);
        t.trace_memcpy(0x20_0000, 0x10_0000, 256, CopyKind::DeviceToHost);
        let e = t.smt.lookup(0x10_0000).unwrap();
        // CPU reads of GPU-written values: G>C.
        assert!(e.shadow[0].get(AccessFlags::R_GC));
        assert_eq!(e.copied_out, vec![(0, 256)]);
    }

    #[test]
    fn epoch_reset_clears_everything() {
        let (mut t, base) = tracer_with_alloc(64);
        t.trace_w(Device::Cpu, base, 4);
        t.trace_launch("k1");
        t.trace_free(base);
        assert_eq!(t.tracked(), 1); // deferred
        t.end_epoch();
        assert_eq!(t.tracked(), 0);
        assert!(t.kernel_log.is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let (mut t, base) = tracer_with_alloc(64);
        t.enabled = false;
        t.trace_w(Device::Cpu, base, 4);
        t.trace_launch("k");
        let e = t.smt.lookup(base).unwrap();
        assert!(!e.shadow[0].touched());
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

    /// Replays `ops` on two tracers — per-element on one, ranged on the
    /// other — and asserts identical shadow bytes.
    fn assert_range_equiv(size: u64, ops: &[(AccessKind, Device, u64, u32, u64)]) {
        let (mut per, base) = tracer_with_alloc(size);
        let (mut rng, _) = tracer_with_alloc(size);
        for &(kind, dev, off, elem, count) in ops {
            for i in 0..count {
                let a = base + off + i * u64::from(elem);
                match kind {
                    AccessKind::Read => per.trace_r(dev, a, elem),
                    AccessKind::Write => per.trace_w(dev, a, elem),
                    AccessKind::ReadWrite => per.trace_rw(dev, a, elem),
                }
            }
            match kind {
                AccessKind::Read => rng.trace_r_range(dev, base + off, elem, count),
                AccessKind::Write => rng.trace_w_range(dev, base + off, elem, count),
                AccessKind::ReadWrite => rng.trace_rw_range(dev, base + off, elem, count),
            }
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
        t.on_access(Device::Cpu, base, 4, 4, AccessKind::Write);
        t.on_access(GPU, base, 4, 4, AccessKind::Read);
        t.on_access(GPU, base + 16, 4, 4, AccessKind::ReadWrite);
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
