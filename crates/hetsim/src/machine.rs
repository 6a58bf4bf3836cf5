//! The simulated heterogeneous node: address space + UM driver + GPU
//! memory + clock, behind a CUDA-flavoured API.
//!
//! Workloads and the MiniCU interpreter drive this facade. Every heap
//! access is costed by the platform model and reported to every attached
//! hook (the XPlacer runtime), mirroring what the paper's
//! source-instrumented binaries do on real hardware.

use std::cell::RefCell;
use std::rc::Rc;

use crate::alloc::{AddressSpace, Allocation};
use crate::clock::{Clock, StreamId, DEFAULT_STREAM};
use crate::error::{SimError, SimResult};
use crate::event::{AttrCtx, Event, TimedEvent};
use crate::gpumem::GpuMemory;
use crate::hook::{MemHook, Op};
use crate::platform::Platform;
use crate::stats::Stats;
use crate::types::{AccessKind, Addr, AllocKind, CopyKind, Device, MemAdvise, Scalar, TPtr};
use crate::unified::UmDriver;

/// Bandwidth of copies that stay on one side (host↔host, device↔device),
/// in bytes per nanosecond.
const LOCAL_COPY_BW: f64 = 50.0;

/// Fixed cost of one allocation call.
const ALLOC_NS: f64 = 1_500.0;

/// What the machine is currently executing.
enum ExecMode {
    /// Host code: accesses come from the CPU and advance the host clock
    /// directly.
    Host,
    /// Inside a kernel on `dev`: word/compute costs accumulate into a
    /// parallelizable bucket, driver costs into a serial bucket; the total
    /// is charged when the kernel ends. `stream` is where the kernel was
    /// launched — recorded so events raised inside the kernel carry it.
    Kernel {
        dev: Device,
        stream: StreamId,
        par_ns: f64,
        serial_ns: f64,
    },
}

/// The simulated node.
pub struct Machine {
    pf: Platform,
    mem: AddressSpace,
    um: UmDriver,
    gpus: Vec<GpuMemory>,
    /// Event counters (public: harnesses read them directly).
    pub stats: Stats,
    clock: Clock,
    /// Attached observers, called in attachment order at every call site.
    hooks: Vec<Rc<RefCell<dyn MemHook>>>,
    mode: ExecMode,
    /// Name of the kernel between `kernel_begin` and its completion,
    /// shared into every event the kernel raises (`Rc` keeps per-event
    /// attribution allocation-free).
    cur_kernel: Option<Rc<str>>,
    /// Monotonic kernel-launch counter; `cur_seq` is the sequence number
    /// of the kernel currently executing (0 on the host).
    launch_seq: u64,
    cur_seq: u64,
    /// Whether range accesses take the bulk fast path (one driver
    /// resolution per page) or decompose into the per-word protocol.
    bulk: bool,
}

impl Machine {
    /// Build a node with one GPU from a platform preset.
    pub fn new(platform: Platform) -> Self {
        Self::with_gpus(platform, 1)
    }

    /// Build a node with `n_gpus` GPUs.
    pub fn with_gpus(platform: Platform, n_gpus: usize) -> Self {
        assert!(n_gpus >= 1, "at least one GPU");
        let gpus = (0..n_gpus)
            .map(|_| GpuMemory::new(platform.gpu_mem_bytes, platform.page_size))
            .collect();
        Machine {
            mem: AddressSpace::new(platform.page_size),
            um: UmDriver::new(platform.page_size),
            gpus,
            stats: Stats::default(),
            clock: Clock::new(),
            hooks: Vec::new(),
            mode: ExecMode::Host,
            cur_kernel: None,
            launch_seq: 0,
            cur_seq: 0,
            bulk: true,
            pf: platform,
        }
    }

    /// Disable (or re-enable) the bulk fast path: with bulk off, the
    /// range APIs decompose into the exact per-word scalar protocol.
    /// This is the reference mode the conformance suite compares the
    /// fast path against.
    pub fn set_bulk_enabled(&mut self, on: bool) {
        self.bulk = on;
    }

    /// Whether range accesses take the bulk fast path.
    pub fn bulk_enabled(&self) -> bool {
        self.bulk
    }

    /// The platform this node models.
    pub fn platform(&self) -> &Platform {
        &self.pf
    }

    /// Shrink/grow GPU 0's physical memory (used by the oversubscription
    /// experiments). Clears current residency.
    pub fn set_gpu_mem_bytes(&mut self, bytes: u64) {
        self.pf.gpu_mem_bytes = bytes;
        self.gpus[0] = GpuMemory::new(bytes, self.pf.page_size);
    }

    /// Attach an instrumentation hook (the XPlacer tracer, an event log,
    /// a checker, ...) after any already attached: every callback reaches
    /// the hooks in attachment order. The caller keeps its own `Rc` to
    /// inspect the hook afterwards.
    pub fn add_hook(&mut self, hook: Rc<RefCell<dyn MemHook>>) {
        self.hooks.push(hook);
    }

    /// Report `op` to every hook.
    fn notify(&self, op: Op) {
        for h in &self.hooks {
            h.borrow_mut().on_op(&op);
        }
    }

    /// Report an access to every hook.
    #[inline]
    fn notify_access(&self, dev: Device, addr: Addr, elem_size: u64, count: u64, kind: AccessKind) {
        for h in &self.hooks {
            h.borrow_mut()
                .on_access(dev, addr, elem_size as u32, count, kind);
        }
    }

    /// Attribution context of the current execution mode, tagged with the
    /// allocation the event concerns (if known).
    fn cur_ctx(&self, alloc: Option<Addr>) -> AttrCtx {
        match &self.mode {
            ExecMode::Host => AttrCtx {
                kernel: None,
                launch_seq: 0,
                stream: DEFAULT_STREAM,
                alloc,
            },
            ExecMode::Kernel { stream, .. } => AttrCtx {
                kernel: self.cur_kernel.clone(),
                launch_seq: self.cur_seq,
                stream: *stream,
                alloc,
            },
        }
    }

    /// Deliver a structured event to every hook, stamped with `t_ns`, its
    /// serial cost, and the current attribution context.
    #[inline]
    fn emit(&self, t_ns: f64, cost_ns: f64, alloc: Option<Addr>, event: Event) {
        if !self.hooks.is_empty() {
            self.emit_with(t_ns, cost_ns, self.cur_ctx(alloc), event);
        }
    }

    /// Deliver an event with an explicitly built context (used where the
    /// causing context is no longer current, e.g. the kernel-end span).
    #[inline]
    fn emit_with(&self, t_ns: f64, cost_ns: f64, ctx: AttrCtx, event: Event) {
        let ev = TimedEvent {
            t_ns,
            cost_ns,
            ctx,
            event,
        };
        for h in &self.hooks {
            h.borrow_mut().on_event(&ev);
        }
    }

    // ------------------------------------------------------------------
    // Allocation API
    // ------------------------------------------------------------------

    /// `cudaMallocManaged`: unified memory visible to every device.
    pub fn alloc_managed<T: Scalar>(&mut self, len: usize) -> TPtr<T> {
        self.try_malloc((len * T::SIZE) as u64, AllocKind::Managed)
            .map(|a| TPtr::new(a, len))
            .expect("managed allocation failed")
    }

    /// `cudaMalloc` on GPU 0: device memory.
    pub fn alloc_device<T: Scalar>(&mut self, len: usize) -> TPtr<T> {
        self.try_malloc((len * T::SIZE) as u64, AllocKind::Device(0))
            .map(|a| TPtr::new(a, len))
            .expect("device allocation failed")
    }

    /// Host heap allocation (`malloc`/`new`).
    pub fn alloc_host<T: Scalar>(&mut self, len: usize) -> TPtr<T> {
        self.try_malloc((len * T::SIZE) as u64, AllocKind::Host)
            .map(|a| TPtr::new(a, len))
            .expect("host allocation failed")
    }

    /// Raw allocation entry point (the interpreter's `cudaMalloc` et al.).
    pub fn try_malloc(&mut self, bytes: u64, kind: AllocKind) -> SimResult<Addr> {
        let base = self.mem.alloc(bytes, kind)?;
        self.um
            .register_alloc(base, bytes, kind == AllocKind::Managed);
        self.stats.allocs += 1;
        self.clock.advance(ALLOC_NS);
        self.notify(Op::Alloc {
            base,
            size: bytes,
            kind,
        });
        self.emit(
            self.clock.now(),
            ALLOC_NS,
            Some(base),
            Event::Alloc { base, bytes, kind },
        );
        Ok(base)
    }

    /// Free any allocation by its base address.
    pub fn try_free(&mut self, base: Addr) -> SimResult<()> {
        let size = self.mem.free(base)?;
        self.um.release_range(base, size, &mut self.gpus);
        self.stats.frees += 1;
        self.clock.advance(ALLOC_NS);
        self.notify(Op::Free { base });
        self.emit(self.clock.now(), ALLOC_NS, Some(base), Event::Free { base });
        Ok(())
    }

    /// Free a typed pointer (panics on double free — programmer error in a
    /// workload).
    pub fn free<T: Scalar>(&mut self, p: TPtr<T>) {
        self.try_free(p.addr).expect("free failed");
    }

    // ------------------------------------------------------------------
    // Advice & explicit transfer
    // ------------------------------------------------------------------

    /// `cudaMemAdvise` over a typed range.
    pub fn mem_advise<T: Scalar>(&mut self, p: TPtr<T>, advice: MemAdvise) {
        self.try_mem_advise(p.addr, p.bytes(), advice)
            .expect("mem_advise failed");
    }

    /// `cudaMemAdvise` over a raw byte range.
    pub fn try_mem_advise(&mut self, addr: Addr, bytes: u64, advice: MemAdvise) -> SimResult<()> {
        let a = self.mem.find(addr, bytes.max(1))?;
        if a.kind != AllocKind::Managed {
            return Err(SimError::AdviseOnUnmanaged { addr });
        }
        let alloc_base = a.base;
        self.um.advise(addr, bytes, advice);
        self.emit(
            self.clock.now(),
            0.0,
            Some(alloc_base),
            Event::Advise {
                addr,
                bytes,
                advice,
            },
        );
        Ok(())
    }

    /// `cudaMemPrefetchAsync`: proactively migrate a managed range to
    /// `dst` on `stream`, avoiding later on-demand faults.
    pub fn try_mem_prefetch(
        &mut self,
        addr: Addr,
        bytes: u64,
        dst: Device,
        stream: StreamId,
    ) -> SimResult<()> {
        let a = self.mem.find(addr, bytes.max(1))?;
        if a.kind != AllocKind::Managed {
            return Err(SimError::AdviseOnUnmanaged { addr });
        }
        let alloc_base = a.base;
        let po = self
            .um
            .prefetch(&self.pf, &mut self.gpus, &mut self.stats, addr, bytes, dst);
        let cost = po.cost_ns();
        let end = self.clock.enqueue(stream, cost);
        self.emit(
            end,
            po.transfer_ns,
            Some(alloc_base),
            Event::Prefetch {
                addr,
                bytes,
                pages: po.pages,
                bytes_moved: po.bytes_moved,
                to: dst,
                stream,
                start_ns: end - cost,
                end_ns: end,
            },
        );
        if po.evictions > 0 {
            // Room had to be made at the destination; report it the same
            // way fault-path evictions are, so stream consumers see all
            // eviction traffic as `Evict` events.
            self.emit(
                end,
                po.evict_writeback_ns,
                Some(alloc_base),
                Event::Evict {
                    pages: po.evictions,
                    bytes: po.evictions as u64 * self.pf.page_size,
                    writeback_pages: po.writeback_pages,
                    writeback_bytes: po.writeback_bytes,
                },
            );
        }
        Ok(())
    }

    /// Typed wrapper over [`try_mem_prefetch`](Self::try_mem_prefetch) on
    /// the default stream.
    pub fn mem_prefetch<T: Scalar>(&mut self, p: TPtr<T>, dst: Device) {
        self.try_mem_prefetch(p.addr, p.bytes(), dst, crate::clock::DEFAULT_STREAM)
            .expect("mem_prefetch failed");
        self.clock.sync_stream(crate::clock::DEFAULT_STREAM);
    }

    /// Synchronous `cudaMemcpy` of `bytes`.
    pub fn try_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
    ) -> SimResult<()> {
        let alloc = self.copy_data(dst, src, bytes, kind)?;
        let dur = self.copy_cost(bytes, kind);
        let start = self.clock.now();
        self.clock.advance(dur);
        self.record_copy(
            dst,
            src,
            bytes,
            kind,
            alloc,
            DEFAULT_STREAM,
            start,
            start + dur,
            true,
        );
        Ok(())
    }

    /// `cudaMemcpyAsync` on a stream; the host continues immediately.
    pub fn try_memcpy_async(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        stream: StreamId,
    ) -> SimResult<()> {
        // Data effects are applied eagerly; only the time is deferred.
        let alloc = self.copy_data(dst, src, bytes, kind)?;
        let dur = self.copy_cost(bytes, kind);
        let staged = self.pf.async_pageable_copy_serializes && kind.crosses_interconnect();
        let end = if staged {
            // Pageable-memory staging: the "async" copy blocks the host.
            self.clock.advance(dur);
            self.clock.now()
        } else {
            self.clock.enqueue(stream, dur)
        };
        self.record_copy(dst, src, bytes, kind, alloc, stream, end - dur, end, staged);
        Ok(())
    }

    /// Typed convenience wrapper over [`try_memcpy`](Self::try_memcpy).
    pub fn memcpy<T: Scalar>(&mut self, dst: TPtr<T>, src: TPtr<T>, elems: usize, kind: CopyKind) {
        self.try_memcpy(dst.addr, src.addr, (elems * T::SIZE) as u64, kind)
            .expect("memcpy failed");
    }

    /// Typed convenience wrapper over
    /// [`try_memcpy_async`](Self::try_memcpy_async).
    pub fn memcpy_async<T: Scalar>(
        &mut self,
        dst: TPtr<T>,
        src: TPtr<T>,
        elems: usize,
        kind: CopyKind,
        stream: StreamId,
    ) {
        self.try_memcpy_async(dst.addr, src.addr, (elems * T::SIZE) as u64, kind, stream)
            .expect("memcpy_async failed");
    }

    fn copy_cost(&self, bytes: u64, kind: CopyKind) -> f64 {
        if kind.crosses_interconnect() {
            self.pf.memcpy_latency_ns + self.pf.xfer_ns(bytes)
        } else {
            self.pf.memcpy_latency_ns * 0.1 + bytes as f64 / LOCAL_COPY_BW
        }
    }

    /// Validate a copy's operands and move its bytes, resolving each
    /// operand once. Returns the base of the allocation holding `dst`,
    /// which the copy is charged to (a zero-byte copy moves nothing and
    /// may not resolve to one).
    fn copy_data(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
    ) -> SimResult<Option<Addr>> {
        if bytes == 0 {
            return Ok(self.mem.find(dst, 1).ok().map(|a| a.base));
        }
        let di = self.mem.resolve(dst, bytes)?;
        let si = self.mem.resolve(src, bytes)?;
        let (dk, sk) = (self.mem.at(di).kind, self.mem.at(si).kind);
        let dev_side = |k: AllocKind| matches!(k, AllocKind::Device(_));
        let host_side = |k: AllocKind| k == AllocKind::Host;
        let ok = match kind {
            // Managed memory is reachable from either side, so it only
            // conflicts with the *opposite* explicit kind.
            CopyKind::HostToDevice => !dev_side(sk) && !host_side(dk),
            CopyKind::DeviceToHost => !host_side(sk) && !dev_side(dk),
            CopyKind::DeviceToDevice => !host_side(sk) && !host_side(dk),
            CopyKind::HostToHost => !dev_side(sk) && !dev_side(dk),
        };
        if !ok {
            return Err(SimError::BadCopyDirection { dst, src });
        }
        self.mem.move_bytes(di, dst, si, src, bytes);
        Ok(Some(self.mem.at(di).base))
    }

    #[allow(clippy::too_many_arguments)]
    fn record_copy(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        alloc: Option<Addr>,
        stream: StreamId,
        start_ns: f64,
        end_ns: f64,
        blocking: bool,
    ) {
        match kind {
            CopyKind::HostToDevice => self.stats.memcpy_h2d += 1,
            CopyKind::DeviceToHost => self.stats.memcpy_d2h += 1,
            _ => {}
        }
        self.stats.memcpy_bytes += bytes;
        self.notify(Op::Memcpy {
            dst,
            src,
            bytes,
            kind,
            stream,
            blocking,
        });
        self.emit(
            end_ns,
            end_ns - start_ns,
            alloc,
            Event::Memcpy {
                dst,
                src,
                bytes,
                kind,
                stream,
                start_ns,
                end_ns,
            },
        );
    }

    // ------------------------------------------------------------------
    // Word accesses
    // ------------------------------------------------------------------

    #[inline]
    fn cur_dev(&self) -> Device {
        match self.mode {
            ExecMode::Host => Device::Cpu,
            ExecMode::Kernel { dev, .. } => dev,
        }
    }

    /// Validate the access path and charge its cost. Returns the accessed
    /// bytes, so the data move needs no second lookup.
    #[inline]
    fn pre_access(
        &mut self,
        dev: Device,
        addr: Addr,
        size: u64,
        write: bool,
    ) -> SimResult<&mut [u8]> {
        let i = self.mem.resolve(addr, size)?;
        let a = self.mem.at(i);
        let (kind, alloc_base) = (a.kind, a.base);
        let mut serial = 0.0;
        match kind {
            AllocKind::Managed => {
                let page = self.pf.page_of(addr);
                let out =
                    self.um
                        .access(&self.pf, &mut self.gpus, &mut self.stats, dev, page, write);
                serial = out.serial_ns();
                if !self.hooks.is_empty() {
                    self.emit_access_events(dev, page, write, alloc_base, &out);
                }
            }
            AllocKind::Device(g) => {
                if dev != Device::Gpu(g) {
                    return Err(SimError::IllegalAccess { device: dev, addr });
                }
            }
            AllocKind::Host => {
                if dev != Device::Cpu {
                    return Err(SimError::IllegalAccess { device: dev, addr });
                }
            }
        }
        self.charge(self.word_ns(dev), serial);
        match (dev, write) {
            (Device::Cpu, false) => self.stats.cpu_reads += 1,
            (Device::Cpu, true) => self.stats.cpu_writes += 1,
            (Device::Gpu(_), false) => self.stats.gpu_reads += 1,
            (Device::Gpu(_), true) => self.stats.gpu_writes += 1,
        }
        Ok(self.mem.bytes_mut(i, addr, size))
    }

    /// Local word cost of one access by `dev`.
    #[inline]
    fn word_ns(&self, dev: Device) -> f64 {
        match dev {
            Device::Cpu => self.pf.cpu_word_ns,
            Device::Gpu(_) => self.pf.gpu_word_ns,
        }
    }

    /// Charge one word access: host mode advances the clock, kernel mode
    /// accumulates into the parallel/serial buckets.
    #[inline]
    fn charge(&mut self, word_ns: f64, serial: f64) {
        match &mut self.mode {
            ExecMode::Host => self.clock.advance(word_ns + serial),
            ExecMode::Kernel {
                par_ns, serial_ns, ..
            } => {
                *par_ns += word_ns;
                *serial_ns += serial;
            }
        }
    }

    /// Validate and account a contiguous range access of `count` elements
    /// of `elem_size` bytes starting at `addr`, all by `dev` — the bulk
    /// fast path. The UM driver is resolved once per page group instead
    /// of once per word; per-word cost and stat accounting is replicated
    /// exactly, so the range is indistinguishable from the per-word loop
    /// in stats, simulated time, and emitted events. Returns the index of
    /// the allocation holding the range.
    fn pre_access_range(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u64,
        count: u64,
        write: bool,
    ) -> SimResult<usize> {
        debug_assert!(count > 0 && elem_size > 0);
        let i = self.mem.resolve(addr, elem_size.saturating_mul(count))?;
        let a = self.mem.at(i);
        let (kind, alloc_base) = (a.kind, a.base);
        let word = self.word_ns(dev);
        match kind {
            AllocKind::Managed => {
                let page_size = self.pf.page_size;
                let mut i = 0u64;
                while i < count {
                    let a_i = addr + i * elem_size;
                    let page = self.pf.page_of(a_i);
                    // Elements whose *start* lands on this page form one
                    // group: an element straddling the boundary is driven
                    // by its first page, exactly as the per-word path.
                    let last_in_page = (page + 1) * page_size - 1;
                    let k = ((last_in_page - a_i) / elem_size + 1).min(count - i);
                    let (out, tail_ns) = self.um.access_range(
                        &self.pf,
                        &mut self.gpus,
                        &mut self.stats,
                        dev,
                        page,
                        write,
                        k,
                    );
                    if !self.hooks.is_empty() {
                        self.emit_access_events(dev, page, write, alloc_base, &out);
                    }
                    // Replicate the per-word charge sequence so simulated
                    // time stays bit-identical to the scalar path.
                    self.charge(word, out.serial_ns());
                    for _ in 1..k {
                        self.charge(word, tail_ns);
                    }
                    i += k;
                }
            }
            AllocKind::Device(g) => {
                if dev != Device::Gpu(g) {
                    return Err(SimError::IllegalAccess { device: dev, addr });
                }
                for _ in 0..count {
                    self.charge(word, 0.0);
                }
            }
            AllocKind::Host => {
                if dev != Device::Cpu {
                    return Err(SimError::IllegalAccess { device: dev, addr });
                }
                for _ in 0..count {
                    self.charge(word, 0.0);
                }
            }
        }
        match (dev, write) {
            (Device::Cpu, false) => self.stats.cpu_reads += count,
            (Device::Cpu, true) => self.stats.cpu_writes += count,
            (Device::Gpu(_), false) => self.stats.gpu_reads += count,
            (Device::Gpu(_), true) => self.stats.gpu_writes += count,
        }
        Ok(i)
    }

    /// Report the driver actions of one managed access as structured
    /// events. Inside a kernel the stamp is the launch-time clock plus the
    /// serial driver cost accumulated so far — the clock itself only
    /// advances when the kernel's total duration settles at its end.
    fn emit_access_events(
        &self,
        dev: Device,
        page: u64,
        write: bool,
        alloc_base: Addr,
        out: &crate::unified::AccessOutcome,
    ) {
        let t = match &self.mode {
            ExecMode::Host => self.clock.now(),
            ExecMode::Kernel { serial_ns, .. } => self.clock.now() + serial_ns,
        };
        let alloc = Some(alloc_base);
        if out.fault {
            self.emit(
                t,
                out.fault_service_ns,
                alloc,
                Event::PageFault { dev, page, write },
            );
        }
        if out.duplicated {
            self.emit(
                t,
                out.transfer_ns,
                alloc,
                Event::ReadDup {
                    page,
                    to: dev,
                    bytes: self.pf.page_size,
                },
            );
        }
        if out.migrated {
            self.emit(
                t,
                out.transfer_ns,
                alloc,
                Event::Migration {
                    page,
                    to: dev,
                    bytes: self.pf.page_size,
                },
            );
        }
        if out.invalidations > 0 {
            self.emit(
                t,
                out.invalidate_ns,
                alloc,
                Event::Invalidate {
                    page,
                    copies: out.invalidations,
                },
            );
        }
        if out.evictions > 0 {
            self.emit(
                t,
                out.evict_writeback_ns,
                alloc,
                Event::Evict {
                    pages: out.evictions,
                    bytes: out.evictions as u64 * self.pf.page_size,
                    writeback_pages: out.writeback_pages,
                    writeback_bytes: out.evicted_bytes,
                },
            );
        }
    }

    /// Read a scalar at a raw address on the current device.
    pub fn try_read_scalar<T: Scalar>(&mut self, addr: Addr) -> SimResult<T> {
        let dev = self.cur_dev();
        let v = T::load_le(self.pre_access(dev, addr, T::SIZE as u64, false)?);
        self.notify_access(dev, addr, T::SIZE as u64, 1, AccessKind::Read);
        Ok(v)
    }

    /// Write a scalar at a raw address on the current device.
    pub fn try_write_scalar<T: Scalar>(&mut self, addr: Addr, v: T) -> SimResult<()> {
        let dev = self.cur_dev();
        v.store_le(self.pre_access(dev, addr, T::SIZE as u64, true)?);
        self.notify_access(dev, addr, T::SIZE as u64, 1, AccessKind::Write);
        Ok(())
    }

    /// Read-modify-write a scalar at a raw address (one `traceRW` event).
    pub fn try_rmw_scalar<T: Scalar>(
        &mut self,
        addr: Addr,
        f: impl FnOnce(T) -> T,
    ) -> SimResult<T> {
        let dev = self.cur_dev();
        // A RMW is one round trip plus a write: charge both directions.
        let bytes = self.pre_access(dev, addr, T::SIZE as u64, true)?;
        let new = f(T::load_le(bytes));
        new.store_le(bytes);
        match dev {
            Device::Cpu => self.stats.cpu_reads += 1,
            Device::Gpu(_) => self.stats.gpu_reads += 1,
        }
        self.notify_access(dev, addr, T::SIZE as u64, 1, AccessKind::ReadWrite);
        Ok(new)
    }

    /// Load element `i` of `p` (panics on access errors — these are bugs
    /// in the simulated program, surfaced loudly in workloads).
    #[inline]
    pub fn ld<T: Scalar>(&mut self, p: TPtr<T>, i: usize) -> T {
        match self.try_read_scalar(p.at(i)) {
            Ok(v) => v,
            Err(e) => panic!("load {p:?}[{i}]: {e}"),
        }
    }

    /// Store `v` into element `i` of `p`.
    #[inline]
    pub fn st<T: Scalar>(&mut self, p: TPtr<T>, i: usize, v: T) {
        if let Err(e) = self.try_write_scalar(p.at(i), v) {
            panic!("store {p:?}[{i}]: {e}");
        }
    }

    /// Read-modify-write element `i` of `p`, returning the new value.
    #[inline]
    pub fn rmw<T: Scalar>(&mut self, p: TPtr<T>, i: usize, f: impl FnOnce(T) -> T) -> T {
        match self.try_rmw_scalar(p.at(i), f) {
            Ok(v) => v,
            Err(e) => panic!("rmw {p:?}[{i}]: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Bulk range accesses (the fast path)
    // ------------------------------------------------------------------

    /// Bulk read: `count` elements of `elem_size` bytes starting at
    /// `addr`, on the current device. Accounting and hook notification
    /// only — pair with the typed wrappers ([`ld_range`](Self::ld_range)
    /// et al.) to also move data.
    pub fn read_range(&mut self, addr: Addr, elem_size: u64, count: u64) -> SimResult<()> {
        self.access_range(addr, elem_size, count, AccessKind::Read)
    }

    /// Bulk write counterpart of [`read_range`](Self::read_range).
    pub fn write_range(&mut self, addr: Addr, elem_size: u64, count: u64) -> SimResult<()> {
        self.access_range(addr, elem_size, count, AccessKind::Write)
    }

    /// Bulk read-modify-write counterpart of
    /// [`read_range`](Self::read_range): each element is charged like one
    /// [`try_rmw_scalar`](Self::try_rmw_scalar).
    pub fn rw_range(&mut self, addr: Addr, elem_size: u64, count: u64) -> SimResult<()> {
        self.access_range(addr, elem_size, count, AccessKind::ReadWrite)
    }

    /// Shared entry point of the range APIs. With bulk enabled (the
    /// default) the UM driver is resolved once per page and each hook
    /// sees one `on_access` for the whole range; with bulk disabled the
    /// range decomposes into the exact per-word scalar protocol.
    pub fn access_range(
        &mut self,
        addr: Addr,
        elem_size: u64,
        count: u64,
        kind: AccessKind,
    ) -> SimResult<()> {
        if count == 0 || elem_size == 0 {
            return Ok(());
        }
        let dev = self.cur_dev();
        if !self.bulk {
            return self.access_range_per_word(dev, addr, elem_size, count, kind);
        }
        self.access_range_bulk(dev, addr, elem_size, count, kind)
            .map(drop)
    }

    /// The bulk path of [`access_range`](Self::access_range). Returns the
    /// index of the allocation holding the range.
    fn access_range_bulk(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u64,
        count: u64,
        kind: AccessKind,
    ) -> SimResult<usize> {
        let i = self.pre_access_range(dev, addr, elem_size, count, kind.writes())?;
        if kind == AccessKind::ReadWrite {
            // The read half of a RMW is a stat, not an extra word charge
            // (matching try_rmw_scalar).
            match dev {
                Device::Cpu => self.stats.cpu_reads += count,
                Device::Gpu(_) => self.stats.gpu_reads += count,
            }
        }
        self.notify_access(dev, addr, elem_size, count, kind);
        Ok(i)
    }

    /// Charge a non-empty range access exactly like
    /// [`access_range`](Self::access_range) and return its bytes for the
    /// typed wrappers' data move.
    fn range_bytes(
        &mut self,
        addr: Addr,
        elem_size: u64,
        count: u64,
        kind: AccessKind,
    ) -> SimResult<&mut [u8]> {
        let dev = self.cur_dev();
        let len = elem_size.saturating_mul(count);
        let i = if self.bulk {
            self.access_range_bulk(dev, addr, elem_size, count, kind)?
        } else {
            // The per-word reference protocol resolves every element; the
            // data move resolves the whole range once more.
            self.access_range_per_word(dev, addr, elem_size, count, kind)?;
            self.mem.resolve(addr, len)?
        };
        Ok(self.mem.bytes_mut(i, addr, len))
    }

    /// Reference decomposition of a range access into the per-word
    /// scalar protocol, byte-for-byte identical to an element-by-element
    /// `ld`/`st`/`rmw` loop. The conformance suite runs workloads both
    /// ways and asserts equality.
    fn access_range_per_word(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u64,
        count: u64,
        kind: AccessKind,
    ) -> SimResult<()> {
        for i in 0..count {
            let a = addr + i * elem_size;
            self.pre_access(dev, a, elem_size, kind.writes())?;
            if kind == AccessKind::ReadWrite {
                match dev {
                    Device::Cpu => self.stats.cpu_reads += 1,
                    Device::Gpu(_) => self.stats.gpu_reads += 1,
                }
            }
            self.notify_access(dev, a, elem_size, 1, kind);
        }
        Ok(())
    }

    /// Load `count` consecutive elements of `p` starting at index
    /// `start` — the bulk counterpart of [`ld`](Self::ld).
    pub fn ld_range<T: Scalar>(&mut self, p: TPtr<T>, start: usize, count: usize) -> Vec<T> {
        if count == 0 {
            return Vec::new();
        }
        match self.range_bytes(p.at(start), T::SIZE as u64, count as u64, AccessKind::Read) {
            Ok(bytes) => bytes.chunks_exact(T::SIZE).map(T::load_le).collect(),
            Err(e) => panic!("ld_range {p:?}[{start}..{}]: {e}", start + count),
        }
    }

    /// Store `vals` into consecutive elements of `p` starting at index
    /// `start` — the bulk counterpart of [`st`](Self::st).
    pub fn st_range<T: Scalar>(&mut self, p: TPtr<T>, start: usize, vals: &[T]) {
        if vals.is_empty() {
            return;
        }
        let n = vals.len() as u64;
        match self.range_bytes(p.at(start), T::SIZE as u64, n, AccessKind::Write) {
            Ok(bytes) => {
                for (chunk, v) in bytes.chunks_exact_mut(T::SIZE).zip(vals) {
                    v.store_le(chunk);
                }
            }
            Err(e) => panic!("st_range {p:?}[{start}..{}]: {e}", start + vals.len()),
        }
    }

    /// Store `v` into `count` consecutive elements of `p` starting at
    /// index `start` (a bulk memset-style sweep).
    pub fn fill<T: Scalar>(&mut self, p: TPtr<T>, start: usize, count: usize, v: T) {
        if count == 0 {
            return;
        }
        match self.range_bytes(p.at(start), T::SIZE as u64, count as u64, AccessKind::Write) {
            Ok(bytes) => {
                for chunk in bytes.chunks_exact_mut(T::SIZE) {
                    v.store_le(chunk);
                }
            }
            Err(e) => panic!("fill {p:?}[{start}..{}]: {e}", start + count),
        }
    }

    /// Read-modify-write `count` consecutive elements of `p` starting at
    /// index `start`; `f` maps (element index, old value) to the new
    /// value — the bulk counterpart of [`rmw`](Self::rmw).
    pub fn rmw_range<T: Scalar>(
        &mut self,
        p: TPtr<T>,
        start: usize,
        count: usize,
        mut f: impl FnMut(usize, T) -> T,
    ) {
        if count == 0 {
            return;
        }
        let kind = AccessKind::ReadWrite;
        match self.range_bytes(p.at(start), T::SIZE as u64, count as u64, kind) {
            Ok(bytes) => {
                for (i, chunk) in bytes.chunks_exact_mut(T::SIZE).enumerate() {
                    f(start + i, T::load_le(chunk)).store_le(chunk);
                }
            }
            Err(e) => panic!("rmw_range {p:?}[{start}..{}]: {e}", start + count),
        }
    }

    /// Account `ops` arithmetic operations on the current device.
    #[inline]
    pub fn compute(&mut self, ops: u64) {
        match &mut self.mode {
            ExecMode::Host => self.clock.advance(ops as f64 * self.pf.cpu_flop_ns),
            ExecMode::Kernel { par_ns, dev, .. } => {
                debug_assert!(dev.is_gpu());
                *par_ns += ops as f64 * self.pf.gpu_flop_ns;
            }
        }
    }

    // ------------------------------------------------------------------
    // Un-costed debug access (peek/poke)
    // ------------------------------------------------------------------

    /// Read backing bytes without costing, tracing, or paging — for test
    /// assertions and building inputs.
    pub fn peek<T: Scalar>(&mut self, p: TPtr<T>, i: usize) -> T {
        let mut buf = [0u8; 16];
        self.mem
            .read_bytes(p.at(i), &mut buf[..T::SIZE])
            .expect("peek failed");
        T::load_le(&buf[..T::SIZE])
    }

    /// Byte-level [`peek`](Self::peek): fill `out` from backing memory
    /// without costing, tracing, or paging. Pair with the `*_range`
    /// accounting APIs when moving data for an already-charged range.
    pub fn peek_bytes(&mut self, addr: Addr, out: &mut [u8]) -> SimResult<()> {
        self.mem.read_bytes(addr, out)
    }

    /// Byte-level [`poke`](Self::poke): write `src` to backing memory
    /// without costing, tracing, or paging.
    pub fn poke_bytes(&mut self, addr: Addr, src: &[u8]) -> SimResult<()> {
        self.mem.write_bytes(addr, src)?;
        self.notify(Op::DebugWrite {
            addr,
            bytes: src.len() as u64,
        });
        Ok(())
    }

    /// Write backing bytes without costing, tracing, or paging.
    pub fn poke<T: Scalar>(&mut self, p: TPtr<T>, i: usize, v: T) {
        let mut buf = [0u8; 16];
        v.store_le(&mut buf[..T::SIZE]);
        self.mem
            .write_bytes(p.at(i), &buf[..T::SIZE])
            .expect("poke failed");
        self.notify(Op::DebugWrite {
            addr: p.at(i),
            bytes: T::SIZE as u64,
        });
    }

    /// Tell the attached hooks which source statement (1-based `line:col`)
    /// the upcoming accesses belong to. Free when no hook is attached.
    pub fn note_site(&mut self, line: u32, col: u32) {
        self.notify(Op::Site { line, col });
    }

    /// Tell the attached hooks the variable name behind the allocation at
    /// `base` (for human-readable diagnostics).
    pub fn note_alloc_label(&mut self, base: Addr, label: &str) {
        self.notify(Op::AllocLabel { base, label });
    }

    // ------------------------------------------------------------------
    // Kernels
    // ------------------------------------------------------------------

    /// Launch a kernel of `threads` threads synchronously on GPU 0. The
    /// body runs once per thread with the machine in GPU execution mode.
    pub fn launch(
        &mut self,
        name: &str,
        threads: usize,
        mut body: impl FnMut(usize, &mut Machine),
    ) {
        self.run_kernel(name, DEFAULT_STREAM, threads, &mut body);
        self.kernel_finish_sync();
    }

    /// Launch a kernel asynchronously on `stream`; the host continues.
    pub fn launch_async(
        &mut self,
        stream: StreamId,
        name: &str,
        threads: usize,
        mut body: impl FnMut(usize, &mut Machine),
    ) {
        self.run_kernel(name, stream, threads, &mut body);
        self.kernel_finish_async(stream);
    }

    fn run_kernel(
        &mut self,
        name: &str,
        stream: StreamId,
        threads: usize,
        body: &mut dyn FnMut(usize, &mut Machine),
    ) {
        self.kernel_begin_on(name, stream);
        for t in 0..threads {
            body(t, self);
        }
    }

    /// Enter GPU execution mode explicitly (used by drivers that cannot
    /// express the kernel as one closure, like the MiniCU interpreter).
    /// Pair with [`kernel_finish`](Self::kernel_finish).
    pub fn kernel_begin(&mut self, name: &str) {
        self.kernel_begin_on(name, DEFAULT_STREAM);
    }

    /// [`kernel_begin`](Self::kernel_begin) with an explicit stream, so
    /// events raised inside the kernel are attributed to it.
    pub fn kernel_begin_on(&mut self, name: &str, stream: StreamId) {
        assert!(
            matches!(self.mode, ExecMode::Host),
            "kernel launched from inside a kernel"
        );
        self.stats.kernel_launches += 1;
        self.launch_seq += 1;
        self.cur_seq = self.launch_seq;
        self.cur_kernel = Some(Rc::from(name));
        let t = self.clock.now();
        self.mode = ExecMode::Kernel {
            dev: Device::GPU0,
            stream,
            par_ns: 0.0,
            serial_ns: 0.0,
        };
        if !self.hooks.is_empty() {
            self.notify(Op::Launch {
                name,
                stream,
                seq: self.cur_seq,
            });
            // Mode is already Kernel, so the begin marker carries the
            // kernel's own attribution context.
            self.emit(
                t,
                0.0,
                None,
                Event::KernelBegin {
                    name: name.to_string(),
                },
            );
        }
    }

    /// Leave GPU execution mode, returning the kernel's duration (without
    /// advancing the clock — callers decide sync vs async). No completion
    /// hook or span event fires; use
    /// [`kernel_finish_sync`](Self::kernel_finish_sync) /
    /// [`kernel_finish_async`](Self::kernel_finish_async) for the normal
    /// paths, or this directly to abandon a kernel (e.g. on a trap).
    pub fn kernel_finish(&mut self) -> f64 {
        let (par, serial) = match self.mode {
            ExecMode::Kernel {
                par_ns, serial_ns, ..
            } => (par_ns, serial_ns),
            ExecMode::Host => panic!("kernel_finish outside a kernel"),
        };
        self.mode = ExecMode::Host;
        self.cur_kernel = None;
        self.cur_seq = 0;
        self.pf.kernel_launch_ns + par / self.pf.gpu_parallelism + serial
    }

    /// Complete the current kernel synchronously: the host blocks for its
    /// duration, then the completion hook and span event fire. Returns the
    /// kernel's duration.
    pub fn kernel_finish_sync(&mut self) -> f64 {
        let ctx = self.cur_ctx(None);
        let dur = self.kernel_finish();
        let start = self.clock.now();
        self.clock.advance(dur);
        self.finish_hooks(ctx, start, start + dur, true);
        dur
    }

    /// Complete the current kernel asynchronously on `stream`: its
    /// duration is enqueued there and the host continues. Returns the
    /// kernel's duration.
    pub fn kernel_finish_async(&mut self, stream: StreamId) -> f64 {
        let mut ctx = self.cur_ctx(None);
        ctx.stream = stream;
        let dur = self.kernel_finish();
        let end = self.clock.enqueue(stream, dur);
        self.finish_hooks(ctx, end - dur, end, false);
        dur
    }

    fn finish_hooks(&mut self, ctx: AttrCtx, start_ns: f64, end_ns: f64, blocking: bool) {
        if !self.hooks.is_empty() {
            let name = ctx.kernel_name().unwrap_or_default().to_string();
            let stream = ctx.stream;
            self.notify(Op::KernelEnd {
                name: &name,
                stream,
                blocking,
            });
            // The span carries the kernel's own context so its total cost
            // folds under the kernel even though the machine is back in
            // host mode by now.
            self.emit_with(
                end_ns,
                end_ns - start_ns,
                ctx,
                Event::KernelEnd {
                    name,
                    stream,
                    start_ns,
                    end_ns,
                },
            );
        }
    }

    /// Advance the host clock by an externally computed duration (e.g. a
    /// kernel finished via [`kernel_finish`](Self::kernel_finish)).
    pub fn advance_ns(&mut self, dt: f64) {
        self.clock.advance(dt);
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Current host time in nanoseconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Create a new stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.clock.create_stream()
    }

    /// Number of streams (including the default stream).
    pub fn stream_count(&self) -> usize {
        self.clock.stream_count()
    }

    /// Per-stream timeline state: entry `i` is the completion time of the
    /// last op enqueued on stream `i` (see [`Clock::stream_tails`]).
    pub fn stream_tails(&self) -> &[f64] {
        self.clock.stream_tails()
    }

    /// Block the host on one stream (`cudaStreamSynchronize`). Charges the
    /// host-side driver cost of the call on top of the waiting itself.
    pub fn sync_stream(&mut self, s: StreamId) {
        self.clock.sync_stream(s);
        self.clock.advance(self.pf.stream_sync_ns);
        self.notify(Op::StreamSync { stream: s });
    }

    /// `cudaDeviceSynchronize`: drain all streams, then report total time.
    pub fn elapsed_ns(&mut self) -> f64 {
        self.clock.sync_all();
        self.notify(Op::DeviceSync);
        self.clock.now()
    }

    /// Reset clock and counters (allocations survive).
    pub fn reset_metrics(&mut self) {
        self.clock.reset();
        self.stats.reset();
    }

    /// Access the address space (diagnostics / interpreter).
    pub fn address_space(&self) -> &AddressSpace {
        &self.mem
    }

    /// Find the allocation containing `addr` (for the interpreter's
    /// pointer arithmetic checks).
    pub fn find_alloc(&self, addr: Addr) -> SimResult<&Allocation> {
        self.mem.find(addr, 1)
    }

    /// Inspect the UM page state of the page containing `addr`.
    pub fn page_state(&self, addr: Addr) -> &crate::unified::PageState {
        self.um.state(self.pf.page_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::CountingHook;
    use crate::platform::{intel_pascal, power9_volta};

    fn m() -> Machine {
        Machine::new(intel_pascal())
    }

    #[test]
    fn host_roundtrip_managed() {
        let mut m = m();
        let p = m.alloc_managed::<f64>(8);
        m.st(p, 3, 2.5);
        assert_eq!(m.ld(p, 3), 2.5);
        assert_eq!(m.stats.cpu_writes, 1);
        assert_eq!(m.stats.cpu_reads, 1);
    }

    #[test]
    fn kernel_accesses_count_as_gpu() {
        let mut m = m();
        let p = m.alloc_managed::<f64>(16);
        m.launch("init", 16, |t, m| {
            m.st(p, t, t as f64);
        });
        assert_eq!(m.stats.gpu_writes, 16);
        assert_eq!(m.stats.kernel_launches, 1);
        assert_eq!(m.peek(p, 7), 7.0);
    }

    #[test]
    fn cpu_cannot_touch_device_memory() {
        let mut m = m();
        let p = m.alloc_device::<f64>(4);
        assert!(matches!(
            m.try_read_scalar::<f64>(p.addr),
            Err(SimError::IllegalAccess { .. })
        ));
    }

    #[test]
    fn gpu_cannot_touch_host_memory() {
        let mut m = m();
        let p = m.alloc_host::<f64>(4);
        let mut err = None;
        m.launch("k", 1, |_, m| {
            err = Some(m.try_read_scalar::<f64>(p.addr));
        });
        assert!(matches!(err, Some(Err(SimError::IllegalAccess { .. }))));
    }

    #[test]
    fn memcpy_h2d_moves_data_and_costs_time() {
        let mut m = m();
        let h = m.alloc_host::<f64>(128);
        let d = m.alloc_device::<f64>(128);
        for i in 0..128 {
            m.poke(h, i, i as f64);
        }
        let t0 = m.now();
        m.memcpy(d, h, 128, CopyKind::HostToDevice);
        assert!(m.now() > t0);
        assert_eq!(m.stats.memcpy_h2d, 1);
        assert_eq!(m.peek(d, 100), 100.0);
    }

    #[test]
    fn memcpy_within_one_allocation_behaves_like_memmove() {
        let mut m = m();
        let h = m.alloc_host::<i32>(8);
        for i in 0..8 {
            m.poke(h, i, i as i32);
        }
        m.memcpy(h.slice(2, 6), h, 6, CopyKind::HostToHost);
        let got: Vec<i32> = (0..8).map(|i| m.peek(h, i)).collect();
        assert_eq!(got, [0, 1, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn memcpy_direction_validated() {
        let mut m = m();
        let h = m.alloc_host::<f64>(4);
        let d = m.alloc_device::<f64>(4);
        assert!(matches!(
            m.try_memcpy(h.addr, d.addr, 32, CopyKind::HostToDevice),
            Err(SimError::BadCopyDirection { .. })
        ));
    }

    #[test]
    fn advise_requires_managed() {
        let mut m = m();
        let h = m.alloc_host::<f64>(4);
        assert!(matches!(
            m.try_mem_advise(h.addr, 32, MemAdvise::SetReadMostly),
            Err(SimError::AdviseOnUnmanaged { .. })
        ));
    }

    #[test]
    fn ping_pong_costs_more_than_read_mostly() {
        // Micro version of the LULESH fix: alternating accesses vs the
        // same pattern under ReadMostly.
        fn run(advise: bool) -> (f64, u64) {
            let mut m = Machine::new(intel_pascal());
            let p = m.alloc_managed::<f64>(8);
            if advise {
                m.mem_advise(p, MemAdvise::SetReadMostly);
            }
            m.st(p, 0, 1.0); // CPU writes once
            m.reset_metrics();
            for _ in 0..50 {
                m.launch("read_dom", 1, |_, m| {
                    let _ = m.ld(p, 0);
                });
                let _ = m.ld(p, 1); // CPU read in between
            }
            (m.elapsed_ns(), m.stats.faults())
        }
        let (t_base, f_base) = run(false);
        let (t_rm, f_rm) = run(true);
        assert!(f_rm < f_base);
        assert!(t_rm < t_base / 2.0, "ReadMostly should be >2x faster here");
    }

    #[test]
    fn nvlink_baseline_cheaper_than_pcie_for_alternating() {
        fn run(pf: Platform) -> f64 {
            let mut m = Machine::new(pf);
            let p = m.alloc_managed::<f64>(8);
            m.st(p, 0, 1.0);
            m.reset_metrics();
            for _ in 0..50 {
                m.launch("k", 1, |_, m| {
                    m.st(p, 0, 2.0);
                });
                let _ = m.ld(p, 0);
            }
            m.elapsed_ns()
        }
        let pcie = run(intel_pascal());
        let nvlink = run(power9_volta());
        assert!(nvlink < pcie / 2.0);
    }

    #[test]
    fn hook_sees_all_events() {
        let mut m = m();
        let h = Rc::new(RefCell::new(CountingHook::default()));
        m.add_hook(h.clone());
        let p = m.alloc_managed::<f64>(4);
        m.st(p, 0, 1.0);
        let _ = m.ld(p, 0);
        m.rmw(p, 0, |v: f64| v + 1.0);
        m.launch("k", 2, |t, m| {
            let _ = m.ld(p, t);
        });
        m.free(p);
        let c = h.borrow();
        assert_eq!(c.allocs, 1);
        assert_eq!(c.frees, 1);
        assert_eq!(c.writes, 1);
        assert_eq!(c.reads, 3); // 1 host + 2 kernel
        assert_eq!(c.rmws, 1);
        assert_eq!(c.launches, 1);
    }

    #[test]
    fn add_hook_composes_instead_of_replacing() {
        let mut m = m();
        let a = Rc::new(RefCell::new(CountingHook::default()));
        let b = Rc::new(RefCell::new(CountingHook::default()));
        m.add_hook(a.clone());
        m.add_hook(b.clone());
        let p = m.alloc_managed::<f64>(4);
        m.st(p, 0, 1.0);
        assert_eq!(a.borrow().writes, 1);
        assert_eq!(b.borrow().writes, 1);
        assert_eq!(a.borrow().allocs, 1);
        assert_eq!(b.borrow().allocs, 1);
    }

    #[test]
    fn added_hooks_see_identical_callbacks_in_attachment_order() {
        // Every callback, tagged with the id of the spy that saw it.
        type Log = Rc<RefCell<Vec<(usize, String)>>>;
        struct Spy(usize, Log);
        impl MemHook for Spy {
            fn on_access(&mut self, dev: Device, addr: Addr, es: u32, n: u64, k: AccessKind) {
                let line = format!("access {dev:?} {addr:#x} {es}x{n} {k:?}");
                self.1.borrow_mut().push((self.0, line));
            }
            fn on_op(&mut self, op: &Op) {
                self.1.borrow_mut().push((self.0, format!("{op:?}")));
            }
            fn on_event(&mut self, ev: &TimedEvent) {
                let line = format!("event {} @{}", ev.event.kind_name(), ev.t_ns);
                self.1.borrow_mut().push((self.0, line));
            }
        }
        let log = Log::default();
        let mut m = m();
        for id in 0..3 {
            m.add_hook(Rc::new(RefCell::new(Spy(id, log.clone()))));
        }
        let p = m.alloc_managed::<f64>(1024);
        m.note_alloc_label(p.addr, "p");
        m.note_site(3, 1);
        m.fill(p, 0, 1024, 1.0);
        m.rmw(p, 0, |v: f64| v + 1.0);
        let s = m.create_stream();
        m.launch_async(s, "k", 2, |t, m| {
            let _ = m.ld(p, t);
        });
        m.sync_stream(s);
        let d = m.alloc_device::<f64>(1024);
        m.memcpy(d, p, 1024, CopyKind::DeviceToDevice);
        m.poke(p, 1, 2.0);
        m.free(p);
        let _ = m.elapsed_ns();
        let log = log.borrow();
        for c in log.chunks(3) {
            let ids: Vec<usize> = c.iter().map(|e| e.0).collect();
            assert_eq!(ids, [0, 1, 2], "attachment order: {c:?}");
            assert!(c[1].1 == c[0].1 && c[2].1 == c[0].1, "{c:?}");
        }
        let seen: Vec<&str> = log.iter().step_by(3).map(|e| e.1.as_str()).collect();
        // The bulk fill is one callback; the op comes before its event.
        assert_eq!(seen.iter().filter(|l| l.contains("8x1024")).count(), 1);
        let first = |needle: &str| seen.iter().position(|l| l.contains(needle)).unwrap();
        assert!(first("Alloc {") < first("event alloc"));
        assert!(first("Launch {") < first("event kernel_begin"));
        assert!(first("KernelEnd {") < first("event kernel_end"));
        for op in [
            "AllocLabel",
            "Site",
            "StreamSync",
            "Memcpy",
            "DebugWrite",
            "Free",
            "DeviceSync",
        ] {
            assert!(
                seen.iter().any(|l| l.starts_with(op)),
                "{op} missing: {seen:?}"
            );
        }
    }

    #[test]
    fn event_log_records_faults_migrations_and_kernel_spans() {
        use crate::event::{Event, EventLog};
        let mut m = m();
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        let p = m.alloc_managed::<f64>(8);
        m.st(p, 0, 1.0); // CPU first touch: no fault
        m.launch("k", 1, |_, m| {
            let _ = m.ld(p, 0); // GPU touch: fault + migration
        });
        m.free(p);
        let log = log.borrow();
        assert_eq!(log.count_of("alloc"), 1);
        assert_eq!(log.count_of("free"), 1);
        assert_eq!(log.count_of("page_fault"), 1);
        assert_eq!(log.count_of("migration"), 1);
        assert_eq!(log.count_of("kernel_begin"), 1);
        assert_eq!(log.count_of("kernel_end"), 1);
        // The kernel span is well-formed and the stream stamp matches.
        let span = log
            .events()
            .find_map(|e| match &e.event {
                Event::KernelEnd {
                    name,
                    stream,
                    start_ns,
                    end_ns,
                } => Some((name.clone(), *stream, *start_ns, *end_ns)),
                _ => None,
            })
            .expect("kernel end span recorded");
        assert_eq!(span.0, "k");
        assert_eq!(span.1, crate::clock::DEFAULT_STREAM);
        assert!(span.3 > span.2, "span must have positive duration");
        // Timestamps never decrease across the recorded stream.
        let ts: Vec<f64> = log.events().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn event_log_records_memcpy_advise_and_prefetch_spans() {
        use crate::event::{Event, EventLog};
        let mut m = m();
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        let h = m.alloc_host::<f64>(1024);
        let d = m.alloc_device::<f64>(1024);
        let u = m.alloc_managed::<f64>(1024);
        m.memcpy(d, h, 1024, CopyKind::HostToDevice);
        m.mem_advise(u, MemAdvise::SetReadMostly);
        m.mem_prefetch(u, Device::GPU0);
        let log = log.borrow();
        assert_eq!(log.count_of("memcpy"), 1);
        assert_eq!(log.count_of("advise"), 1);
        assert_eq!(log.count_of("prefetch"), 1);
        for e in log.events() {
            if let Event::Memcpy {
                bytes,
                start_ns,
                end_ns,
                ..
            } = &e.event
            {
                assert_eq!(*bytes, 1024 * 8);
                assert!(end_ns > start_ns);
            }
        }
    }

    #[test]
    fn async_kernel_span_lands_on_its_stream() {
        use crate::event::{Event, EventLog};
        let mut m = m();
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        let p = m.alloc_device::<f64>(64);
        let s = m.create_stream();
        m.launch_async(s, "akern", 64, |t, m| m.st(p, t, 0.0));
        let t_host = m.now();
        let log = log.borrow();
        let (stream, end) = log
            .events()
            .find_map(|e| match &e.event {
                Event::KernelEnd { stream, end_ns, .. } => Some((*stream, *end_ns)),
                _ => None,
            })
            .unwrap();
        assert_eq!(stream, s);
        assert!(end > t_host, "async work completes after the host moves on");
    }

    #[test]
    fn rmw_applies_function() {
        let mut m = m();
        let p = m.alloc_managed::<i32>(1);
        m.st(p, 0, 41);
        let v = m.rmw(p, 0, |x: i32| x + 1);
        assert_eq!(v, 42);
        assert_eq!(m.peek(p, 0), 42);
    }

    #[test]
    fn kernel_time_scales_with_parallelism_bucket() {
        let mut m = m();
        let p = m.alloc_managed::<f64>(100_000);
        // Touch everything once on the GPU first so later kernels are
        // fault-free.
        m.launch("warm", 100_000, |t, m| m.st(p, t, 0.0));
        m.reset_metrics();
        m.launch("small", 1_000, |t, m| {
            let _ = m.ld(p, t);
        });
        let t_small = m.elapsed_ns();
        m.reset_metrics();
        m.launch("big", 100_000, |t, m| {
            let _ = m.ld(p, t);
        });
        let t_big = m.elapsed_ns();
        assert!(t_big > t_small);
        // 100x the work is far less than 100x the time (fixed launch cost,
        // parallel lanes).
        assert!(t_big < t_small * 100.0);
    }

    #[test]
    fn async_overlap_beats_sync() {
        // Total time for copy+kernel pairs with and without streams.
        fn run(overlap: bool) -> f64 {
            let mut m = Machine::new(intel_pascal());
            let h = m.alloc_host::<f64>(1 << 16);
            let d = m.alloc_device::<f64>(1 << 16);
            let chunk = 1 << 12;
            let copy_s = m.create_stream();
            let comp_s = m.create_stream();
            for it in 0..8 {
                let off = it * chunk;
                if overlap {
                    m.memcpy_async(
                        d.slice(off, chunk),
                        h.slice(off, chunk),
                        chunk,
                        CopyKind::HostToDevice,
                        copy_s,
                    );
                    m.launch_async(comp_s, "work", 4096, |t, m| {
                        let _ = m.ld(d, t % chunk);
                        m.compute(50);
                    });
                } else {
                    m.memcpy(
                        d.slice(off, chunk),
                        h.slice(off, chunk),
                        chunk,
                        CopyKind::HostToDevice,
                    );
                    m.launch("work", 4096, |t, m| {
                        let _ = m.ld(d, t % chunk);
                        m.compute(50);
                    });
                }
            }
            m.elapsed_ns()
        }
        assert!(run(true) < run(false));
    }

    #[test]
    fn prefetch_avoids_kernel_faults() {
        let mut m = m();
        let p = m.alloc_managed::<f64>(64 * 1024); // several pages
        for i in 0..p.len {
            m.st(p, i, 1.0);
        }
        m.reset_metrics();
        m.mem_prefetch(p, Device::GPU0);
        let migrated = m.stats.migrations_h2d;
        assert!(migrated > 0);
        m.launch("k", p.len, |t, m| {
            let _ = m.ld(p, t);
        });
        assert_eq!(m.stats.gpu_faults, 0, "prefetched pages must not fault");
    }

    #[test]
    fn prefetch_requires_managed_memory() {
        let mut m = m();
        let p = m.alloc_device::<f64>(8);
        assert!(matches!(
            m.try_mem_prefetch(
                p.addr,
                p.bytes(),
                Device::GPU0,
                crate::clock::DEFAULT_STREAM
            ),
            Err(SimError::AdviseOnUnmanaged { .. })
        ));
    }

    #[test]
    fn bulk_range_matches_per_word_loop_exactly() {
        // Drive the same mixed host/kernel program through the bulk APIs
        // and the per-word reference decomposition: stats, elapsed time,
        // counted hook callbacks, and loaded data must all be identical.
        fn run(bulk: bool) -> (Stats, f64, CountingHook, Vec<f64>) {
            let mut m = Machine::new(intel_pascal());
            m.set_bulk_enabled(bulk);
            let h = Rc::new(RefCell::new(CountingHook::default()));
            m.add_hook(h.clone());
            // Big enough to span several pages.
            let n = 3000;
            let p = m.alloc_managed::<f64>(n);
            let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
            m.st_range(p, 0, &vals); // CPU writes (first touch)
            m.launch("sweep", 1, |_, m| {
                let _ = m.ld_range(p, 0, n); // GPU reads: faults + migrations
                m.fill(p, 100, 1000, 7.0); // GPU writes, offset into the array
            });
            m.rmw_range(p, 0, n, |i, v: f64| v + i as f64); // CPU RMW: pulls pages back
            let got = m.ld_range(p, 5, 64);
            let elapsed = m.elapsed_ns();
            let counts = h.borrow().clone();
            (m.stats.clone(), elapsed, counts, got)
        }
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.0, slow.0, "stats must match");
        assert_eq!(fast.1, slow.1, "simulated time must match bit-exactly");
        assert_eq!(fast.2, slow.2, "hook callback totals must match");
        assert_eq!(fast.3, slow.3, "loaded data must match");
    }

    #[test]
    fn bulk_range_matches_scalar_loop_on_unmanaged_memory() {
        fn run(bulk: bool) -> (Stats, f64) {
            let mut m = Machine::new(intel_pascal());
            m.set_bulk_enabled(bulk);
            let h = m.alloc_host::<i32>(256);
            let d = m.alloc_device::<i32>(256);
            m.fill(h, 0, 256, 3);
            m.launch("k", 1, |_, m| {
                m.fill(d, 0, 256, 4);
                let _ = m.ld_range(d, 0, 256);
            });
            (m.stats.clone(), m.elapsed_ns())
        }
        assert_eq!(run(true), run(false));
        // And the bulk path agrees with a hand-written scalar loop.
        let mut m = Machine::new(intel_pascal());
        let h = m.alloc_host::<i32>(256);
        for i in 0..256 {
            m.st(h, i, 3);
        }
        let scalar = (m.stats.clone(), m.elapsed_ns());
        let mut m = Machine::new(intel_pascal());
        let h = m.alloc_host::<i32>(256);
        m.fill(h, 0, 256, 3);
        assert_eq!((m.stats.clone(), m.elapsed_ns()), scalar);
    }

    #[test]
    fn bulk_range_rejects_out_of_bounds_and_wrong_device() {
        let mut m = m();
        let p = m.alloc_managed::<f64>(8);
        assert!(m.read_range(p.addr, 8, 9).is_err(), "range past the end");
        assert!(m.read_range(p.addr, 8, 0).is_ok(), "empty range is a no-op");
        let d = m.alloc_device::<f64>(8);
        assert!(matches!(
            m.read_range(d.addr, 8, 4),
            Err(SimError::IllegalAccess { .. })
        ));
        assert_eq!(m.stats.cpu_reads, 0, "failed ranges charge nothing");
    }

    #[test]
    fn bulk_range_emits_same_events_as_per_word() {
        use crate::event::EventLog;
        fn run(bulk: bool) -> Vec<(String, f64)> {
            let mut m = Machine::new(intel_pascal());
            m.set_bulk_enabled(bulk);
            let log = Rc::new(RefCell::new(EventLog::new()));
            m.add_hook(log.clone());
            let n = 2048;
            let p = m.alloc_managed::<f64>(n);
            m.st_range(p, 0, &vec![1.0; n]);
            m.launch("k", 1, |_, m| {
                let _ = m.ld_range(p, 0, n);
            });
            let _ = m.ld_range(p, 0, n); // CPU pulls the pages back
            let log = log.borrow();
            log.events()
                .map(|e| (e.event.kind_name().to_string(), e.t_ns))
                .collect()
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn page_state_visible() {
        let mut m = m();
        let p = m.alloc_managed::<f64>(4);
        m.st(p, 0, 1.0);
        assert_eq!(m.page_state(p.addr).owner, Device::Cpu);
        m.launch("k", 1, |_, m| m.st(p, 0, 2.0));
        assert_eq!(m.page_state(p.addr).owner, Device::GPU0);
    }
}
