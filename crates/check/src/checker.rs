//! The sanitizer hook: a [`MemHook`] that maintains per-byte shadow
//! state and happens-before vector clocks as the machine runs.
//!
//! The machine validates every access *before* invoking hooks, so the
//! per-access work here is what the machine cannot decide on its own:
//! uninitialized-read detection, initialization tracking, and race
//! bookkeeping. Hard faults (out-of-bounds, use-after-free, ...) abort
//! the run as [`hetsim::SimError`]s and are classified by the driver in
//! `lib.rs`, which reads this hook's context (current site, current
//! kernel, shadow heap) to attribute them.
//!
//! The per-access path allocates nothing and searches for nothing: the
//! machine passes the serial of the allocation it resolved, which indexes
//! the access's [`AllocRecord`] (its race state lives there), and the
//! access is remembered with a (kernel, site) breadcrumb interned by the
//! first access after the kernel or the site changes. Names and
//! allocation details are looked up only once a finding survives
//! deduplication.

use std::collections::{BTreeMap, BTreeSet};

use hetsim::{AccessKind, Addr, AllocKind, Device, MemHook, Op, StreamId};

use crate::race::{AccessInfo, CrumbId, KernelId, VectorClocks, HOST};
use crate::report::{AllocInfo, CheckReport, DefectClass, Diagnostic};
use crate::shadow::{AllocRecord, ShadowHeap, Site, PAGE};

/// The kernel the machine is currently executing, from the launch hook.
#[derive(Debug, Clone, Copy)]
struct KernelCtx {
    name: KernelId,
    seq: u64,
    stream: usize,
}

/// Where an access happened: the kernel executing it and the statement.
type Crumb = (Option<KernelId>, Option<Site>);

/// The distinct [`Crumb`]s seen so far, numbered in first-seen order; a
/// [`CrumbId`] indexes `pairs`.
#[derive(Default)]
struct Crumbs {
    pairs: Vec<Crumb>,
    /// Ordered, not hashed: sites come from the checked source, and no
    /// source makes a lookup cost more than a bisection.
    ids: BTreeMap<Crumb, CrumbId>,
}

impl Crumbs {
    fn intern(&mut self, crumb: Crumb) -> CrumbId {
        *self.ids.entry(crumb).or_insert_with(|| {
            self.pairs.push(crumb);
            (self.pairs.len() - 1) as CrumbId
        })
    }
}

/// The checking [`MemHook`]. Attach to a machine, run, then harvest
/// findings with [`take_findings`](CheckHook::take_findings).
#[derive(Default)]
pub struct CheckHook {
    shadow: ShadowHeap,
    vc: VectorClocks,
    /// Interned kernel names; a [`KernelId`] indexes this.
    kernel_names: Vec<String>,
    findings: Vec<Diagnostic>,
    cur_site: Option<Site>,
    kernel: Option<KernelCtx>,
    crumbs: Crumbs,
    /// The breadcrumb of `kernel` and `cur_site`, or `None` until the
    /// first access after either changed.
    crumb: Option<CrumbId>,
    /// Accesses whose record was found by address because the record at
    /// the machine's serial was not it (the hook missed an allocation).
    by_address: u64,
    /// Dedup: (serial, prior actor, current actor, prior is write,
    /// current is write) — one diagnostic per conflicting pair.
    seen_races: BTreeSet<(u64, usize, usize, bool, bool)>,
    /// Dedup: (serial, breadcrumb) — one diagnostic per read site.
    seen_uninit: BTreeSet<(u64, CrumbId)>,
    /// A memcpy's source init bytes, reused from copy to copy.
    copy_buf: Vec<u8>,
}

pub(crate) fn alloc_info(r: &AllocRecord) -> AllocInfo {
    AllocInfo {
        name: r.name(),
        base: r.base,
        size: r.size,
        kind: r.kind_str(),
    }
}

fn verb(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

impl CheckHook {
    pub fn new() -> Self {
        Self::default()
    }

    /// The source position of the statement being executed, if known.
    pub fn cur_site(&self) -> Option<Site> {
        self.cur_site
    }

    /// `(name, launch seq, stream)` of the kernel being executed.
    pub fn kernel_ctx(&self) -> Option<(String, u64, usize)> {
        self.kernel
            .map(|k| (self.kernel_name(k.name).to_string(), k.seq, k.stream))
    }

    pub fn shadow(&self) -> &ShadowHeap {
        &self.shadow
    }

    /// Deterministic digest of the full shadow state (the bulk-vs-per-word
    /// parity oracle).
    pub fn shadow_digest(&self) -> u64 {
        self.shadow.digest()
    }

    /// Race-table slots allocated over the run, live and freed.
    pub fn race_slots(&self) -> u64 {
        let slots = |r: &AllocRecord| r.races.slots() as u64;
        self.shadow.records().iter().map(slots).sum()
    }

    /// Accesses whose record was found by address instead of by the
    /// machine's allocation serial: 0 when the hook saw every allocation.
    pub fn resolved_by_address(&self) -> u64 {
        self.by_address
    }

    pub fn take_findings(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.findings)
    }

    /// Append a finding produced outside the hook (the driver's fatal
    /// classification).
    pub fn push_finding(&mut self, d: Diagnostic) {
        self.findings.push(d);
    }

    /// Move the findings into a report for `target`.
    pub fn into_report(&mut self, target: &str) -> CheckReport {
        let mut r = CheckReport::new(target);
        r.findings = self.take_findings();
        r
    }

    /// The actor performing plain accesses right now.
    fn actor(&self) -> usize {
        match &self.kernel {
            Some(k) => 1 + k.stream,
            None => HOST,
        }
    }

    fn kernel_name(&self, id: KernelId) -> &str {
        self.kernel_names
            .get(id as usize)
            .map_or("?", String::as_str)
    }

    fn diag(&self, class: DefectClass, message: String, alloc: AllocInfo) -> Diagnostic {
        Diagnostic {
            class,
            message,
            site: self.cur_site,
            kernel: self.kernel.map(|k| self.kernel_name(k.name).to_string()),
            launch_seq: self.kernel.map(|k| k.seq),
            stream: self.kernel.map(|k| k.stream),
            alloc: Some(alloc),
            fatal: false,
        }
    }

    /// Report an uninitialized read of `size` bytes at offset `off` of the
    /// record at position `at`.
    fn report_uninit(&mut self, at: usize, off: u64, size: u64, first: u64) {
        let crumb = self.crumb();
        let r = &self.shadow[at];
        if !self.seen_uninit.insert((r.serial, crumb)) {
            return;
        }
        let alloc = alloc_info(r);
        let message = format!(
            "read of {size} bytes at {}+{off} touches uninitialized data \
             (byte offset {first} was never written)",
            alloc.name
        );
        let d = self.diag(DefectClass::UninitRead, message, alloc);
        self.findings.push(d);
    }

    /// Human description of a remembered access, for race messages.
    fn who(&self, a: &AccessInfo) -> String {
        let (kernel, site) = self.crumbs.pairs[a.crumb as usize];
        let mut s = match (a.epoch.actor as usize, kernel) {
            (HOST, _) => "the host".to_string(),
            (n, Some(k)) => format!("kernel `{}` on stream {}", self.kernel_name(k), n - 1),
            (n, None) => format!("stream {}", n - 1),
        };
        if let Some((l, c)) = site {
            s.push_str(&format!(" at {l}:{c}"));
        }
        s
    }

    /// How an access by `actor` right now is remembered.
    fn access_info(&mut self, actor: usize, write: bool) -> AccessInfo {
        AccessInfo {
            epoch: self.vc.epoch(actor),
            write,
            crumb: self.crumb(),
        }
    }

    /// The breadcrumb of the current kernel and site, interned by the
    /// first access after either changed, so a statement that touches no
    /// tracked memory pays no lookup.
    fn crumb(&mut self) -> CrumbId {
        *self.crumb.get_or_insert_with(|| {
            self.crumbs
                .intern((self.kernel.map(|k| k.name), self.cur_site))
        })
    }

    /// Position of the live record holding an access at `addr` in the
    /// allocation the machine numbered `serial`: position `serial` when
    /// that record contains `addr` (always, once the hook has seen every
    /// allocation), else found by address and counted.
    #[inline]
    fn record_of(&mut self, addr: Addr, serial: u64) -> Option<usize> {
        let at = serial as usize;
        let records = self.shadow.records();
        if records
            .get(at)
            .is_some_and(|r| !r.freed && r.contains(addr))
        {
            return Some(at);
        }
        self.by_address += 1;
        self.shadow.position(addr)
    }

    /// Record `info` at race key `key` of the record at position `at` and
    /// report the first conflict with an unordered prior access.
    fn race_at(&mut self, at: usize, key: u64, info: AccessInfo) {
        if let Some(prev) = self.shadow[at].races.access(key, &mut self.vc, info) {
            self.report_race(at, key, info, prev);
        }
    }

    fn report_race(&mut self, at: usize, key: u64, cur: AccessInfo, prev: AccessInfo) {
        let r = &self.shadow[at];
        let actor = cur.epoch.actor as usize;
        let dedup = (
            r.serial,
            prev.epoch.actor as usize,
            actor,
            prev.write,
            cur.write,
        );
        if !self.seen_races.insert(dedup) {
            return;
        }
        let alloc = alloc_info(r);
        let message = format!(
            "unordered {} to {}+{key} conflicts with a {} by {}",
            verb(cur.write),
            alloc.name,
            verb(prev.write),
            self.who(&prev)
        );
        let mut d = self.diag(DefectClass::Race, message, alloc);
        // A host-side access still races on behalf of no kernel; keep the
        // WHERE column honest when the racing access is the host's.
        if actor == HOST {
            d.kernel = None;
            d.launch_seq = None;
            d.stream = None;
        }
        self.findings.push(d);
    }

    /// One validated access of `count` elements of `es` bytes at `addr`
    /// that reads if `R` and writes if `W`: uninit check, init marking,
    /// race bookkeeping. The machine has already ruled out hard faults.
    /// One shadow scan covers the whole range: elements never overlap, so
    /// each element's read sees what it would have seen alone.
    fn access<const R: bool, const W: bool>(
        &mut self,
        addr: Addr,
        es: u64,
        count: u64,
        serial: u64,
    ) {
        if es == 0 || count == 0 {
            return; // the machine never reports an empty access
        }
        let Some(at) = self.record_of(addr, serial) else {
            return; // defensive: never panic inside the hook
        };
        let rec = &mut self.shadow[at];
        let off = addr - rec.base;
        let len = es * count;
        let uninit = if R { rec.first_uninit(off, len) } else { None };
        if W {
            rec.mark_init(off, len);
        }
        // Only the element holding the first uninitialized byte reports:
        // the rest of the range shares its site, which is deduplicated.
        let uninit = uninit.map(|u| ((u - off) / es, u));
        let actor = self.actor();
        self.walk::<R, W>(at, off, es, count, uninit, actor);
    }

    /// The one key walk of accesses and copy operands: `count` elements
    /// of `es` bytes from offset `off` of the record at position `at`,
    /// read if `R` and written if `W` by `actor`. Findings come in the
    /// order of the per-word walk: per element, its uninitialized read
    /// (only element `uninit.0`, whose first uninitialized byte is
    /// `uninit.1`), then its read key, then its write key. Managed memory
    /// has one key per page touched, the page of an element's first byte;
    /// other memory has one key per element start.
    ///
    /// Inlined into each caller: most accesses are one element, and a
    /// call per access cost about 6 % more `check.overhead_x` on perfbench
    /// `native`.
    #[inline(always)]
    fn walk<const R: bool, const W: bool>(
        &mut self,
        at: usize,
        off: u64,
        es: u64,
        count: u64,
        uninit: Option<(u64, u64)>,
        actor: usize,
    ) {
        let managed = self.shadow[at].kind == AllocKind::Managed;
        let read = R.then(|| self.access_info(actor, false));
        let write = W.then(|| self.access_info(actor, true));
        let mut i = 0;
        while i < count {
            let eoff = off + i * es;
            let key = if managed { eoff / PAGE * PAGE } else { eoff };
            if let Some((_, u)) = uninit.filter(|&(e, _)| e == i) {
                self.report_uninit(at, eoff, es, u);
            }
            if let Some(info) = read {
                self.race_at(at, key, info);
            }
            if let Some(info) = write {
                self.race_at(at, key, info);
            }
            i += 1;
            if managed && i < count {
                // The next elements starting on this page repeat its
                // same-epoch updates, which change nothing: skip to the
                // next page, or to the element reporting the uninit.
                let next = i + (key + PAGE - 1 - eoff) / es;
                i = match uninit {
                    Some((e, _)) if e >= i => e.min(next),
                    _ => next,
                }
                .min(count);
            }
        }
    }

    /// A copy operand's keys: `bytes` one-byte elements in managed
    /// memory, one key per page the copy touches; otherwise
    /// `ceil(bytes / 4)` four-byte elements, a key every 4 bytes from its
    /// first byte — the finest element alignment the workloads use.
    fn copy_walk<const R: bool, const W: bool>(
        &mut self,
        at: usize,
        addr: Addr,
        bytes: u64,
        actor: usize,
    ) {
        let r = &self.shadow[at];
        let es = if r.kind == AllocKind::Managed { 1 } else { 4 };
        let off = addr - r.base;
        self.walk::<R, W>(at, off, es, bytes.div_ceil(es), None, actor);
    }

    /// Leak pass for program exit: every still-live allocation is a
    /// finding. Workload harnesses skip this (their drivers free nothing
    /// by design); MiniCU programs own their heap.
    pub fn finish_leaks(&mut self) {
        let mut live: Vec<&AllocRecord> = self.shadow.live().collect();
        live.sort_by_key(|r| r.serial);
        let diags: Vec<Diagnostic> = live
            .iter()
            .map(|r| Diagnostic {
                class: DefectClass::Leak,
                message: format!(
                    "{} bytes allocated{} and never freed",
                    r.size,
                    match r.alloc_site {
                        Some((l, c)) => format!(" at {l}:{c}"),
                        None => String::new(),
                    }
                ),
                site: r.alloc_site,
                kernel: None,
                launch_seq: None,
                stream: None,
                alloc: Some(alloc_info(r)),
                fatal: false,
            })
            .collect();
        self.findings.extend(diags);
    }

    /// A copy reads its source and writes its destination, on `stream`
    /// unless the host blocked for it.
    fn memcpy(&mut self, dst: Addr, src: Addr, bytes: u64, stream: StreamId, blocking: bool) {
        if bytes == 0 {
            return;
        }
        let actor = if blocking { HOST } else { 1 + stream.0 };
        if !blocking {
            // An async copy is ordered after everything the host did —
            // the same release edge a kernel launch creates.
            self.vc.edge(HOST, actor);
        }
        let (src_at, dst_at) = (self.shadow.position(src), self.shadow.position(dst));
        // Initialization propagates byte-for-byte from source to
        // destination (staged through `copy_buf`, so an overlapping copy
        // within one allocation reads the bytes as they were); an unknown
        // source conservatively initializes.
        if let Some(at) = src_at {
            let r = &self.shadow[at];
            let off = src - r.base;
            let hi = (off + bytes).min(r.size);
            self.copy_buf.clear();
            self.copy_buf
                .extend_from_slice(&r.shadow[off as usize..hi as usize]);
        }
        if let Some(at) = dst_at {
            let r = &mut self.shadow[at];
            let off = dst - r.base;
            if src_at.is_some() {
                let o = off as usize;
                let n = self.copy_buf.len().min(r.shadow.len() - o);
                r.shadow[o..o + n].copy_from_slice(&self.copy_buf[..n]);
            } else {
                r.mark_init(off, bytes);
            }
        }
        if let Some(at) = src_at {
            self.copy_walk::<true, false>(at, src, bytes, actor);
        }
        if let Some(at) = dst_at {
            self.copy_walk::<false, true>(at, dst, bytes, actor);
        }
    }

    fn launch(&mut self, name: &str, stream: StreamId, seq: u64) {
        self.vc.edge(HOST, 1 + stream.0);
        let id = match self.kernel_names.iter().position(|k| k == name) {
            Some(i) => i,
            None => {
                self.kernel_names.push(name.to_string());
                self.kernel_names.len() - 1
            }
        };
        self.kernel = Some(KernelCtx {
            name: id as KernelId,
            seq,
            stream: stream.0,
        });
        self.crumb = None;
    }
}

impl MemHook for CheckHook {
    fn on_access(
        &mut self,
        _dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
        serial: u64,
    ) {
        // One path for every count, instantiated per access kind.
        let es = u64::from(elem_size);
        match kind {
            AccessKind::Read => self.access::<true, false>(addr, es, count, serial),
            AccessKind::Write => self.access::<false, true>(addr, es, count, serial),
            AccessKind::ReadWrite => self.access::<true, true>(addr, es, count, serial),
        }
    }

    fn on_op(&mut self, op: &Op) {
        match *op {
            Op::Alloc { base, size, kind } => self.shadow.on_alloc(base, size, kind, self.cur_site),
            Op::Free { base } => self.shadow.on_free(base, self.cur_site),
            Op::AllocLabel { base, label } => self.shadow.set_label(base, label),
            Op::Site { line, col } => {
                self.cur_site = Some((line, col));
                self.crumb = None;
            }
            Op::Memcpy {
                dst,
                src,
                bytes,
                stream,
                blocking,
                ..
            } => self.memcpy(dst, src, bytes, stream, blocking),
            Op::Launch { name, stream, seq } => self.launch(name, stream, seq),
            Op::KernelEnd {
                stream, blocking, ..
            } => {
                if blocking {
                    self.vc.edge(1 + stream.0, HOST);
                }
                self.kernel = None;
                self.crumb = None;
            }
            Op::StreamSync { stream } => self.vc.edge(1 + stream.0, HOST),
            Op::DeviceSync => {
                for a in 1..self.vc.actors() {
                    self.vc.edge(a, HOST);
                }
            }
            // Harness pokes are input setup: they initialize but never race.
            Op::DebugWrite { addr, bytes } => {
                if let Some(r) = self.shadow.find_mut(addr) {
                    let off = addr - r.base;
                    r.mark_init(off, bytes);
                }
            }
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::CopyKind;

    /// Terse drivers for the hook's callbacks. An access carries serial
    /// 0: the first allocation's, else its record is found by address.
    trait Drive: MemHook {
        fn alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
            self.on_op(&Op::Alloc { base, size, kind });
        }
        fn label(&mut self, base: Addr, label: &str) {
            self.on_op(&Op::AllocLabel { base, label });
        }
        fn free(&mut self, base: Addr) {
            self.on_op(&Op::Free { base });
        }
        fn site(&mut self, line: u32, col: u32) {
            self.on_op(&Op::Site { line, col });
        }
        fn poke(&mut self, addr: Addr, bytes: u64) {
            self.on_op(&Op::DebugWrite { addr, bytes });
        }
        fn read(&mut self, dev: Device, addr: Addr, size: u32) {
            self.on_access(dev, addr, size, 1, AccessKind::Read, 0);
        }
        fn write(&mut self, dev: Device, addr: Addr, size: u32) {
            self.on_access(dev, addr, size, 1, AccessKind::Write, 0);
        }
        fn rw(&mut self, dev: Device, addr: Addr, size: u32) {
            self.on_access(dev, addr, size, 1, AccessKind::ReadWrite, 0);
        }
        fn kernel(&mut self, name: &str, stream: StreamId, seq: u64) {
            self.on_op(&Op::Launch { name, stream, seq });
        }
        fn kernel_end(&mut self, name: &str, stream: StreamId, blocking: bool) {
            self.on_op(&Op::KernelEnd {
                name,
                stream,
                blocking,
            });
        }
        fn copy(&mut self, dst: Addr, src: Addr, bytes: u64, stream: StreamId, blocking: bool) {
            let kind = CopyKind::DeviceToDevice;
            self.on_op(&Op::Memcpy {
                dst,
                src,
                bytes,
                kind,
                stream,
                blocking,
            });
        }
        fn stream_sync(&mut self, stream: StreamId) {
            self.on_op(&Op::StreamSync { stream });
        }
        fn device_sync(&mut self) {
            self.on_op(&Op::DeviceSync);
        }
    }

    impl<H: MemHook + ?Sized> Drive for H {}

    fn managed_alloc(h: &mut CheckHook, base: Addr, size: u64, name: &str) {
        h.alloc(base, size, AllocKind::Managed);
        h.label(base, name);
    }

    #[test]
    fn uninit_read_is_reported_once_per_site() {
        let mut h = CheckHook::new();
        h.alloc(0x1000, 64, AllocKind::Host);
        h.site(4, 3);
        h.write(Device::Cpu, 0x1000, 8);
        h.read(Device::Cpu, 0x1000, 8); // initialized: clean
        h.site(5, 3);
        h.read(Device::Cpu, 0x1008, 8); // uninitialized
        h.read(Device::Cpu, 0x1010, 8); // same site: deduped
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::UninitRead);
        assert_eq!(f[0].site, Some((5, 3)));
        assert!(f[0].message.contains("byte offset 8"), "{}", f[0].message);
    }

    #[test]
    fn unordered_stream_writes_race() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.poke(0x4000, 4096);
        h.kernel("k1", StreamId(1), 1);
        h.write(Device::Gpu, 0x4000, 8);
        h.kernel_end("k1", StreamId(1), false);
        h.kernel("k2", StreamId(2), 2);
        h.write(Device::Gpu, 0x4010, 8); // same page, unordered
        h.kernel_end("k2", StreamId(2), false);
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::Race);
        assert_eq!(f[0].kernel.as_deref(), Some("k2"));
        assert!(
            f[0].message.contains("kernel `k1` on stream 1"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn stream_sync_suppresses_the_race() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.poke(0x4000, 4096);
        h.kernel("k1", StreamId(1), 1);
        h.write(Device::Gpu, 0x4000, 8);
        h.kernel_end("k1", StreamId(1), false);
        h.stream_sync(StreamId(1));
        h.kernel("k2", StreamId(2), 2);
        h.write(Device::Gpu, 0x4010, 8);
        h.kernel_end("k2", StreamId(2), false);
        assert!(h.take_findings().is_empty());
    }

    #[test]
    fn host_read_races_with_pending_kernel_write() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.poke(0x4000, 4096);
        h.kernel("k", StreamId(1), 1);
        h.write(Device::Gpu, 0x4000, 8);
        h.kernel_end("k", StreamId(1), false);
        h.read(Device::Cpu, 0x4000, 8); // no sync: racy
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::Race);
        assert!(f[0].kernel.is_none(), "host access: {f:?}");
    }

    #[test]
    fn device_sync_orders_everything() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.poke(0x4000, 4096);
        h.kernel("k", StreamId(1), 1);
        h.write(Device::Gpu, 0x4000, 8);
        h.kernel_end("k", StreamId(1), false);
        h.device_sync();
        h.read(Device::Cpu, 0x4000, 8);
        assert!(h.take_findings().is_empty());
    }

    #[test]
    fn unmanaged_neighbors_do_not_false_share() {
        // Async copy into one slice while a kernel reads another slice of
        // the same cudaMalloc buffer: the pathfinder overlap pattern.
        let mut h = CheckHook::new();
        h.alloc(0x8000, 8192, AllocKind::Device);
        h.poke(0x8000, 8192);
        h.kernel("k", StreamId(2), 1);
        h.read(Device::Gpu, 0x8000, 4);
        h.kernel_end("k", StreamId(2), false);
        h.copy(0x8000 + 4096, 0x8000, 0, StreamId(1), false);
        // Disjoint offsets, exact-offset buckets: no race.
        h.copy(0x9000, 0x8000 + 2048, 16, StreamId(1), false);
        let f = h.take_findings();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn memcpy_propagates_initialization() {
        let mut h = CheckHook::new();
        h.alloc(0x1000, 64, AllocKind::Host);
        h.alloc(0x4000, 64, AllocKind::Device);
        h.write(Device::Cpu, 0x1000, 32); // init first half of src
        h.copy(0x4000, 0x1000, 64, StreamId(0), true);
        h.kernel("k", StreamId(0), 1);
        h.read(Device::Gpu, 0x4000, 32); // copied-from-initialized: clean
        h.read(Device::Gpu, 0x4020, 8); // copied-from-uninitialized
        h.kernel_end("k", StreamId(0), true);
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::UninitRead);
    }

    #[test]
    fn leaks_surface_in_serial_order() {
        let mut h = CheckHook::new();
        h.site(2, 1);
        h.alloc(0x4000, 128, AllocKind::Managed);
        h.label(0x4000, "b");
        h.site(3, 1);
        h.alloc(0x1000, 64, AllocKind::Host);
        h.label(0x1000, "a");
        h.finish_leaks();
        let f = h.take_findings();
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].alloc.as_ref().unwrap().name, "b");
        assert_eq!(f[0].site, Some((2, 1)));
        assert_eq!(f[1].alloc.as_ref().unwrap().name, "a");
    }

    #[test]
    fn bulk_range_matches_per_word_byte_for_byte() {
        let run = |bulk: bool| -> (Vec<Diagnostic>, u64) {
            let mut h = CheckHook::new();
            managed_alloc(&mut h, 0x4000, 8192, "arr");
            h.site(7, 2);
            // Partially initialize, then a read range over the seam.
            h.on_access(Device::Cpu, 0x4000, 8, 100, AccessKind::Write, 0);
            let read = |h: &mut CheckHook| {
                if bulk {
                    h.on_access(Device::Cpu, 0x4000, 8, 120, AccessKind::Read, 0);
                    h.on_access(Device::Gpu, 0x4100, 4, 32, AccessKind::ReadWrite, 0);
                } else {
                    for i in 0..120 {
                        h.read(Device::Cpu, 0x4000 + i * 8, 8);
                    }
                    for i in 0..32 {
                        h.rw(Device::Gpu, 0x4100 + i * 4, 4);
                    }
                }
            };
            read(&mut h);
            (h.take_findings(), h.shadow_digest())
        };
        let (fb, db) = run(true);
        let (fw, dw) = run(false);
        assert_eq!(fb, fw);
        assert_eq!(db, dw);
        assert_eq!(fb.len(), 1, "{fb:?}");
        assert_eq!(fb[0].class, DefectClass::UninitRead);
    }

    /// Messages of the findings so far, for compact assertions.
    fn messages(h: &mut CheckHook) -> Vec<String> {
        h.take_findings().into_iter().map(|d| d.message).collect()
    }

    #[test]
    fn odd_byte_offsets_race_only_on_the_same_byte() {
        // A `char` buffer from cudaMalloc: stream 1 stores bytes 1 and 3,
        // stream 2 then reads the rest of that 4-byte word and its
        // neighbor, unordered. Only the same byte conflicts.
        let mut h = CheckHook::new();
        h.alloc(0x8000, 64, AllocKind::Device);
        h.poke(0x8000, 64);
        h.kernel("odd", StreamId(1), 1);
        h.write(Device::Gpu, 0x8001, 1);
        h.write(Device::Gpu, 0x8003, 1);
        h.kernel_end("odd", StreamId(1), false);
        h.kernel("rest", StreamId(2), 2);
        for off in [0, 2, 4, 5] {
            h.read(Device::Gpu, 0x8000 + off, 1);
        }
        assert!(messages(&mut h).is_empty());
        h.read(Device::Gpu, 0x8003, 1);
        assert_eq!(
            messages(&mut h),
            ["unordered read to alloc#1+3 conflicts with a write by kernel `odd` on stream 1"]
        );
    }

    #[test]
    fn copy_sweep_keys_step_by_four_from_its_start() {
        // A kernel on stream 1 stores bytes 1, 2 and 5; async copies on
        // stream 2 then read the buffer unordered. The sweep keys a copy
        // every 4 bytes from its first byte, so a copy from offset 1
        // meets bytes 1 and 5, and a copy from offset 0 meets none of
        // them — the documented limitation for 1-byte elements.
        let mut h = CheckHook::new();
        h.alloc(0x8000, 64, AllocKind::Device);
        h.alloc(0x9000, 64, AllocKind::Device);
        h.poke(0x8000, 64);
        h.kernel("k", StreamId(1), 1);
        for off in [1, 2, 5] {
            h.write(Device::Gpu, 0x8000 + off, 1);
        }
        h.kernel_end("k", StreamId(1), false);
        h.copy(0x9000, 0x8000, 8, StreamId(2), false);
        assert!(
            messages(&mut h).is_empty(),
            "keys 0 and 4 were never written"
        );
        h.copy(0x9010, 0x8001, 8, StreamId(2), false);
        assert_eq!(
            messages(&mut h),
            ["unordered read to alloc#1+1 conflicts with a write by kernel `k` on stream 1"]
        );
    }

    #[test]
    fn managed_offsets_4095_and_4096_sit_on_different_pages() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 8192, "arr");
        h.poke(0x4000, 8192);
        h.kernel("k1", StreamId(1), 1);
        h.write(Device::Gpu, 0x4000 + 4095, 1);
        h.kernel_end("k1", StreamId(1), false);
        h.kernel("k2", StreamId(2), 2);
        h.write(Device::Gpu, 0x4000 + 4096, 1); // next page: no race
        assert!(messages(&mut h).is_empty());
        h.write(Device::Gpu, 0x4000, 4); // page 0, unordered
        assert_eq!(
            messages(&mut h),
            ["unordered write to arr+0 conflicts with a write by kernel `k1` on stream 1"]
        );
        assert_eq!(h.race_slots(), 2, "one slot per page");
    }

    #[test]
    fn managed_copy_keys_every_page_its_bytes_touch() {
        // A 4-byte copy from managed offset 4094 ends on page 1, although
        // no 4-byte element starting at its first byte begins there.
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 8192, "arr");
        h.alloc(0x8000, 64, AllocKind::Device);
        h.poke(0x4000, 8192);
        h.kernel("k", StreamId(1), 1);
        h.write(Device::Gpu, 0x4000 + 4096, 4);
        h.kernel_end("k", StreamId(1), false);
        h.copy(0x8000, 0x4000 + 4094, 4, StreamId(2), false);
        assert_eq!(
            messages(&mut h),
            ["unordered read to arr+4096 conflicts with a write by kernel `k` on stream 1"]
        );
    }

    #[test]
    fn a_write_reports_the_first_unordered_reader() {
        // Read set in arrival order: the host, stream 1, stream 2. The
        // host's own read is ordered before its write (program order),
        // so the write conflicts with stream 1's read; once stream 1 is
        // synchronized, with stream 2's.
        let run = |sync_stream_1: bool| {
            let mut h = CheckHook::new();
            managed_alloc(&mut h, 0x4000, 64, "arr");
            h.poke(0x4000, 64);
            h.read(Device::Cpu, 0x4000, 4);
            for (s, k) in [(1, "r1"), (2, "r2")] {
                h.kernel(k, StreamId(s), s as u64);
                h.site(10 + s as u32, 5);
                h.read(Device::Gpu, 0x4000, 4);
                h.kernel_end(k, StreamId(s), false);
            }
            if sync_stream_1 {
                h.stream_sync(StreamId(1));
            }
            h.site(20, 3);
            h.write(Device::Cpu, 0x4000, 4);
            messages(&mut h)
        };
        assert_eq!(
            run(false),
            ["unordered write to arr+0 conflicts with a read by kernel `r1` on stream 1 at 11:5"]
        );
        assert_eq!(
            run(true),
            ["unordered write to arr+0 conflicts with a read by kernel `r2` on stream 2 at 12:5"]
        );
    }

    #[test]
    fn narrowing_keeps_each_keys_state() {
        // Stream 1 stores 8 bytes at offset 8 (table stride 8 bytes);
        // stream 2's 4-byte store at offset 4 narrows the stride to 4, and
        // its store at offset 8 must still meet stream 1's, now in slot 2.
        let mut h = CheckHook::new();
        h.alloc(0x8000, 64, AllocKind::Device);
        h.kernel("k1", StreamId(1), 1);
        h.write(Device::Gpu, 0x8008, 8);
        h.kernel_end("k1", StreamId(1), false);
        assert_eq!(h.race_slots(), 8);
        h.kernel("k2", StreamId(2), 2);
        h.write(Device::Gpu, 0x8004, 4);
        assert_eq!(h.race_slots(), 16);
        assert!(messages(&mut h).is_empty());
        h.write(Device::Gpu, 0x8008, 4);
        assert_eq!(
            messages(&mut h),
            ["unordered write to alloc#1+8 conflicts with a write by kernel `k1` on stream 1"]
        );
        assert_eq!(h.shadow().bytes(), 64);
    }

    /// The checker's bookkeeping as first written, kept as a differential
    /// oracle: one map keyed by (allocation serial, bucket), read sets as
    /// plain vectors, kernel names and allocation details cloned per
    /// access, and a copy's init bytes moved one at a time.
    mod reference {
        use std::collections::{BTreeSet, HashMap};

        use super::*;

        /// The race key an access at `off` belongs to.
        fn bucket(kind: AllocKind, off: u64) -> u64 {
            match kind {
                AllocKind::Managed => off / PAGE * PAGE,
                _ => off,
            }
        }

        #[derive(Clone)]
        struct Acc {
            actor: usize,
            clk: u32,
            write: bool,
            kernel: Option<String>,
            site: Option<Site>,
        }

        #[derive(Default)]
        struct Loc {
            last_write: Option<Acc>,
            reads: Vec<Acc>,
        }

        #[derive(Default)]
        pub struct RefHook {
            pub shadow: ShadowHeap,
            vc: VectorClocks,
            locs: HashMap<(u64, u64), Loc>,
            pub findings: Vec<Diagnostic>,
            site: Option<Site>,
            kernel: Option<(String, u64, usize)>,
            seen_races: BTreeSet<(u64, usize, usize, bool, bool)>,
            seen_uninit: BTreeSet<(u64, Option<Site>, Option<String>)>,
        }

        impl RefHook {
            fn hb(&mut self, a: &Acc, actor: usize) -> bool {
                let e = crate::race::Epoch {
                    actor: a.actor as u32,
                    clk: a.clk,
                };
                self.vc.hb(e, actor)
            }

            fn diag(&self, class: DefectClass, message: String, alloc: AllocInfo) -> Diagnostic {
                let k = self.kernel.as_ref();
                Diagnostic {
                    class,
                    message,
                    site: self.site,
                    kernel: k.map(|k| k.0.clone()),
                    launch_seq: k.map(|k| k.1),
                    stream: k.map(|k| k.2),
                    alloc: Some(alloc),
                    fatal: false,
                }
            }

            fn race_at(
                &mut self,
                serial: u64,
                bucket: u64,
                write: bool,
                actor: usize,
                alloc: &AllocInfo,
            ) {
                let cur = Acc {
                    actor,
                    clk: self.vc.epoch(actor).clk,
                    write,
                    kernel: self.kernel.as_ref().map(|k| k.0.clone()),
                    site: self.site,
                };
                let mut loc = self.locs.remove(&(serial, bucket)).unwrap_or_default();
                let mut conflict = loc.last_write.clone().filter(|w| !self.hb(w, actor));
                if write {
                    if conflict.is_none() {
                        conflict = loc.reads.iter().find(|r| !self.hb(r, actor)).cloned();
                    }
                    loc.last_write = Some(cur);
                    loc.reads.clear();
                } else {
                    match loc.reads.iter_mut().find(|r| r.actor == actor) {
                        Some(r) => *r = cur,
                        None => loc.reads.push(cur),
                    }
                }
                self.locs.insert((serial, bucket), loc);
                let Some(p) = conflict else { return };
                if !self
                    .seen_races
                    .insert((serial, p.actor, actor, p.write, write))
                {
                    return;
                }
                let mut who = match (p.actor, &p.kernel) {
                    (HOST, _) => "the host".to_string(),
                    (n, Some(k)) => format!("kernel `{k}` on stream {}", n - 1),
                    (n, None) => format!("stream {}", n - 1),
                };
                if let Some((l, c)) = p.site {
                    who.push_str(&format!(" at {l}:{c}"));
                }
                let msg = format!(
                    "unordered {} to {}+{bucket} conflicts with a {} by {who}",
                    verb(write),
                    alloc.name,
                    verb(p.write)
                );
                let mut d = self.diag(DefectClass::Race, msg, alloc.clone());
                if actor == HOST {
                    (d.kernel, d.launch_seq, d.stream) = (None, None, None);
                }
                self.findings.push(d);
            }

            /// A copy operand's keys: every page for managed memory, else
            /// every 4 bytes from the operand's first byte.
            fn sweep(
                &mut self,
                op: (u64, AllocKind, u64, AllocInfo),
                bytes: u64,
                write: bool,
                actor: usize,
            ) {
                let (serial, kind, off0, alloc) = op;
                let (mut o, step) = match kind {
                    AllocKind::Managed => (off0 / PAGE * PAGE, PAGE),
                    _ => (off0, 4),
                };
                while o < off0 + bytes {
                    self.race_at(serial, o, write, actor, &alloc);
                    o += step;
                }
            }

            fn actor(&self) -> usize {
                self.kernel.as_ref().map_or(HOST, |k| 1 + k.2)
            }

            fn uninit(&mut self, serial: u64, alloc: &AllocInfo, off: u64, size: u64, u: u64) {
                let key = (serial, self.site, self.kernel.as_ref().map(|k| k.0.clone()));
                if self.seen_uninit.insert(key) {
                    let msg = format!(
                        "read of {size} bytes at {}+{off} touches uninitialized data \
                         (byte offset {u} was never written)",
                        alloc.name
                    );
                    let d = self.diag(DefectClass::UninitRead, msg, alloc.clone());
                    self.findings.push(d);
                }
            }

            fn memcpy(
                &mut self,
                dst: Addr,
                src: Addr,
                bytes: u64,
                stream: StreamId,
                blocking: bool,
            ) {
                let actor = if blocking { HOST } else { 1 + stream.0 };
                if !blocking {
                    self.vc.edge(HOST, actor);
                }
                let src_rec = self.shadow.find(src).map(|r| {
                    let o = src - r.base;
                    let bytes = r.shadow[o as usize..(o + bytes).min(r.size) as usize].to_vec();
                    (r.serial, r.kind, o, alloc_info(r), bytes)
                });
                let dst_rec = self.shadow.find_mut(dst).map(|d| {
                    let o = dst - d.base;
                    match &src_rec {
                        Some((.., sv)) => {
                            for (i, b) in sv.iter().enumerate() {
                                if let Some(x) = d.shadow.get_mut(o as usize + i) {
                                    *x = *b;
                                }
                            }
                        }
                        None => d.mark_init(o, bytes),
                    }
                    (d.serial, d.kind, o, alloc_info(d))
                });
                if let Some((serial, kind, o, info, _)) = src_rec {
                    self.sweep((serial, kind, o, info), bytes, false, actor);
                }
                if let Some(op) = dst_rec {
                    self.sweep(op, bytes, true, actor);
                }
            }

            fn word(&mut self, addr: Addr, size: u64, write: bool) {
                let actor = self.actor();
                let Some(r) = self.shadow.find_mut(addr) else {
                    return;
                };
                let (serial, kind, off) = (r.serial, r.kind, addr - r.base);
                let uninit = if write {
                    r.mark_init(off, size);
                    None
                } else {
                    r.first_uninit(off, size)
                };
                let alloc = alloc_info(r);
                if let Some(u) = uninit {
                    self.uninit(serial, &alloc, off, size, u);
                }
                self.race_at(serial, bucket(kind, off), write, actor, &alloc);
            }
        }

        impl MemHook for RefHook {
            /// Every access, ranged or not, as the per-word walk: each
            /// element's read, then its write.
            fn on_access(
                &mut self,
                _: Device,
                addr: Addr,
                es: u32,
                count: u64,
                kind: AccessKind,
                _: u64,
            ) {
                let es = u64::from(es);
                for i in 0..count {
                    if kind.reads() {
                        self.word(addr + i * es, es, false);
                    }
                    if kind.writes() {
                        self.word(addr + i * es, es, true);
                    }
                }
            }
            fn on_op(&mut self, op: &Op) {
                match *op {
                    Op::Alloc { base, size, kind } => {
                        self.shadow.on_alloc(base, size, kind, self.site)
                    }
                    Op::Free { base } => self.shadow.on_free(base, self.site),
                    Op::AllocLabel { base, label } => self.shadow.set_label(base, label),
                    Op::Site { line, col } => self.site = Some((line, col)),
                    Op::Memcpy {
                        dst,
                        src,
                        bytes,
                        stream,
                        blocking,
                        ..
                    } => self.memcpy(dst, src, bytes, stream, blocking),
                    Op::Launch { name, stream, seq } => {
                        self.vc.edge(HOST, 1 + stream.0);
                        self.kernel = Some((name.to_string(), seq, stream.0));
                    }
                    Op::KernelEnd {
                        stream, blocking, ..
                    } => {
                        if blocking {
                            self.vc.edge(1 + stream.0, HOST);
                        }
                        self.kernel = None;
                    }
                    Op::StreamSync { stream } => self.vc.edge(1 + stream.0, HOST),
                    Op::DeviceSync => {
                        for a in 1..self.vc.actors() {
                            self.vc.edge(a, HOST);
                        }
                    }
                    Op::DebugWrite { addr, bytes } => {
                        if let Some(r) = self.shadow.find_mut(addr) {
                            let off = addr - r.base;
                            r.mark_init(off, bytes);
                        }
                    }
                }
            }
        }
    }

    /// xorshift64*: a seeded generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// What one differential case exercised.
    #[derive(Default)]
    struct Tally {
        /// Races found.
        races: usize,
        /// Copies whose last 1–3 bytes cross a page boundary of a managed
        /// operand.
        straddles: usize,
        /// Straddling copies reporting a race on the page past the
        /// boundary.
        second_page_races: usize,
    }

    /// Drive both hooks with one seeded random sequence of allocations,
    /// per-word and range accesses, sync and async copies, launches on
    /// 1–3 streams and synchronizations over managed, device and host
    /// memory with 1-, 4- and 8-byte elements. An access carries its
    /// allocation's serial, one in 16 another's. One copy in four starts
    /// 1–3 bytes before a page boundary of a managed operand, half of
    /// them after an unordered kernel write to the page past it.
    fn differential_case(seed: u64) -> Tally {
        let mut rng = Rng((0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x1000_0000_01b3)) | 1);
        let mut new = CheckHook::new();
        let mut old = reference::RefHook::default();
        let hooks: [&mut dyn MemHook; 2] = [&mut new, &mut old];
        let [new_h, old_h] = hooks;
        let mut both = |f: &dyn Fn(&mut dyn MemHook)| {
            f(&mut *new_h);
            f(&mut *old_h);
        };
        let streams = 1 + rng.below(3) as usize;
        // (base, size, kind, serial) of each live allocation.
        let mut live: Vec<(Addr, u64, AllocKind, u64)> = Vec::new();
        let mut serials = 0;
        let mut next_base: Addr = 0x10_0000;
        let mut in_kernel: Option<usize> = None;
        let mut seq = 0;
        let mut wrong_serials = 0;
        // Offset of the page past the boundary of each copy straddling
        // one; copy `i` runs at site `1000 + i`.
        let mut straddles = Vec::new();
        for _ in 0..120 {
            let site = (1 + rng.below(40) as u32, 1 + rng.below(4) as u32);
            both(&|h| h.site(site.0, site.1));
            match rng.below(12) {
                0 | 1 if live.len() < 6 => {
                    let size = 1 + rng.below(9000);
                    let kind = rng.pick(&[AllocKind::Managed, AllocKind::Device, AllocKind::Host]);
                    let base = next_base;
                    next_base += (size + 4096).next_multiple_of(4096);
                    live.push((base, size, kind, serials));
                    serials += 1;
                    both(&|h| h.alloc(base, size, kind));
                    if rng.below(2) == 0 {
                        both(&|h| h.label(base, "buf"));
                    }
                    if rng.below(3) == 0 {
                        both(&|h| h.poke(base, size / 2));
                    }
                }
                2 if !live.is_empty() && rng.below(3) == 0 => {
                    let (base, ..) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    both(&|h| h.free(base));
                }
                3 if in_kernel.is_none() => {
                    let s = rng.below(streams as u64) as usize;
                    seq += 1;
                    let name = rng.pick(&["k0", "k1", "k2"]);
                    both(&|h| h.kernel(name, StreamId(s), seq));
                    in_kernel = Some(s);
                }
                4 if in_kernel.is_some() => {
                    let s = in_kernel.take().unwrap();
                    let blocking = rng.below(4) == 0;
                    both(&|h| h.kernel_end("k", StreamId(s), blocking));
                }
                5 if in_kernel.is_none() => {
                    if rng.below(3) == 0 {
                        both(&|h| h.device_sync());
                    } else {
                        let s = StreamId(rng.below(streams as u64) as usize);
                        both(&|h| h.stream_sync(s));
                    }
                }
                6 | 7 if in_kernel.is_none() && !live.is_empty() => {
                    let stream = StreamId(rng.below(streams as u64) as usize);
                    let blocking = rng.below(2) == 0;
                    let managed: Vec<_> = live
                        .iter()
                        .filter(|a| a.2 == AllocKind::Managed && a.1 > PAGE)
                        .copied()
                        .collect();
                    if !managed.is_empty() && rng.below(4) == 0 {
                        // Start 1–3 bytes before a page boundary of a
                        // managed operand, 2–8 bytes long.
                        let (mb, ms, _, mserial) =
                            managed[rng.below(managed.len() as u64) as usize];
                        let page = PAGE * (1 + rng.below((ms - 1) / PAGE));
                        let before = 1 + rng.below(3);
                        let bytes = (2 + rng.below(7)).min(ms - page + before);
                        let (ob, os, ..) = live[rng.below(live.len() as u64) as usize];
                        let other = if os >= bytes {
                            ob + rng.below(os - bytes + 1)
                        } else {
                            mb
                        };
                        if rng.below(2) == 0 {
                            // An unordered kernel write to the page past
                            // the boundary.
                            let s = rng.below(streams as u64) as usize;
                            seq += 1;
                            let at = mb + page + rng.below((ms - page).min(PAGE));
                            both(&|h| h.kernel("w", StreamId(s), seq));
                            both(&|h| {
                                h.on_access(Device::Gpu, at, 1, 1, AccessKind::Write, mserial)
                            });
                            both(&|h| h.kernel_end("w", StreamId(s), false));
                        }
                        let start = mb + page - before;
                        let (dst, src) = if rng.below(2) == 0 {
                            (start, other)
                        } else {
                            (other, start)
                        };
                        if bytes > before {
                            let line = 1000 + straddles.len() as u32;
                            both(&|h| h.site(line, 1));
                            straddles.push(page);
                        }
                        both(&|h| h.copy(dst, src, bytes, stream, blocking));
                        continue;
                    }
                    let (db, ds, ..) = live[rng.below(live.len() as u64) as usize];
                    let (sb, ss, ..) = live[rng.below(live.len() as u64) as usize];
                    let (doff, soff) = (rng.below(ds), rng.below(ss));
                    let bytes = 1 + rng.below((ds - doff).min(ss - soff));
                    // Now and then a source outside every allocation.
                    let src = if rng.below(8) == 0 { 0x10 } else { sb + soff };
                    both(&|h| h.copy(db + doff, src, bytes, stream, blocking));
                }
                _ if !live.is_empty() => {
                    let (base, size, _, mut serial) = live[rng.below(live.len() as u64) as usize];
                    if rng.below(16) == 0 {
                        // Another allocation's serial, or one never issued.
                        let other = rng.below(serials);
                        serial = if other == serial { serials } else { other };
                        wrong_serials += 1;
                    }
                    let es = rng.pick(&[1u64, 4, 8]).min(size);
                    let elems = size / es;
                    // Mostly element-aligned, sometimes any byte offset.
                    let off = if rng.below(5) == 0 {
                        rng.below(size - es + 1)
                    } else {
                        rng.below(elems) * es
                    };
                    let count = match rng.below(2) {
                        0 => 1,
                        _ => 1 + rng.below(((size - off) / es).min(64)),
                    };
                    let kind =
                        rng.pick(&[AccessKind::Read, AccessKind::Write, AccessKind::ReadWrite]);
                    let dev = if in_kernel.is_some() {
                        Device::Gpu
                    } else {
                        Device::Cpu
                    };
                    let (addr, es32) = (base + off, es as u32);
                    both(&|h| h.on_access(dev, addr, es32, count, kind, serial));
                }
                _ => {}
            }
        }
        let findings = new.take_findings();
        assert_eq!(findings, old.findings, "seed {seed}: findings differ");
        assert_eq!(
            new.shadow_digest(),
            old.shadow.digest(),
            "seed {seed}: shadow digests differ"
        );
        assert_eq!(new.resolved_by_address(), wrong_serials, "seed {seed}");
        let race = |d: &Diagnostic| d.class == DefectClass::Race;
        let second_page_races = (straddles.iter().enumerate())
            .filter(|&(i, page)| {
                let (site, key) = (Some((1000 + i as u32, 1)), format!("+{page} conflicts"));
                (findings.iter()).any(|d| race(d) && d.site == site && d.message.contains(&key))
            })
            .count();
        Tally {
            races: findings.iter().filter(|d| race(d)).count(),
            straddles: straddles.len(),
            second_page_races,
        }
    }

    #[test]
    fn race_tables_match_the_reference_model() {
        let mut total = Tally::default();
        for seed in 0..256 {
            let t = differential_case(seed);
            total.races += t.races;
            total.straddles += t.straddles;
            total.second_page_races += t.second_page_races;
        }
        let Tally {
            races,
            straddles,
            second_page_races,
        } = total;
        assert!(
            races > 256,
            "the sequences must exercise races, found {races}"
        );
        // A copy walk that missed the page past the boundary would part
        // from the reference model on these.
        assert!(straddles >= 250, "{straddles} straddling copies");
        assert!(
            second_page_races >= 60,
            "{second_page_races} straddling copies race on the second page"
        );
    }
}
