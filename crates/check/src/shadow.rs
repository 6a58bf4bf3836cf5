//! Per-byte shadow memory: the sanitizer's model of the heap.
//!
//! Every allocation owns one [`AllocRecord`]: its race table, label and
//! sites, and a shadow byte per data byte with two states — `0` =
//! allocated-but-uninitialized, `1` = initialized — the
//! Cudagrind/MemorySanitizer state machine restricted to the transitions
//! the simulator can drive. Unaddressable bytes need no third state: they
//! are exactly the bytes no live record covers. A freed record stays in
//! place as a tombstone, so a later fault address can still be
//! attributed to the allocation it once belonged to.

use std::ops::{Index, IndexMut};

use hetsim::{Addr, AllocKind};

use crate::race::RaceTable;

/// A source position, 1-based `line:col`.
pub type Site = (u32, u32);

/// Race-tracking granularity for managed memory: the UM driver moves
/// pages, so unordered accesses anywhere in one page are a transfer-level
/// hazard. Unmanaged memory is tracked at exact element offsets —
/// neighboring slices of one `cudaMalloc` buffer are routinely touched by
/// overlapped copies and kernels (pathfinder's chunked transfer), and
/// page granularity would flag those as false shares.
pub(crate) const PAGE: u64 = 4096;

/// Initial key stride (log2 bytes) of an unmanaged allocation's race
/// table: the widest scalar. Narrower keys narrow it (see [`RaceTable`]).
const WORD_SHIFT: u32 = 3;

/// One allocation the checker has seen (live or freed).
#[derive(Debug)]
pub struct AllocRecord {
    /// 1-based allocation order — stable across runs.
    pub serial: u64,
    pub base: Addr,
    pub size: u64,
    pub kind: AllocKind,
    /// The receiving variable's name, when known.
    pub label: Option<String>,
    pub alloc_site: Option<Site>,
    /// Set when the allocation is freed.
    pub free_site: Option<Site>,
    pub freed: bool,
    /// One byte per data byte; `1` = initialized.
    pub shadow: Vec<u8>,
    /// Race state, keyed by page for managed memory and by byte offset
    /// otherwise.
    pub(crate) races: RaceTable,
}

impl AllocRecord {
    /// Human name: the label when known, `alloc#N` otherwise.
    pub fn name(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!("alloc#{}", self.serial),
        }
    }

    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            AllocKind::Host => "host",
            AllocKind::Managed => "managed",
            AllocKind::Device => "device",
        }
    }

    pub fn end(&self) -> Addr {
        self.base + self.size
    }

    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// First offset in `[off, off+len)` whose byte is uninitialized.
    pub fn first_uninit(&self, off: u64, len: u64) -> Option<u64> {
        let lo = off.min(self.size) as usize;
        let hi = (off + len).min(self.size) as usize;
        self.shadow[lo..hi]
            .iter()
            .position(|b| *b == 0)
            .map(|i| off + i as u64)
    }

    /// Mark `[off, off+len)` initialized (clamped to the allocation).
    pub fn mark_init(&mut self, off: u64, len: u64) {
        let lo = off.min(self.size) as usize;
        let hi = (off + len).min(self.size) as usize;
        self.shadow[lo..hi].fill(1);
    }
}

/// Every allocation's record, live and freed, in address order.
///
/// The machine's allocator hands out disjoint, ascending ranges and never
/// reuses a base, so a new record is appended, the record containing an
/// address is unique, and the records are in allocation order too: a
/// record's position is its allocation's
/// [`serial`](hetsim::alloc::Allocation::serial) when the heap saw every
/// allocation. An access indexes the heap by that serial; copies and
/// pokes bisect by address.
#[derive(Debug, Default)]
pub struct ShadowHeap {
    records: Vec<AllocRecord>,
    next_serial: u64,
}

impl Index<usize> for ShadowHeap {
    type Output = AllocRecord;

    fn index(&self, at: usize) -> &AllocRecord {
        &self.records[at]
    }
}

impl IndexMut<usize> for ShadowHeap {
    fn index_mut(&mut self, at: usize) -> &mut AllocRecord {
        &mut self.records[at]
    }
}

impl ShadowHeap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn on_alloc(&mut self, base: Addr, size: u64, kind: AllocKind, site: Option<Site>) {
        self.next_serial += 1;
        let shift = match kind {
            AllocKind::Managed => PAGE.trailing_zeros(),
            _ => WORD_SHIFT,
        };
        let r = AllocRecord {
            serial: self.next_serial,
            base,
            size,
            kind,
            label: None,
            alloc_site: site,
            free_site: None,
            freed: false,
            shadow: vec![0; size as usize],
            races: RaceTable::new(size, shift),
        };
        let i = self.records.partition_point(|l| l.base < base);
        self.records.insert(i, r);
    }

    /// The live record based at `base`.
    fn live_at_base(&mut self, base: Addr) -> Option<&mut AllocRecord> {
        let i = self.records.binary_search_by_key(&base, |r| r.base).ok()?;
        Some(&mut self.records[i]).filter(|r| !r.freed)
    }

    /// Position of the record containing `addr`, live or freed.
    fn containing(&self, addr: Addr) -> Option<usize> {
        let i = self
            .records
            .partition_point(|r| r.base <= addr)
            .checked_sub(1)?;
        self.records[i].contains(addr).then_some(i)
    }

    /// Position of the live record containing `addr`.
    pub(crate) fn position(&self, addr: Addr) -> Option<usize> {
        self.containing(addr).filter(|&i| !self.records[i].freed)
    }

    /// Mark the allocation at `base` freed; its record stays in place.
    pub fn on_free(&mut self, base: Addr, site: Option<Site>) {
        if let Some(r) = self.live_at_base(base) {
            r.freed = true;
            r.free_site = site;
        }
    }

    pub fn set_label(&mut self, base: Addr, label: &str) {
        if let Some(r) = self.live_at_base(base) {
            r.label = Some(label.to_string());
        }
    }

    /// The live allocation containing `addr`, mutably.
    pub fn find_mut(&mut self, addr: Addr) -> Option<&mut AllocRecord> {
        let i = self.position(addr)?;
        Some(&mut self.records[i])
    }

    /// The live allocation containing `addr`.
    pub fn find(&self, addr: Addr) -> Option<&AllocRecord> {
        self.position(addr).map(|i| &self.records[i])
    }

    /// Live allocations in address order.
    pub fn live(&self) -> impl Iterator<Item = &AllocRecord> {
        self.records.iter().filter(|r| !r.freed)
    }

    /// Every record, live and freed, in address order.
    pub(crate) fn records(&self) -> &[AllocRecord] {
        &self.records
    }

    /// The freed allocation whose range covered `addr`.
    pub fn find_dead(&self, addr: Addr) -> Option<&AllocRecord> {
        let i = self.containing(addr)?;
        Some(&self.records[i]).filter(|r| r.freed)
    }

    /// The freed allocation with exactly this base (for double-free
    /// attribution).
    pub fn find_dead_base(&self, base: Addr) -> Option<&AllocRecord> {
        let i = self.records.binary_search_by_key(&base, |r| r.base).ok()?;
        Some(&self.records[i]).filter(|r| r.freed)
    }

    /// Best-effort attribution of a fault address: the allocation, live
    /// or freed, containing it, else the nearest record by distance (the
    /// allocation a small overflow ran past).
    pub fn attribute(&self, addr: Addr) -> Option<&AllocRecord> {
        if let Some(i) = self.containing(addr) {
            return Some(&self.records[i]);
        }
        let dist = |r: &AllocRecord| -> u64 {
            if addr < r.base {
                r.base - addr
            } else {
                addr - r.end() + 1
            }
        };
        self.records.iter().min_by_key(|r| (dist(r), r.serial))
    }

    /// Shadow bytes held, live and freed. Freed records keep theirs, so
    /// this never shrinks: it is also the peak.
    pub fn bytes(&self) -> u64 {
        self.records.iter().map(|r| r.shadow.len() as u64).sum()
    }

    /// Deterministic FNV-1a digest over every record's identity and
    /// shadow bytes, live and freed, in serial order — the oracle the
    /// bulk-vs-per-word parity test compares.
    pub fn digest(&self) -> u64 {
        let mut all: Vec<&AllocRecord> = self.records.iter().collect();
        all.sort_by_key(|r| r.serial);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for r in all {
            eat(&r.serial.to_le_bytes());
            eat(&r.base.to_le_bytes());
            eat(&r.size.to_le_bytes());
            eat(&[r.freed as u8]);
            eat(&r.shadow);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_tracks_init_state() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(0x1000, 64, AllocKind::Host, Some((3, 5)));
        let r = sh.find_mut(0x1010).unwrap();
        assert_eq!(r.first_uninit(0, 64), Some(0));
        r.mark_init(0, 8);
        assert_eq!(r.first_uninit(0, 8), None);
        assert_eq!(r.first_uninit(0, 9), Some(8));
    }

    #[test]
    fn free_leaves_a_tombstone() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(0x1000, 32, AllocKind::Managed, None);
        sh.on_free(0x1000, Some((9, 1)));
        assert!(sh.find(0x1000).is_none());
        let t = sh.find_dead(0x1010).unwrap();
        assert!(t.freed);
        assert_eq!(t.free_site, Some((9, 1)));
        assert_eq!(sh.find_dead_base(0x1000).unwrap().serial, 1);
    }

    #[test]
    fn attribute_picks_the_nearest_record() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(0x1000, 0x100, AllocKind::Host, None);
        sh.on_alloc(0x4000, 0x100, AllocKind::Host, None);
        // Just past the end of the first allocation.
        assert_eq!(sh.attribute(0x1100).unwrap().base, 0x1000);
        // Inside the second.
        assert_eq!(sh.attribute(0x4080).unwrap().base, 0x4000);
    }

    #[test]
    fn lookups_follow_frees() {
        let mut sh = ShadowHeap::new();
        for base in [0x1000, 0x2000, 0x3000] {
            sh.on_alloc(base, 0x100, AllocKind::Host, None);
        }
        assert_eq!(sh.find(0x2010).unwrap().serial, 2);
        // A freed record keeps its place; live lookups skip it.
        sh.on_free(0x1000, None);
        assert!(sh.find(0x1010).is_none());
        assert_eq!(sh.find(0x2010).unwrap().serial, 2);
        assert_eq!(sh.find_mut(0x30ff).unwrap().serial, 3);
        assert!(sh.find(0x3100).is_none(), "one past the end");
        sh.on_free(0x1000, None); // already freed: no-op
        assert_eq!(sh.live().map(|r| r.serial).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(sh.find_dead(0x1010).unwrap().serial, 1);
    }

    #[test]
    fn digest_changes_with_shadow_state() {
        let mut a = ShadowHeap::new();
        a.on_alloc(0x1000, 16, AllocKind::Host, None);
        let d0 = a.digest();
        a.find_mut(0x1000).unwrap().mark_init(0, 4);
        assert_ne!(a.digest(), d0);
    }
}
