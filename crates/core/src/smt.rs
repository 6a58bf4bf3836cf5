//! The shadow memory table (SMT): a sorted structure mapping every traced
//! allocation to its shadow memory (paper §III-C, Fig. 3).
//!
//! Paper-faithful details kept on purpose:
//!
//! * one shadow byte per 32-bit word of traced memory (~25 % overhead);
//! * lookups use linear search while the table holds fewer than 64
//!   entries and binary search beyond that (§IV-D) — the threshold is a
//!   field so the ablation bench can sweep it;
//! * `cudaFree` releases the data immediately but the shadow memory is
//!   retained until the next diagnostic output has been computed.

use hetsim::{Addr, AllocKind};

use crate::flags::AccessFlags;

/// Bytes per shadow word (the paper shadows each 32-bit word).
pub const WORD_BYTES: u64 = 4;

/// One traced allocation and its shadow memory.
#[derive(Debug, Clone)]
pub struct SmtEntry {
    /// Base address of the allocation.
    pub base: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Originating allocation API.
    pub kind: AllocKind,
    /// One flag byte per 32-bit word.
    pub shadow: Vec<AccessFlags>,
    /// User-level name attached via `XplAllocData` (diagnostic pragma).
    pub label: Option<String>,
    /// Registration order.
    pub serial: u64,
    /// False once freed; the entry then survives until the next
    /// diagnostic epoch ends.
    pub live: bool,
    /// Byte ranges `(offset, len)` explicitly copied *into* this
    /// allocation from the host (`cudaMemcpy` H2D).
    pub copied_in: Vec<(u64, u64)>,
    /// Byte ranges copied *out of* this allocation to the host (D2H).
    pub copied_out: Vec<(u64, u64)>,
}

impl SmtEntry {
    fn new(base: Addr, size: u64, kind: AllocKind, serial: u64) -> Self {
        let words = size.div_ceil(WORD_BYTES) as usize;
        SmtEntry {
            base,
            size,
            kind,
            shadow: vec![AccessFlags::new(); words],
            label: None,
            serial,
            live: true,
            copied_in: Vec::new(),
            copied_out: Vec::new(),
        }
    }

    /// Number of shadow words.
    #[inline]
    pub fn words(&self) -> usize {
        self.shadow.len()
    }

    /// Whether `addr` falls inside this allocation.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base + self.size.max(1)
    }

    /// Shadow word index range `[first, last]` covered by an access of
    /// `size` bytes at `addr` (clamped to the allocation). `size` is a
    /// `u64` so multi-GiB `cudaMemcpy` spans are never truncated.
    #[inline]
    pub fn word_span(&self, addr: Addr, size: u64) -> (usize, usize) {
        let off = addr - self.base;
        let first = (off / WORD_BYTES) as usize;
        let last = ((off + size.max(1) - 1) / WORD_BYTES) as usize;
        (first, last.min(self.shadow.len().saturating_sub(1)))
    }

    /// Name shown in diagnostics: the user label if registered, otherwise
    /// the address and allocation API.
    pub fn display_name(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!("0x{:x} ({})", self.base, self.kind.api_name()),
        }
    }

    /// Reset the shadow for a new diagnostic epoch and forget recorded
    /// transfers. The last-writer bit of each word survives (it feeds the
    /// read-origin classification of later epochs, §III-D).
    pub fn reset_shadow(&mut self) {
        for w in &mut self.shadow {
            w.reset_epoch();
        }
        self.copied_in.clear();
        self.copied_out.clear();
    }
}

/// The table itself.
pub struct Smt {
    entries: Vec<SmtEntry>,
    next_serial: u64,
    /// Entry count below which lookup scans linearly (64 in the paper).
    pub linear_threshold: usize,
    cache: usize,
}

impl Default for Smt {
    fn default() -> Self {
        Self::new()
    }
}

impl Smt {
    pub fn new() -> Self {
        Smt {
            entries: Vec::new(),
            next_serial: 0,
            linear_threshold: 64,
            cache: usize::MAX,
        }
    }

    /// Number of entries (live and deferred-free).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register a new allocation. O(N) insertion into the sorted array,
    /// exactly as the paper describes (§IV-D).
    pub fn insert(&mut self, base: Addr, size: u64, kind: AllocKind) {
        let pos = self.entries.partition_point(|e| e.base < base);
        debug_assert!(
            pos >= self.entries.len() || self.entries[pos].base != base,
            "duplicate SMT base 0x{base:x}"
        );
        let e = SmtEntry::new(base, size, kind, self.next_serial);
        self.next_serial += 1;
        self.entries.insert(pos, e);
        self.cache = usize::MAX;
    }

    /// Mark the allocation at `base` freed; shadow is retained until
    /// [`purge_dead`](Self::purge_dead). Returns false if unknown.
    pub fn remove_defer(&mut self, base: Addr) -> bool {
        // The table is sorted by base (and bases are never reused), so
        // binary-search instead of scanning linearly.
        let pos = self.entries.partition_point(|e| e.base < base);
        match self.entries.get_mut(pos) {
            Some(e) if e.base == base && e.live => {
                e.live = false;
                // Drop the last-hit cache if it pointed at the deferred
                // entry, so a stale hit cannot outlive the free.
                if self.cache == pos {
                    self.cache = usize::MAX;
                }
                true
            }
            _ => false,
        }
    }

    /// Drop entries freed before this call (end of a diagnostic epoch).
    pub fn purge_dead(&mut self) {
        self.entries.retain(|e| e.live);
        self.cache = usize::MAX;
    }

    #[inline]
    fn find_index(&self, addr: Addr) -> Option<usize> {
        // Last-hit cache: traced programs stream through arrays.
        if let Some(e) = self.entries.get(self.cache) {
            if e.contains(addr) {
                return Some(self.cache);
            }
        }
        if self.entries.len() < self.linear_threshold {
            self.entries.iter().position(|e| e.contains(addr))
        } else {
            let pos = self.entries.partition_point(|e| e.base <= addr);
            if pos == 0 {
                return None;
            }
            let i = pos - 1;
            self.entries[i].contains(addr).then_some(i)
        }
    }

    /// Look up the entry containing `addr`. Untracked addresses return
    /// `None` and are ignored by the tracer (paper §III-C).
    pub fn lookup(&self, addr: Addr) -> Option<&SmtEntry> {
        self.find_index(addr).map(|i| &self.entries[i])
    }

    /// Mutable lookup; caches the hit for subsequent accesses.
    pub fn lookup_mut(&mut self, addr: Addr) -> Option<&mut SmtEntry> {
        let i = self.find_index(addr)?;
        self.cache = i;
        Some(&mut self.entries[i])
    }

    /// Attach a user-level name to the allocation containing `addr`.
    /// Returns true if an entry was found.
    pub fn set_label(&mut self, addr: Addr, label: &str) -> bool {
        match self.lookup_mut(addr) {
            Some(e) => {
                e.label = Some(label.to_string());
                true
            }
            None => false,
        }
    }

    /// All entries in address order.
    pub fn iter(&self) -> impl Iterator<Item = &SmtEntry> {
        self.entries.iter()
    }

    /// Mutable iteration (diagnostic reset).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut SmtEntry> {
        self.entries.iter_mut()
    }

    /// Zero every shadow and forget transfers: a new epoch.
    pub fn reset_shadows(&mut self) {
        for e in &mut self.entries {
            e.reset_shadow();
        }
    }

    /// Total shadow bytes currently held (memory-overhead reporting).
    pub fn shadow_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.words() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(n: usize) -> Smt {
        let mut t = Smt::new();
        for i in 0..n {
            t.insert(0x10_0000 + (i as u64) * 0x1000, 256, AllocKind::Managed);
        }
        t
    }

    #[test]
    fn insert_keeps_sorted_regardless_of_order() {
        let mut t = Smt::new();
        t.insert(0x30_0000, 64, AllocKind::Managed);
        t.insert(0x10_0000, 64, AllocKind::Host);
        t.insert(0x20_0000, 64, AllocKind::Device);
        let bases: Vec<Addr> = t.iter().map(|e| e.base).collect();
        assert_eq!(bases, vec![0x10_0000, 0x20_0000, 0x30_0000]);
    }

    #[test]
    fn lookup_hits_interior_addresses() {
        let t = table_with(10);
        let e = t.lookup(0x10_2000 + 17).unwrap();
        assert_eq!(e.base, 0x10_2000);
        assert!(t.lookup(0x10_2000 + 256).is_none()); // one past the end
        assert!(t.lookup(0xdead).is_none());
    }

    #[test]
    fn linear_and_binary_agree() {
        // Same table, both search strategies, every probe address.
        let mut small = table_with(100);
        small.linear_threshold = 1000; // force linear
        let mut big = table_with(100);
        big.linear_threshold = 0; // force binary
        for probe in (0x0F_0000..0x10_0000 + 100 * 0x1000).step_by(97) {
            let a = small.lookup(probe).map(|e| e.base);
            let b = big.lookup(probe).map(|e| e.base);
            assert_eq!(a, b, "probe 0x{probe:x}");
        }
    }

    #[test]
    fn deferred_free_keeps_shadow_until_purge() {
        let mut t = table_with(3);
        assert!(t.remove_defer(0x10_1000));
        assert_eq!(t.len(), 3); // still present
        assert!(!t.remove_defer(0x10_1000)); // double defer rejected
        t.purge_dead();
        assert_eq!(t.len(), 2);
        assert!(t.lookup(0x10_1000).is_none());
    }

    #[test]
    fn word_span_covers_access() {
        let mut t = Smt::new();
        t.insert(0x1000, 64, AllocKind::Managed);
        let e = t.lookup(0x1000).unwrap();
        assert_eq!(e.words(), 16);
        assert_eq!(e.word_span(0x1000, 4), (0, 0));
        assert_eq!(e.word_span(0x1004, 8), (1, 2)); // 8-byte double: 2 words
        assert_eq!(e.word_span(0x1001, 1), (0, 0));
        assert_eq!(e.word_span(0x1002, 4), (0, 1)); // unaligned straddle
    }

    #[test]
    fn word_span_handles_multi_gib_sizes() {
        // A span larger than 4 GiB must clamp to the entry's last word,
        // not wrap around a 32-bit truncation to a tiny span.
        let mut t = Smt::new();
        t.insert(0x1000, 64, AllocKind::Managed);
        let e = t.lookup(0x1000).unwrap();
        assert_eq!(e.word_span(0x1000, (1u64 << 32) + 4), (0, 15));
        assert_eq!(e.word_span(0x1008, u64::MAX / 2), (2, 15));
    }

    #[test]
    fn remove_defer_finds_first_middle_last_and_rejects_unknown() {
        let mut t = table_with(5);
        assert!(t.remove_defer(0x10_0000)); // first
        assert!(t.remove_defer(0x10_2000)); // middle
        assert!(t.remove_defer(0x10_4000)); // last
        assert!(!t.remove_defer(0x10_0800)); // interior address, not a base
        assert!(!t.remove_defer(0xdead_0000)); // unknown
        t.purge_dead();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_defer_invalidates_last_hit_cache() {
        let mut t = table_with(3);
        // Warm the cache onto the middle entry, then defer-free it.
        assert!(t.lookup_mut(0x10_1000).is_some());
        assert!(t.remove_defer(0x10_1000));
        // Lookups after the free still resolve correctly (the shadow is
        // retained until purge, and neighbours are unaffected).
        assert_eq!(t.lookup(0x10_1000 + 8).unwrap().base, 0x10_1000);
        assert_eq!(t.lookup(0x10_2000).unwrap().base, 0x10_2000);
        t.purge_dead();
        assert!(t.lookup(0x10_1000).is_none());
    }

    #[test]
    fn labels_affect_display_name() {
        let mut t = Smt::new();
        t.insert(0x2000, 32, AllocKind::Managed);
        assert!(t
            .lookup(0x2000)
            .unwrap()
            .display_name()
            .contains("cudaMallocManaged"));
        assert!(t.set_label(0x2000, "(dom)->m_p"));
        assert_eq!(t.lookup(0x2000).unwrap().display_name(), "(dom)->m_p");
        assert!(!t.set_label(0x9999, "nope"));
    }

    #[test]
    fn reset_shadows_zeroes_and_clears_transfers() {
        let mut t = Smt::new();
        t.insert(0x1000, 16, AllocKind::Device);
        {
            let e = t.lookup_mut(0x1000).unwrap();
            e.shadow[0].record_write(hetsim::Device::Cpu);
            e.copied_in.push((0, 16));
        }
        t.reset_shadows();
        let e = t.lookup(0x1000).unwrap();
        assert!(!e.shadow[0].touched());
        assert!(e.copied_in.is_empty());
    }

    #[test]
    fn shadow_is_quarter_of_data() {
        let mut t = Smt::new();
        t.insert(0x1000, 4096, AllocKind::Managed);
        assert_eq!(t.shadow_bytes(), 1024);
    }

    #[test]
    fn odd_sizes_round_up_to_whole_words() {
        let mut t = Smt::new();
        t.insert(0x1000, 5, AllocKind::Host);
        assert_eq!(t.lookup(0x1000).unwrap().words(), 2);
        assert!(t.lookup(0x1004).is_some());
    }
}
