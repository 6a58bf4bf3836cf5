//! Simulated address space: a bump allocator handing out page-aligned
//! ranges, each backed by real bytes so workloads compute verifiable
//! results.
//!
//! The allocator never reuses an address, so allocation order is address
//! order and the table is a `Vec` sorted by construction: `alloc` pushes,
//! and a freed entry stays in place as a tombstone so later use-after-free
//! and double-free are attributed precisely. A lookup tries the entry the
//! previous lookup resolved, then bisects. The machine resolves each
//! operand of an access once and moves the bytes through the resolved
//! index.

use crate::error::{SimError, SimResult};
use crate::types::{Addr, AllocKind};

/// First address ever handed out; everything below it (including null)
/// faults as unallocated.
pub const HEAP_BASE: Addr = 0x10_0000;

/// One live or freed allocation.
#[derive(Debug)]
pub struct Allocation {
    /// Base address (what the allocating call returned).
    pub base: Addr,
    /// Size in bytes as requested.
    pub size: u64,
    /// Which API family produced it.
    pub kind: AllocKind,
    /// Backing bytes (zero-initialized; deterministic stand-in for
    /// whatever garbage real memory would contain).
    pub data: Vec<u8>,
    /// False once freed. Freed entries are kept so use-after-free and
    /// double-free are reported precisely.
    pub live: bool,
    /// Monotonic id, in allocation order.
    pub serial: u64,
}

impl Allocation {
    /// Whether `addr..addr+len` lies inside this allocation. Exact for
    /// every `addr` and `len`: nothing is added, so nothing wraps.
    #[inline]
    pub fn contains(&self, addr: Addr, len: u64) -> bool {
        addr >= self.base && len <= self.size && addr - self.base <= self.size - len
    }

    /// Exclusive end address.
    #[inline]
    pub fn end(&self) -> Addr {
        self.base + self.size
    }
}

/// The address space of the simulated node. All devices share one virtual
/// address space, as under CUDA unified addressing.
pub struct AddressSpace {
    /// Every allocation ever made, live or freed, in address order.
    allocs: Vec<Allocation>,
    next: Addr,
    align: u64,
    /// Index of the allocation the last mutable lookup resolved —
    /// workloads stream, so this hits almost always and skips the
    /// bisection.
    last_hit: usize,
}

impl AddressSpace {
    /// Create an empty address space whose allocations are aligned to
    /// `align` bytes (the machine passes its page size so distinct
    /// allocations never share a page).
    pub fn new(align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        AddressSpace {
            allocs: Vec::new(),
            next: HEAP_BASE,
            align,
            last_hit: 0,
        }
    }

    /// Allocate `size` bytes (zero-size allocations occupy one alignment
    /// unit so they still have a unique base). A size whose span runs
    /// past the top of the address space, or whose backing bytes the host
    /// cannot reserve, is out of memory.
    pub fn alloc(&mut self, size: u64, kind: AllocKind) -> SimResult<Addr> {
        let oom = || SimError::OutOfMemory { requested: size };
        let base = self.next;
        let next = size
            .max(1)
            .div_ceil(self.align)
            .checked_mul(self.align)
            .and_then(|span| base.checked_add(span))
            .ok_or_else(oom)?;
        let len = usize::try_from(size).map_err(|_| oom())?;
        // `vec!` aborts the process when the host cannot reserve the
        // bytes, so ask for them fallibly first. Neither the probe nor the
        // zeroed vector that follows it touches a page.
        Vec::<u8>::new().try_reserve_exact(len).map_err(|_| oom())?;
        self.next = next;
        self.allocs.push(Allocation {
            base,
            size,
            kind,
            data: vec![0u8; len],
            live: true,
            serial: self.allocs.len() as u64,
        });
        Ok(base)
    }

    /// Free the allocation with base address `base`. Returns its size.
    /// Backing bytes are dropped; the tombstone entry remains for
    /// diagnostics.
    pub fn free(&mut self, base: Addr) -> SimResult<u64> {
        let Some(i) = self.index_of_base(base) else {
            return Err(SimError::BadFree { addr: base });
        };
        let a = &mut self.allocs[i];
        if !a.live {
            return Err(SimError::DoubleFree { base });
        }
        a.live = false;
        a.data = Vec::new();
        Ok(a.size)
    }

    /// Index (the serial) of the allocation, live or freed, whose base is
    /// `base`.
    pub(crate) fn index_of_base(&self, base: Addr) -> Option<usize> {
        self.allocs.binary_search_by_key(&base, |a| a.base).ok()
    }

    /// Index of the live allocation containing `addr..addr+len`.
    #[inline]
    fn index_of(&self, addr: Addr, len: u64) -> SimResult<usize> {
        if let Some(a) = self.allocs.get(self.last_hit) {
            // A range starting inside the last hit has the owner the
            // bisection would find (a tombstone never matches, so the
            // index may go stale on `free`).
            let off = addr.wrapping_sub(a.base);
            if a.live && off < a.size && len <= a.size - off {
                return Ok(self.last_hit);
            }
        }
        self.index_slow(addr, len)
    }

    #[cold]
    fn index_slow(&self, addr: Addr, len: u64) -> SimResult<usize> {
        // The owner of `addr` is the last allocation starting at or below
        // it; the bytes past its end up to the next base are padding.
        let i = self
            .allocs
            .partition_point(|a| a.base <= addr)
            .checked_sub(1)
            .ok_or(SimError::Unallocated { addr })?;
        let a = &self.allocs[i];
        if !a.live {
            if addr < a.end() {
                return Err(SimError::UseAfterFree { addr });
            }
            return Err(SimError::Unallocated { addr });
        }
        if !a.contains(addr, len) {
            if addr < a.end() {
                return Err(SimError::OutOfBounds { addr, size: len });
            }
            return Err(SimError::Unallocated { addr });
        }
        Ok(i)
    }

    /// Index of the live allocation containing `addr..addr+len`,
    /// remembered for the next lookup. The machine resolves each operand
    /// once and moves its bytes with [`bytes_mut`](Self::bytes_mut).
    #[inline]
    pub(crate) fn resolve(&mut self, addr: Addr, len: u64) -> SimResult<usize> {
        let i = self.index_of(addr, len)?;
        self.last_hit = i;
        Ok(i)
    }

    /// The allocation at an index [`resolve`](Self::resolve) returned.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> &Allocation {
        &self.allocs[i]
    }

    /// The `len` bytes at `addr` of allocation `i`, which
    /// [`resolve`](Self::resolve) found to contain them.
    #[inline]
    pub(crate) fn bytes_mut(&mut self, i: usize, addr: Addr, len: u64) -> &mut [u8] {
        let a = &mut self.allocs[i];
        let off = (addr - a.base) as usize;
        &mut a.data[off..off + len as usize]
    }

    /// Move `len` bytes from `src` in allocation `si` to `dst` in
    /// allocation `di`, both resolved to contain their range. Overlapping
    /// ranges behave like `memmove`.
    pub(crate) fn move_bytes(&mut self, di: usize, dst: Addr, si: usize, src: Addr, len: u64) {
        let len = len as usize;
        let s = (src - self.allocs[si].base) as usize;
        let d = (dst - self.allocs[di].base) as usize;
        if di == si {
            self.allocs[di].data.copy_within(s..s + len, d);
            return;
        }
        let (lo, hi) = self.allocs.split_at_mut(di.max(si));
        let (to, from) = if di < si {
            (&mut lo[di], &hi[0])
        } else {
            (&mut hi[0], &lo[si])
        };
        to.data[d..d + len].copy_from_slice(&from.data[s..s + len]);
    }

    /// Find the live allocation containing `addr..addr+len`.
    pub fn find(&self, addr: Addr, len: u64) -> SimResult<&Allocation> {
        self.index_of(addr, len).map(|i| &self.allocs[i])
    }

    /// Like [`find`](Self::find) but remembers the hit for the fast path
    /// and returns a mutable allocation.
    pub fn find_mut(&mut self, addr: Addr, len: u64) -> SimResult<&mut Allocation> {
        let i = self.resolve(addr, len)?;
        Ok(&mut self.allocs[i])
    }

    /// Copy `out.len()` bytes starting at `addr` into `out`.
    pub fn read_bytes(&mut self, addr: Addr, out: &mut [u8]) -> SimResult<()> {
        let len = out.len() as u64;
        let i = self.resolve(addr, len)?;
        out.copy_from_slice(self.bytes_mut(i, addr, len));
        Ok(())
    }

    /// Write `src` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, src: &[u8]) -> SimResult<()> {
        let len = src.len() as u64;
        let i = self.resolve(addr, len)?;
        self.bytes_mut(i, addr, len).copy_from_slice(src);
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` (the data side of `memcpy`).
    /// Overlapping ranges behave like `memmove`.
    pub fn copy_bytes(&mut self, dst: Addr, src: Addr, len: u64) -> SimResult<()> {
        if len == 0 {
            return Ok(());
        }
        let si = self.resolve(src, len)?;
        let di = self.resolve(dst, len)?;
        self.move_bytes(di, dst, si, src, len);
        Ok(())
    }

    /// Iterate over all live allocations in address order.
    pub fn iter_live(&self) -> impl Iterator<Item = &Allocation> {
        self.allocs.iter().filter(|a| a.live)
    }

    /// Alignment (== machine page size).
    pub fn alignment(&self) -> u64 {
        self.align
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(4096)
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut s = space();
        let a = s.alloc(100, AllocKind::Managed).unwrap();
        let b = s.alloc(5000, AllocKind::Host).unwrap();
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 4096);
    }

    #[test]
    fn zero_size_allocations_get_unique_bases() {
        let mut s = space();
        let a = s.alloc(0, AllocKind::Managed).unwrap();
        let b = s.alloc(0, AllocKind::Managed).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = space();
        let a = s.alloc(64, AllocKind::Managed).unwrap();
        s.write_bytes(a + 8, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        s.read_bytes(a + 8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let mut s = space();
        let a = s.alloc(16, AllocKind::Device).unwrap();
        let mut out = [0xFFu8; 16];
        s.read_bytes(a, &mut out).unwrap();
        assert_eq!(out, [0u8; 16]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut s = space();
        let a = s.alloc(16, AllocKind::Managed).unwrap();
        let mut out = [0u8; 4];
        let err = s.read_bytes(a + 14, &mut out).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn unallocated_detected() {
        let mut s = space();
        let mut out = [0u8; 4];
        assert!(matches!(
            s.read_bytes(0x10, &mut out).unwrap_err(),
            SimError::Unallocated { .. }
        ));
    }

    #[test]
    fn use_after_free_detected() {
        let mut s = space();
        let a = s.alloc(32, AllocKind::Managed).unwrap();
        s.free(a).unwrap();
        let mut out = [0u8; 4];
        assert_eq!(
            s.read_bytes(a, &mut out).unwrap_err(),
            SimError::UseAfterFree { addr: a }
        );
    }

    #[test]
    fn double_free_and_bad_free_detected() {
        let mut s = space();
        let a = s.alloc(32, AllocKind::Managed).unwrap();
        s.free(a).unwrap();
        assert_eq!(s.free(a).unwrap_err(), SimError::DoubleFree { base: a });
        assert_eq!(
            s.free(a + 8).unwrap_err(),
            SimError::BadFree { addr: a + 8 }
        );
    }

    #[test]
    fn copy_bytes_moves_data() {
        let mut s = space();
        let a = s.alloc(32, AllocKind::Host).unwrap();
        let b = s.alloc(32, AllocKind::Device).unwrap();
        s.write_bytes(a, &[9u8; 32]).unwrap();
        s.copy_bytes(b, a, 32).unwrap();
        let mut out = [0u8; 32];
        s.read_bytes(b, &mut out).unwrap();
        assert_eq!(out, [9u8; 32]);
    }

    #[test]
    fn live_accounting() {
        let mut s = space();
        let a = s.alloc(10, AllocKind::Managed).unwrap();
        let _b = s.alloc(20, AllocKind::Managed).unwrap();
        let live = |s: &AddressSpace| s.iter_live().map(|a| a.size).collect::<Vec<_>>();
        assert_eq!(live(&s), [10, 20]);
        s.free(a).unwrap();
        assert_eq!(live(&s), [20]);
    }

    #[test]
    fn find_cache_survives_free() {
        let mut s = space();
        let a = s.alloc(16, AllocKind::Managed).unwrap();
        let mut out = [0u8; 1];
        s.read_bytes(a, &mut out).unwrap(); // primes last_hit
        s.free(a).unwrap();
        assert!(s.read_bytes(a, &mut out).is_err());
    }

    #[test]
    fn wrapping_ranges_and_sizes_are_errors() {
        let mut s = space();
        let a = s.alloc(32, AllocKind::Host).unwrap();
        let b = s.alloc(32, AllocKind::Device).unwrap();
        let top = u64::MAX - 7;
        let mut out = [0u8; 8];
        assert_eq!(
            s.read_bytes(top, &mut out).unwrap_err(),
            SimError::Unallocated { addr: top }
        );
        assert_eq!(
            s.copy_bytes(b, a, u64::MAX).unwrap_err(),
            SimError::OutOfBounds {
                addr: a,
                size: u64::MAX
            }
        );
        // 2^62 bytes fit the simulated address space but no host can
        // back them.
        for size in [u64::MAX, u64::MAX - 4096, 1 << 63, 1 << 62] {
            assert_eq!(
                s.alloc(size, AllocKind::Host).unwrap_err(),
                SimError::OutOfMemory { requested: size }
            );
        }
        // A failed allocation consumes neither address space nor a serial.
        let c = s.alloc(1, AllocKind::Host).unwrap();
        assert_eq!(c, b + 4096);
        assert_eq!(s.find(c, 1).unwrap().serial, 2);
    }

    mod differential {
        //! Random alloc/free/lookup/copy sequences against a linear scan
        //! over every allocation ever made, in 128-bit arithmetic.

        use proptest::prelude::*;

        use super::super::*;

        const ALIGN: u64 = 64;

        struct RefAlloc {
            base: Addr,
            size: u64,
            kind: AllocKind,
            live: bool,
            data: Vec<u8>,
        }

        struct Reference {
            allocs: Vec<RefAlloc>,
            next: u128,
        }

        impl Reference {
            fn alloc(&mut self, size: u64, kind: AllocKind) -> SimResult<Addr> {
                let span = (size.max(1) as u128).div_ceil(ALIGN as u128) * ALIGN as u128;
                if size > isize::MAX as u64 || self.next + span > u64::MAX as u128 {
                    return Err(SimError::OutOfMemory { requested: size });
                }
                let base = self.next as Addr;
                self.next += span;
                self.allocs.push(RefAlloc {
                    base,
                    size,
                    kind,
                    live: true,
                    data: vec![0; size as usize],
                });
                Ok(base)
            }

            /// The allocation `addr..addr+len` resolves to: the one with
            /// the greatest base not above `addr` owns it.
            fn find(&self, addr: Addr, len: u64) -> SimResult<usize> {
                let i = (0..self.allocs.len())
                    .filter(|&i| self.allocs[i].base <= addr)
                    .max_by_key(|&i| self.allocs[i].base)
                    .ok_or(SimError::Unallocated { addr })?;
                let a = &self.allocs[i];
                let end = a.base as u128 + a.size as u128;
                let inside = (addr as u128) < end;
                if !a.live {
                    return Err(if inside {
                        SimError::UseAfterFree { addr }
                    } else {
                        SimError::Unallocated { addr }
                    });
                }
                if addr as u128 + len as u128 > end {
                    return Err(if inside {
                        SimError::OutOfBounds { addr, size: len }
                    } else {
                        SimError::Unallocated { addr }
                    });
                }
                Ok(i)
            }

            /// What `find` reports for a hit, in the real table's terms.
            fn view(&self, i: usize) -> (Addr, u64, AllocKind, u64, bool) {
                let a = &self.allocs[i];
                (a.base, a.size, a.kind, i as u64, a.live)
            }

            fn free(&mut self, base: Addr) -> SimResult<u64> {
                match self.allocs.iter_mut().find(|a| a.base == base) {
                    None => Err(SimError::BadFree { addr: base }),
                    Some(a) if !a.live => Err(SimError::DoubleFree { base }),
                    Some(a) => {
                        a.live = false;
                        a.data = Vec::new();
                        Ok(a.size)
                    }
                }
            }

            fn bytes(&mut self, i: usize, addr: Addr, len: u64) -> &mut [u8] {
                let a = &mut self.allocs[i];
                let off = (addr - a.base) as usize;
                &mut a.data[off..off + len as usize]
            }

            fn read(&mut self, addr: Addr, len: u64) -> SimResult<Vec<u8>> {
                let i = self.find(addr, len)?;
                Ok(self.bytes(i, addr, len).to_vec())
            }

            fn write(&mut self, addr: Addr, src: &[u8]) -> SimResult<()> {
                let i = self.find(addr, src.len() as u64)?;
                self.bytes(i, addr, src.len() as u64).copy_from_slice(src);
                Ok(())
            }

            fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> SimResult<()> {
                if len == 0 {
                    return Ok(());
                }
                let si = self.find(src, len)?;
                let di = self.find(dst, len)?;
                let moved = self.bytes(si, src, len).to_vec();
                self.bytes(di, dst, len).copy_from_slice(&moved);
                Ok(())
            }

            /// An address near allocation `sel` (or the heap base while
            /// nothing is allocated), placed by `how`.
            fn pick(&self, (sel, how, k): Pick) -> Addr {
                let Some(a) = self.allocs.get(sel % self.allocs.len().max(1)) else {
                    return HEAP_BASE + k % (4 * ALIGN);
                };
                let end = a.base + a.size;
                match how {
                    0 => a.base + k % a.size.max(1),
                    // Exactly the base: frees of live and freed bases.
                    1 => a.base,
                    // Exactly the end: the first byte after the
                    // allocation, or the next base when no padding
                    // separates them.
                    2 => end,
                    // The alignment padding up to the next base.
                    3 => end + k % ALIGN,
                    // Just below the end, so ranges run past it.
                    4 => end.saturating_sub(k % 24),
                    // Within a few lengths of the top of the address space.
                    5 => u64::MAX - k % 48,
                    // Below the heap, or anywhere at all.
                    6 => k % HEAP_BASE,
                    _ => k,
                }
            }
        }

        type Pick = (usize, u8, u64);

        #[derive(Debug, Clone)]
        enum Op {
            Alloc(u64, u8),
            Free(Pick),
            Find(Pick, u64),
            FindMut(Pick, u64),
            Read(Pick, u64),
            Write(Pick, u64, u8),
            Copy(Pick, Pick, u64),
            /// A copy whose operands pick the same allocation.
            CopyWithin(usize, u64, u64, u64),
            /// Resolve inside an allocation, free it, and resolve the same
            /// address again: the last-hit index is stale.
            TouchFree(usize),
        }

        fn pick() -> impl Strategy<Value = Pick> {
            (any::<usize>(), 0u8..8, any::<u64>())
        }

        fn small_len() -> impl Strategy<Value = u64> {
            prop_oneof![Just(0u64), 0u64..=24]
        }

        fn len() -> impl Strategy<Value = u64> {
            prop_oneof![small_len(), 0u64..=160, (u64::MAX - 64)..=u64::MAX]
        }

        fn op() -> impl Strategy<Value = Op> {
            let size = prop_oneof![
                0u64..=200,
                Just(0u64),
                Just(ALIGN),
                Just(2 * ALIGN),
                (1u64 << 63)..=u64::MAX,
            ];
            // Two alloc arms, so a fifth of all ops allocate.
            prop_oneof![
                (size, 0u8..3).prop_map(|(n, k)| Op::Alloc(n, k)),
                (0u64..=200, 0u8..3).prop_map(|(n, k)| Op::Alloc(n, k)),
                pick().prop_map(Op::Free),
                (pick(), len()).prop_map(|(p, n)| Op::Find(p, n)),
                (pick(), len()).prop_map(|(p, n)| Op::FindMut(p, n)),
                (pick(), small_len()).prop_map(|(p, n)| Op::Read(p, n)),
                (pick(), small_len(), any::<u8>()).prop_map(|(p, n, b)| Op::Write(p, n, b)),
                (pick(), pick(), len()).prop_map(|(d, s, n)| Op::Copy(d, s, n)),
                (any::<usize>(), any::<u64>(), any::<u64>(), 0u64..=96)
                    .prop_map(|(a, d, s, n)| Op::CopyWithin(a, d, s, n)),
                any::<usize>().prop_map(Op::TouchFree),
            ]
        }

        fn view(a: &Allocation) -> (Addr, u64, AllocKind, u64, bool) {
            (a.base, a.size, a.kind, a.serial, a.live)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn vec_table_matches_a_linear_scan(ops in proptest::collection::vec(op(), 1..160)) {
                let mut s = AddressSpace::new(ALIGN);
                let mut r = Reference { allocs: Vec::new(), next: HEAP_BASE as u128 };
                for op in ops {
                    match op {
                        Op::Alloc(size, k) => {
                            let kind = [AllocKind::Managed, AllocKind::Host, AllocKind::Device][k as usize];
                            prop_assert_eq!(s.alloc(size, kind), r.alloc(size, kind), "alloc({})", size);
                        }
                        Op::Free(p) => {
                            let base = r.pick(p);
                            prop_assert_eq!(s.free(base), r.free(base), "free(0x{:x})", base);
                        }
                        Op::Find(p, len) => {
                            let addr = r.pick(p);
                            let want = r.find(addr, len).map(|i| r.view(i));
                            prop_assert_eq!(s.find(addr, len).map(view), want, "find(0x{:x}, {})", addr, len);
                        }
                        Op::FindMut(p, len) => {
                            let addr = r.pick(p);
                            let want = r.find(addr, len).map(|i| r.view(i));
                            let got = s.find_mut(addr, len).map(|a| view(a));
                            prop_assert_eq!(got, want, "find_mut(0x{:x}, {})", addr, len);
                        }
                        Op::Read(p, len) => {
                            let addr = r.pick(p);
                            let mut out = vec![0u8; len as usize];
                            let got = s.read_bytes(addr, &mut out).map(|()| out);
                            prop_assert_eq!(got, r.read(addr, len), "read(0x{:x}, {})", addr, len);
                        }
                        Op::Write(p, len, b) => {
                            let addr = r.pick(p);
                            let src: Vec<u8> = (0..len as u8).map(|i| b.wrapping_add(i)).collect();
                            prop_assert_eq!(s.write_bytes(addr, &src), r.write(addr, &src), "write(0x{:x}, {})", addr, len);
                        }
                        Op::Copy(d, sp, len) => {
                            let (dst, src) = (r.pick(d), r.pick(sp));
                            prop_assert_eq!(s.copy_bytes(dst, src, len), r.copy(dst, src, len),
                                "copy(0x{:x}, 0x{:x}, {})", dst, src, len);
                        }
                        Op::CopyWithin(sel, d, sp, len) => {
                            let (dst, src) = (r.pick((sel, 0, d)), r.pick((sel, 0, sp)));
                            prop_assert_eq!(s.copy_bytes(dst, src, len), r.copy(dst, src, len),
                                "copy(0x{:x}, 0x{:x}, {})", dst, src, len);
                        }
                        Op::TouchFree(sel) => {
                            let addr = r.pick((sel, 0, sel as u64));
                            let mut out = [0u8; 1];
                            for _ in 0..2 {
                                let got = s.read_bytes(addr, &mut out).map(|()| out.to_vec());
                                prop_assert_eq!(got, r.read(addr, 1), "read(0x{:x}, 1)", addr);
                                let base = r.pick((sel, 1, 0));
                                prop_assert_eq!(s.free(base), r.free(base), "free(0x{:x})", base);
                            }
                        }
                    }
                }
                let live: Vec<_> = s.iter_live().map(|a| (view(a), a.data.clone())).collect();
                let want: Vec<_> = (0..r.allocs.len())
                    .filter(|&i| r.allocs[i].live)
                    .map(|i| (r.view(i), r.allocs[i].data.clone()))
                    .collect();
                prop_assert_eq!(live, want);
            }
        }
    }
}
