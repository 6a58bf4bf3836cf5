//! Happens-before race detection with vector clocks.
//!
//! Actors are the host (actor 0) and each stream (actor `1 + s`). Edges
//! come from the operations that order work in CUDA's model:
//!
//! - a kernel launch (or async memcpy) *releases* the host clock to its
//!   stream — everything the host did before the launch happens-before
//!   the kernel's accesses;
//! - a blocking completion (synchronous launch, `cudaStreamSynchronize`,
//!   `cudaDeviceSynchronize`, blocking memcpy) joins the stream's clock
//!   back into the host.
//!
//! Accesses are stamped with their actor's current epoch; two accesses
//! to the same location race when neither epoch happens-before the
//! other and at least one is a write (the FastTrack formulation, with a
//! full read set instead of the read-epoch optimization — clarity over
//! constant factors at simulation scale).
//!
//! Each allocation keeps its locations in one [`RaceTable`]: a 36-byte
//! slot per location, found by byte offset without hashing, whose
//! [`LocState`] holds the last write and the first reader inline.
//! Recording an access allocates nothing unless a second actor joins a
//! location's read set.

/// The host actor index. Stream `s` is actor `1 + s`.
pub const HOST: usize = 0;

/// An interned kernel name: an index into the checker's name table,
/// resolved to the name only when a diagnostic is rendered.
pub type KernelId = u32;

/// An interned (kernel, site) breadcrumb: an index into the checker's
/// table of the distinct pairs it has seen, in first-seen order.
pub type CrumbId = u32;

/// A scalar timestamp: `clk`-th epoch of `actor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    pub actor: u32,
    pub clk: u32,
}

/// Per-actor vector clocks.
#[derive(Debug, Default)]
pub struct VectorClocks {
    clocks: Vec<Vec<u32>>,
}

impl VectorClocks {
    pub fn new() -> Self {
        VectorClocks {
            clocks: vec![vec![1]],
        }
    }

    /// Make `actor` known. Every clock always has one component per
    /// known actor, so this is a no-op for an actor already known.
    fn ensure(&mut self, actor: usize) {
        let n = (actor + 1).max(self.clocks.len());
        for c in &mut self.clocks {
            if c.len() < n {
                c.resize(n, 0);
            }
        }
        while self.clocks.len() < n {
            // Epochs are 1-based: component `i` of everyone else's clock
            // starts at 0 ("never heard from actor i"), strictly below
            // actor i's first epoch.
            let i = self.clocks.len();
            let mut c = vec![0; n];
            c[i] = 1;
            self.clocks.push(c);
        }
    }

    pub fn actors(&self) -> usize {
        self.clocks.len()
    }

    /// The current epoch of `actor` (what its next access is stamped with).
    pub fn epoch(&mut self, actor: usize) -> Epoch {
        if actor >= self.clocks.len() {
            self.ensure(actor);
        }
        Epoch {
            actor: actor as u32,
            clk: self.clocks[actor][actor],
        }
    }

    /// Release/acquire edge: everything `from` did so far happens-before
    /// everything `to` does next. `from` then enters a new epoch, so its
    /// *later* work stays unordered with `to`.
    pub fn edge(&mut self, from: usize, to: usize) {
        self.ensure(from.max(to));
        let msg = self.clocks[from].clone();
        for (d, s) in self.clocks[to].iter_mut().zip(msg.iter()) {
            *d = (*d).max(*s);
        }
        self.clocks[from][from] += 1;
    }

    /// Does the access stamped `e` happen before the present of `actor`?
    pub fn hb(&mut self, e: Epoch, actor: usize) -> bool {
        let from = e.actor as usize;
        if from == actor {
            return true; // program order
        }
        if from.max(actor) >= self.clocks.len() {
            self.ensure(from.max(actor));
        }
        e.clk <= self.clocks[actor][from]
    }
}

/// One remembered access to a location: its epoch, whether it wrote, and
/// where it happened as an interned (kernel, site) breadcrumb, resolved
/// only when a race is reported. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    pub epoch: Epoch,
    pub write: bool,
    pub crumb: CrumbId,
}

/// FastTrack-style per-location state: the last write plus the read set
/// since that write, in arrival order. The last write and the first
/// reader are kept inline; readers after the first go to an overflow
/// list of the location's [`RaceTable`], which a write empties. 36 bytes,
/// so a location read by a single actor owns no heap memory.
#[derive(Debug, Default, Clone)]
pub struct LocState {
    pub last_write: Option<AccessInfo>,
    first_read: Option<AccessInfo>,
    /// 1 + the index of this location's overflow list in its table, or 0
    /// while no second actor has read it.
    more_reads: u32,
}

impl LocState {
    /// Record an access and return the first conflicting prior access,
    /// if any (the caller dedups and reports). `lists` holds the
    /// overflow read lists of the location's table.
    fn access(
        &mut self,
        lists: &mut Vec<Vec<AccessInfo>>,
        vc: &mut VectorClocks,
        info: AccessInfo,
    ) -> Option<AccessInfo> {
        let actor = info.epoch.actor as usize;
        let mut conflict = self.last_write.filter(|w| !vc.hb(w.epoch, actor));
        if info.write {
            if conflict.is_none() {
                conflict = self.first_read.filter(|r| !vc.hb(r.epoch, actor));
            }
            if let Some(i) = self.more_reads.checked_sub(1) {
                let more = &mut lists[i as usize];
                if conflict.is_none() {
                    conflict = more.iter().find(|r| !vc.hb(r.epoch, actor)).copied();
                }
                more.clear();
            }
            self.last_write = Some(info);
            self.first_read = None;
        } else {
            let same_actor = |r: &AccessInfo| r.epoch.actor == info.epoch.actor;
            if self.first_read.is_none_or(|r| same_actor(&r)) {
                self.first_read = Some(info);
            } else {
                if self.more_reads == 0 {
                    lists.push(Vec::new());
                    self.more_reads = lists.len() as u32;
                }
                let more = &mut lists[self.more_reads as usize - 1];
                match more.iter_mut().find(|r| same_actor(r)) {
                    Some(slot) => *slot = info,
                    None => more.push(info),
                }
            }
        }
        conflict
    }
}

/// One allocation's race state: a [`LocState`] slot per tracked
/// location, keyed by byte offset into the allocation.
///
/// Slots sit `1 << shift` bytes apart. Every key seen so far is a
/// multiple of that stride, so two distinct keys never share a slot. A
/// key off the stride (a `char` at an odd offset, a copy sweep from an
/// unaligned start) narrows the stride to the key's alignment and
/// spreads the existing slots out. Slots are allocated on the first
/// access, one per stride of the allocation.
#[derive(Debug)]
pub struct RaceTable {
    size: u64,
    shift: u32,
    slots: Vec<LocState>,
    /// The read sets' overflow lists, each named by the one slot that
    /// owns it; a slot keeps its list once it has one.
    more_reads: Vec<Vec<AccessInfo>>,
}

impl RaceTable {
    /// An empty table for an allocation of `size` bytes whose keys start
    /// out `1 << shift` bytes apart.
    pub fn new(size: u64, shift: u32) -> Self {
        RaceTable {
            size,
            shift,
            slots: Vec::new(),
            more_reads: Vec::new(),
        }
    }

    /// Slots allocated so far.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Record an access at byte offset `key`; see [`LocState::access`].
    pub fn access(
        &mut self,
        key: u64,
        vc: &mut VectorClocks,
        info: AccessInfo,
    ) -> Option<AccessInfo> {
        let i = self.slot(key);
        self.slots[i].access(&mut self.more_reads, vc, info)
    }

    /// The index of key `key`'s slot.
    fn slot(&mut self, key: u64) -> usize {
        let align = key.trailing_zeros();
        if align < self.shift {
            self.narrow(align);
        }
        let i = (key >> self.shift) as usize;
        if i >= self.slots.len() {
            // First access (or, defensively, a key past the end).
            let n = (self.size.div_ceil(1 << self.shift) as usize).max(i + 1);
            self.slots.resize_with(n, LocState::default);
        }
        i
    }

    /// Narrow the stride to `1 << shift` bytes: old slot `i` moves to
    /// `i << (old shift - shift)`, the slots in between start empty.
    fn narrow(&mut self, shift: u32) {
        let spread = 1 << (self.shift - shift);
        self.shift = shift;
        let old = std::mem::take(&mut self.slots);
        self.slots.reserve(old.len() * spread);
        for s in old {
            self.slots.push(s);
            self.slots
                .extend(std::iter::repeat_with(LocState::default).take(spread - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(epoch: Epoch, write: bool) -> AccessInfo {
        AccessInfo {
            epoch,
            write,
            crumb: 0,
        }
    }

    /// One location: a table of a single slot, always keyed 0.
    struct Loc(RaceTable);

    impl Loc {
        fn new() -> Self {
            Loc(RaceTable::new(8, 3))
        }

        fn access(&mut self, vc: &mut VectorClocks, info: AccessInfo) -> Option<AccessInfo> {
            self.0.access(0, vc, info)
        }
    }

    #[test]
    fn launch_edge_orders_host_before_kernel() {
        let mut vc = VectorClocks::new();
        let mut loc = Loc::new();
        // Host writes, then launches on stream 1 (actor 2).
        let e0 = vc.epoch(HOST);
        assert!(loc.access(&mut vc, acc(e0, true)).is_none());
        vc.edge(HOST, 2);
        let e1 = vc.epoch(2);
        assert!(loc.access(&mut vc, acc(e1, true)).is_none(), "ordered");
    }

    #[test]
    fn two_unordered_streams_race() {
        let mut vc = VectorClocks::new();
        let mut loc = Loc::new();
        vc.edge(HOST, 1);
        let e1 = vc.epoch(1);
        assert!(loc.access(&mut vc, acc(e1, true)).is_none());
        // Second launch acquires the host clock, which never learned of
        // actor 1's write — unordered.
        vc.edge(HOST, 2);
        let e2 = vc.epoch(2);
        assert!(loc.access(&mut vc, acc(e2, true)).is_some(), "racy");
    }

    #[test]
    fn stream_sync_restores_order() {
        let mut vc = VectorClocks::new();
        let mut loc = Loc::new();
        vc.edge(HOST, 1);
        let e1 = vc.epoch(1);
        assert!(loc.access(&mut vc, acc(e1, true)).is_none());
        vc.edge(1, HOST); // cudaStreamSynchronize
        vc.edge(HOST, 2);
        let e2 = vc.epoch(2);
        assert!(loc.access(&mut vc, acc(e2, true)).is_none(), "synced");
    }

    #[test]
    fn host_read_races_with_async_write() {
        let mut vc = VectorClocks::new();
        let mut loc = Loc::new();
        vc.edge(HOST, 1);
        let e1 = vc.epoch(1);
        assert!(loc.access(&mut vc, acc(e1, true)).is_none());
        // Host reads before joining with the stream.
        let eh = vc.epoch(HOST);
        let c = loc.access(&mut vc, acc(eh, false));
        assert!(c.is_some_and(|c| c.write));
    }

    #[test]
    fn read_read_never_races() {
        let mut vc = VectorClocks::new();
        let mut loc = Loc::new();
        vc.edge(HOST, 1);
        let e1 = vc.epoch(1);
        assert!(loc.access(&mut vc, acc(e1, false)).is_none());
        let eh = vc.epoch(HOST);
        assert!(loc.access(&mut vc, acc(eh, false)).is_none());
    }

    #[test]
    fn slots_hold_one_write_and_one_reader_inline() {
        assert_eq!(std::mem::size_of::<AccessInfo>(), 16);
        assert_eq!(std::mem::size_of::<LocState>(), 36);
    }

    #[test]
    fn a_write_conflicts_with_an_overflow_reader_then_empties_the_list() {
        let mut vc = VectorClocks::new();
        let mut loc = Loc::new();
        // The host reads, then streams 1 and 2 read unordered: their
        // reads overflow. The host's own read is ordered before its write.
        let eh = vc.epoch(HOST);
        assert!(loc.access(&mut vc, acc(eh, false)).is_none());
        for s in [1, 2] {
            vc.edge(HOST, s);
            let e = vc.epoch(s);
            assert!(loc.access(&mut vc, acc(e, false)).is_none());
        }
        assert_eq!(
            loc.0.more_reads,
            [vec![
                acc(Epoch { actor: 1, clk: 1 }, false),
                acc(Epoch { actor: 2, clk: 1 }, false)
            ]]
        );
        let eh = vc.epoch(HOST);
        let c = loc.access(&mut vc, acc(eh, true));
        assert_eq!(c.map(|c| c.epoch.actor), Some(1), "first unordered reader");
        assert!(loc.0.more_reads[0].is_empty(), "a write empties the list");
        // The next reader after the first reuses the slot's list.
        let eh = vc.epoch(HOST);
        assert!(loc.access(&mut vc, acc(eh, false)).is_none());
        let e = vc.epoch(2);
        assert!(
            loc.access(&mut vc, acc(e, false)).is_some(),
            "read after the host's write"
        );
        assert_eq!(loc.0.more_reads.len(), 1);
        assert_eq!(loc.0.more_reads[0].len(), 1);
    }
}
