//! Interned (kernel × allocation × event-kind) cells: how the profile,
//! blame and flamegraph folds key an event without building a string.
//!
//! A fold reads millions of events but meets only a few dozen distinct
//! cells, so each event is keyed by small integers and strings are built
//! only for the rows a report renders. Kernel names are interned by
//! content: every launch of one name shares one id whichever `Rc<str>`
//! carries it, and a kernel literally named [`HOST_KERNEL`] shares the
//! host's id, exactly as a map keyed by the name string would group them.
//! Last-hit caches skip the hash for the runs of events one launch and one
//! allocation produce.

use std::collections::HashMap;

use hetsim::{AttrCtx, Event};

use crate::crit_path::COMPUTE_KIND;
use crate::profile::{HOST_KERNEL, NO_ALLOC};

/// Number of kind slots: one per [`Event`] variant plus [`COMPUTE_KIND`].
pub(crate) const KINDS: usize = 13;

/// The slot of [`COMPUTE_KIND`], the pseudo-kind of unattributed time.
pub(crate) const COMPUTE_SLOT: usize = 12;

/// Kind name of each slot: [`Event::kind_name`], then [`COMPUTE_KIND`].
pub(crate) const KIND_NAMES: [&str; KINDS] = [
    "alloc",
    "free",
    "page_fault",
    "migration",
    "read_dup",
    "invalidate",
    "evict",
    "memcpy",
    "advise",
    "prefetch",
    "kernel_begin",
    "kernel_end",
    COMPUTE_KIND,
];

/// Dense slot of an event's kind: `KIND_NAMES[kind_slot(ev)]` is
/// `ev.kind_name()`.
pub(crate) fn kind_slot(ev: &Event) -> usize {
    match ev {
        Event::Alloc { .. } => 0,
        Event::Free { .. } => 1,
        Event::PageFault { .. } => 2,
        Event::Migration { .. } => 3,
        Event::ReadDup { .. } => 4,
        Event::Invalidate { .. } => 5,
        Event::Evict { .. } => 6,
        Event::Memcpy { .. } => 7,
        Event::Advise { .. } => 8,
        Event::Prefetch { .. } => 9,
        Event::KernelBegin { .. } => 10,
        Event::KernelEnd { .. } => 11,
    }
}

/// Display label of an allocation: the first name `names` gives its base,
/// the hex base when it has none, [`NO_ALLOC`] for no allocation.
pub(crate) fn label_of(names: &[(u64, String)], base: Option<u64>) -> String {
    match base {
        None => NO_ALLOC.to_string(),
        Some(b) => names
            .iter()
            .find(|(nb, _)| *nb == b)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("0x{b:x}")),
    }
}

/// `v[i]`, growing `v` with defaults to reach it: per-kernel tables are
/// indexed by ids the interner hands out as the fold goes.
pub(crate) fn entry<T: Clone + Default>(v: &mut Vec<T>, i: u32) -> &mut T {
    let i = i as usize;
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// Kernel-name interner over names borrowed from the folded events.
pub(crate) struct Kernels<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
    /// Last name looked up and its id. Pointer equality is enough: two
    /// live borrows with one address and length are the same bytes.
    last: (&'a str, u32),
}

impl<'a> Kernels<'a> {
    pub(crate) fn new() -> Self {
        Kernels {
            ids: HashMap::from([(HOST_KERNEL, 0)]),
            names: vec![HOST_KERNEL],
            last: (HOST_KERNEL, 0),
        }
    }

    /// Id of `name`, interned on first sight.
    pub(crate) fn id(&mut self, name: &'a str) -> u32 {
        if std::ptr::eq(name, self.last.0) {
            return self.last.1;
        }
        let next = self.names.len() as u32;
        let id = *self.ids.entry(name).or_insert_with(|| {
            self.names.push(name);
            next
        });
        self.last = (name, id);
        id
    }

    /// Id of the kernel a context ran in ([`HOST_KERNEL`] for host code).
    pub(crate) fn of(&mut self, ctx: &'a AttrCtx) -> u32 {
        self.id(ctx.kernel_name().unwrap_or(HOST_KERNEL))
    }

    pub(crate) fn name(&self, id: u32) -> &'a str {
        self.names[id as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// (kernel id, allocation base) → dense cell id, with a last-hit cache.
pub(crate) struct Cells {
    ids: HashMap<(u32, Option<u64>), usize>,
    keys: Vec<(u32, Option<u64>)>,
    last: Option<((u32, Option<u64>), usize)>,
}

impl Cells {
    pub(crate) fn new() -> Self {
        Cells {
            ids: HashMap::new(),
            keys: Vec::new(),
            last: None,
        }
    }

    /// Id of the (kernel, alloc) cell; a new cell gets the next id.
    pub(crate) fn id(&mut self, kernel: u32, alloc: Option<u64>) -> usize {
        let key = (kernel, alloc);
        match self.last {
            Some((k, id)) if k == key => id,
            _ => {
                let next = self.keys.len();
                let id = *self.ids.entry(key).or_insert_with(|| {
                    self.keys.push(key);
                    next
                });
                self.last = Some((key, id));
                id
            }
        }
    }

    /// (kernel id, alloc) of each cell, by cell id.
    pub(crate) fn keys(&self) -> &[(u32, Option<u64>)] {
        &self.keys
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Cell ids in (kernel name, alloc) order — the order a map keyed by
    /// `(String, Option<u64>)` walks them in, which fixes the f64
    /// summation order of every rollup.
    pub(crate) fn by_name(&self, kernels: &Kernels) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by(|&a, &b| {
            let (ka, aa) = self.keys[a];
            let (kb, ab) = self.keys[b];
            kernels.name(ka).cmp(kernels.name(kb)).then(aa.cmp(&ab))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{AllocKind, CopyKind, Device, MemAdvise, StreamId};
    use std::rc::Rc;

    #[test]
    fn kind_slots_name_their_kinds() {
        let evs = [
            Event::Alloc {
                base: 0,
                bytes: 0,
                kind: AllocKind::Managed,
            },
            Event::Free { base: 0 },
            Event::PageFault {
                dev: Device::Cpu,
                page: 0,
                write: false,
            },
            Event::Migration {
                page: 0,
                to: Device::Cpu,
                bytes: 0,
            },
            Event::ReadDup {
                page: 0,
                to: Device::Cpu,
                bytes: 0,
            },
            Event::Invalidate { page: 0, copies: 0 },
            Event::Evict {
                pages: 0,
                bytes: 0,
                writeback_pages: 0,
                writeback_bytes: 0,
            },
            Event::Memcpy {
                dst: 0,
                src: 0,
                bytes: 0,
                kind: CopyKind::HostToHost,
                stream: StreamId(0),
                start_ns: 0.0,
                end_ns: 0.0,
            },
            Event::Advise {
                addr: 0,
                bytes: 0,
                advice: MemAdvise::SetReadMostly,
            },
            Event::Prefetch {
                addr: 0,
                bytes: 0,
                pages: 0,
                bytes_moved: 0,
                to: Device::Cpu,
                stream: StreamId(0),
                start_ns: 0.0,
                end_ns: 0.0,
            },
            Event::KernelBegin { name: "k".into() },
            Event::KernelEnd {
                name: "k".into(),
                stream: StreamId(0),
                start_ns: 0.0,
                end_ns: 0.0,
            },
        ];
        for (slot, ev) in evs.iter().enumerate() {
            assert_eq!(kind_slot(ev), slot);
            assert_eq!(KIND_NAMES[slot], ev.kind_name());
        }
        assert_eq!(KIND_NAMES[COMPUTE_SLOT], COMPUTE_KIND);
    }

    #[test]
    fn kernels_intern_by_content_whatever_the_pointer() {
        let a: Rc<str> = "k".into();
        let b: Rc<str> = "k".into();
        let host = String::from(HOST_KERNEL);
        let mut ks = Kernels::new();
        let id = ks.id(&a);
        assert_eq!(ks.id(&b), id);
        assert_eq!(ks.id(&a), id);
        assert_eq!(ks.id(&host), 0, "a kernel named <host> is the host");
        assert_eq!((ks.name(id), ks.len()), ("k", 2));
    }
}
