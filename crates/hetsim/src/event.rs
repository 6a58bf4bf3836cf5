//! The structured event stream: every driver-level action the simulator
//! takes, stamped with its simulated-clock time.
//!
//! Where [`crate::stats::Stats`] aggregates *how many* faults and
//! migrations a run took, the event stream records *when* each one
//! happened and on which stream — the raw material for timeline traces
//! (`chrome://tracing`), per-phase breakdowns, and heatmaps. Events are
//! delivered through [`MemHook::on_event`](crate::hook::MemHook::on_event)
//! so any hook can observe them; [`EventLog`] is the standard recorder, a
//! bounded ring buffer that drops the oldest events under pressure rather
//! than growing without bound. The ring is shared copy-on-write: a
//! [`EventLog::snapshot`] costs one reference count, and recording into a
//! ring a snapshot still shares copies it once.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::clock::{StreamId, DEFAULT_STREAM};
use crate::hook::MemHook;
use crate::types::{Addr, AllocKind, CopyKind, Device, MemAdvise};

/// One simulator action. Span-like events (kernels, copies, prefetches)
/// carry their own `[start_ns, end_ns]` interval; point events are located
/// solely by the [`TimedEvent`] timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A heap allocation.
    Alloc {
        base: Addr,
        bytes: u64,
        kind: AllocKind,
    },
    /// An allocation was freed.
    Free { base: Addr },
    /// A managed-memory access faulted (`write` distinguishes the paper's
    /// read vs write fault groups).
    PageFault { dev: Device, page: u64, write: bool },
    /// A page migrated to `to` (on-demand; prefetch traffic is reported
    /// as [`Event::Prefetch`]).
    Migration { page: u64, to: Device, bytes: u64 },
    /// A ReadMostly page was duplicated into `to`.
    ReadDup { page: u64, to: Device, bytes: u64 },
    /// A write invalidated `copies` duplicated copies of `page`.
    Invalidate { page: u64, copies: u32 },
    /// Oversubscription evicted `pages` pages (`bytes` of GPU residency
    /// released). `writeback_pages`/`writeback_bytes` count the dirty
    /// subset that additionally migrated back to the host — that traffic
    /// is folded into `Stats::migrations_d2h`/`bytes_migrated` but gets no
    /// separate [`Event::Migration`], so consumers reconstructing totals
    /// from the stream must read it from here.
    Evict {
        pages: u32,
        bytes: u64,
        writeback_pages: u32,
        writeback_bytes: u64,
    },
    /// An explicit `cudaMemcpy`/`cudaMemcpyAsync`.
    Memcpy {
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        stream: StreamId,
        start_ns: f64,
        end_ns: f64,
    },
    /// `cudaMemAdvise` over a range.
    Advise {
        addr: Addr,
        bytes: u64,
        advice: MemAdvise,
    },
    /// `cudaMemPrefetchAsync` over a range. `bytes` is the requested
    /// range; `pages`/`bytes_moved` are what actually migrated (each page
    /// counted as a migration in `Stats`, with no separate
    /// [`Event::Migration`] emitted).
    Prefetch {
        addr: Addr,
        bytes: u64,
        pages: u32,
        bytes_moved: u64,
        to: Device,
        stream: StreamId,
        start_ns: f64,
        end_ns: f64,
    },
    /// A kernel entered execution (host-side launch point).
    KernelBegin { name: String },
    /// A kernel completed; the span is its scheduled execution interval on
    /// `stream`.
    KernelEnd {
        name: String,
        stream: StreamId,
        start_ns: f64,
        end_ns: f64,
    },
}

impl Event {
    /// The `[start_ns, end_ns]` interval of a span event (kernel, memcpy,
    /// prefetch); `None` for point events, which are located solely by the
    /// [`TimedEvent`] stamp. Dependency-DAG consumers use this to place
    /// stream-resident work without re-deriving spans from begin/end pairs.
    pub fn span(&self) -> Option<(f64, f64)> {
        match self {
            Event::Memcpy {
                start_ns, end_ns, ..
            }
            | Event::Prefetch {
                start_ns, end_ns, ..
            }
            | Event::KernelEnd {
                start_ns, end_ns, ..
            } => Some((*start_ns, *end_ns)),
            _ => None,
        }
    }

    /// The stream the event itself executed on, when the event carries one
    /// (asynchronous spans); point events inherit their causing context's
    /// stream ([`AttrCtx::stream`]).
    pub fn stream(&self) -> Option<StreamId> {
        match self {
            Event::Memcpy { stream, .. }
            | Event::Prefetch { stream, .. }
            | Event::KernelEnd { stream, .. } => Some(*stream),
            _ => None,
        }
    }

    /// The managed page the event concerns, for the fault → migration →
    /// access causality chain (`None` for range- or span-level events).
    pub fn page(&self) -> Option<u64> {
        match self {
            Event::PageFault { page, .. }
            | Event::Migration { page, .. }
            | Event::ReadDup { page, .. }
            | Event::Invalidate { page, .. } => Some(*page),
            _ => None,
        }
    }

    /// Stable lowercase tag for grouping and serialization.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::Alloc { .. } => "alloc",
            Event::Free { .. } => "free",
            Event::PageFault { .. } => "page_fault",
            Event::Migration { .. } => "migration",
            Event::ReadDup { .. } => "read_dup",
            Event::Invalidate { .. } => "invalidate",
            Event::Evict { .. } => "evict",
            Event::Memcpy { .. } => "memcpy",
            Event::Advise { .. } => "advise",
            Event::Prefetch { .. } => "prefetch",
            Event::KernelBegin { .. } => "kernel_begin",
            Event::KernelEnd { .. } => "kernel_end",
        }
    }
}

/// Attribution context: *who caused* an event. The machine stamps every
/// event with the execution context that was active when it fired, so
/// downstream profilers can charge costs to (kernel × allocation) pairs
/// without re-deriving spans from the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrCtx {
    /// Kernel executing when the event fired; `None` means host code.
    /// Shared `Rc<str>` so per-event stamping stays allocation-free.
    pub kernel: Option<Rc<str>>,
    /// Monotonic launch sequence number distinguishing repeat launches of
    /// the same kernel name (0 when `kernel` is `None`).
    pub launch_seq: u64,
    /// Stream the causing context ran on.
    pub stream: StreamId,
    /// Base address of the allocation the event concerns, when known.
    pub alloc: Option<Addr>,
}

impl AttrCtx {
    /// Host context: no kernel, default stream, no allocation.
    pub fn host() -> Self {
        AttrCtx {
            kernel: None,
            launch_seq: 0,
            stream: DEFAULT_STREAM,
            alloc: None,
        }
    }

    /// Kernel name as a plain `&str`, if any.
    pub fn kernel_name(&self) -> Option<&str> {
        self.kernel.as_deref()
    }
}

impl Default for AttrCtx {
    fn default() -> Self {
        Self::host()
    }
}

/// An [`Event`] stamped with the simulated time (ns) it was recorded at.
/// For span events the stamp equals `end_ns`; for events raised inside a
/// kernel it is the launch time plus the serial driver cost accumulated so
/// far (the machine only settles the kernel's total duration at the end).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    pub t_ns: f64,
    /// Simulated nanoseconds this event cost the run: the serial driver
    /// charge for point events, the span duration for span events, zero
    /// for free bookkeeping events (advice, kernel-begin markers).
    pub cost_ns: f64,
    /// Who caused the event.
    pub ctx: AttrCtx,
    pub event: Event,
}

impl TimedEvent {
    /// The stream this event's work executed on: the span's own stream for
    /// asynchronous span events, the causing context's stream otherwise.
    /// This is the timeline key dependency-DAG builders order events by.
    pub fn effective_stream(&self) -> StreamId {
        self.event.stream().unwrap_or(self.ctx.stream)
    }
}

/// Bounded ring-buffer recorder for the event stream. Attach it to a
/// [`Machine`](crate::machine::Machine), alone or alongside a tracer; it
/// observes passively and never alters simulation results or timing.
/// Cloning a log shares its ring; the first event either copy records
/// afterwards un-shares it.
#[derive(Debug, Clone)]
pub struct EventLog {
    buf: Rc<VecDeque<TimedEvent>>,
    cap: usize,
    total: u64,
    dropped: u64,
}

impl EventLog {
    /// Default ring capacity — enough for every workload in this repo
    /// while bounding memory for adversarial access patterns.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A ring holding at most `cap` events (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "event log capacity must be at least 1");
        EventLog {
            buf: Rc::new(VecDeque::with_capacity(cap.min(4096))),
            cap,
            total: 0,
            dropped: 0,
        }
    }

    fn record(&mut self, ev: &TimedEvent) {
        let buf = Rc::make_mut(&mut self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped += 1;
        }
        buf.push_back(ev.clone());
        self.total += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// The retained events, oldest first, shared with the log in O(1).
    /// Events recorded later do not reach the snapshot: the log copies
    /// the ring before its next write while a snapshot is alive.
    pub fn snapshot(&self) -> Rc<VecDeque<TimedEvent>> {
        Rc::clone(&self.buf)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events recorded over the log's lifetime (including dropped ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events evicted from the ring by overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events with the given [`Event::kind_name`].
    pub fn count_of(&self, kind: &str) -> usize {
        self.buf
            .iter()
            .filter(|e| e.event.kind_name() == kind)
            .count()
    }

    /// Forget everything (capacity is kept). Snapshots keep their events.
    pub fn clear(&mut self) {
        match Rc::get_mut(&mut self.buf) {
            Some(buf) => buf.clear(),
            None => self.buf = Rc::default(),
        }
        self.total = 0;
        self.dropped = 0;
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl MemHook for EventLog {
    // The log listens only to the structured stream: word traffic would
    // flood the ring and is already covered by Stats.
    fn on_event(&mut self, ev: &TimedEvent) {
        self.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> TimedEvent {
        TimedEvent {
            t_ns: t,
            cost_ns: 0.0,
            ctx: AttrCtx::host(),
            event: Event::Free { base: t as Addr },
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut log = EventLog::with_capacity(3);
        for i in 0..5 {
            MemHook::on_event(&mut log, &ev(i as f64));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        assert_eq!(log.dropped(), 2);
        let ts: Vec<f64> = log.events().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn count_of_filters_by_kind() {
        let mut log = EventLog::new();
        MemHook::on_event(&mut log, &ev(1.0));
        MemHook::on_event(
            &mut log,
            &TimedEvent {
                t_ns: 2.0,
                cost_ns: 0.0,
                ctx: AttrCtx::host(),
                event: Event::KernelBegin { name: "k".into() },
            },
        );
        assert_eq!(log.count_of("free"), 1);
        assert_eq!(log.count_of("kernel_begin"), 1);
        assert_eq!(log.count_of("memcpy"), 0);
    }

    #[test]
    fn clear_resets_counters() {
        let mut log = EventLog::with_capacity(1);
        MemHook::on_event(&mut log, &ev(1.0));
        MemHook::on_event(&mut log, &ev(2.0));
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.total_recorded(), 0);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.capacity(), 1);
    }

    fn stamps<'a>(events: impl IntoIterator<Item = &'a TimedEvent>) -> Vec<f64> {
        events.into_iter().map(|e| e.t_ns).collect()
    }

    #[test]
    fn recording_after_a_snapshot_leaves_the_snapshot_unchanged() {
        let mut log = EventLog::with_capacity(3);
        for i in 0..2 {
            MemHook::on_event(&mut log, &ev(i as f64));
        }
        let snap = log.snapshot();
        // The third event fills the ring, the next two drop the oldest.
        for i in 2..5 {
            MemHook::on_event(&mut log, &ev(i as f64));
        }
        assert_eq!(stamps(snap.iter()), vec![0.0, 1.0]);
        assert_eq!(stamps(log.events()), vec![2.0, 3.0, 4.0]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        assert_eq!(log.dropped(), 2);

        // A snapshot taken once the ring is full still sees drop-oldest
        // only in the log.
        let full = log.snapshot();
        MemHook::on_event(&mut log, &ev(5.0));
        assert_eq!(stamps(full.iter()), vec![2.0, 3.0, 4.0]);
        assert_eq!(stamps(log.events()), vec![3.0, 4.0, 5.0]);
        assert_eq!((log.total_recorded(), log.dropped()), (6, 3));
    }

    #[test]
    fn clear_leaves_a_snapshot_intact() {
        let mut log = EventLog::with_capacity(4);
        for i in 0..3 {
            MemHook::on_event(&mut log, &ev(i as f64));
        }
        let snap = log.snapshot();
        log.clear();
        assert!(log.is_empty());
        assert_eq!(stamps(snap.iter()), vec![0.0, 1.0, 2.0]);
        MemHook::on_event(&mut log, &ev(9.0));
        assert_eq!(stamps(log.events()), vec![9.0]);
        assert_eq!(stamps(snap.iter()), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn a_cloned_log_that_records_diverges_from_its_source() {
        let mut src = EventLog::with_capacity(2);
        MemHook::on_event(&mut src, &ev(0.0));
        let mut copy = src.clone();
        MemHook::on_event(&mut copy, &ev(1.0));
        MemHook::on_event(&mut copy, &ev(2.0));
        MemHook::on_event(&mut src, &ev(7.0));
        assert_eq!(stamps(src.events()), vec![0.0, 7.0]);
        assert_eq!((src.total_recorded(), src.dropped()), (2, 0));
        assert_eq!(stamps(copy.events()), vec![1.0, 2.0]);
        assert_eq!((copy.total_recorded(), copy.dropped()), (3, 1));
    }

    #[test]
    fn word_level_callbacks_are_ignored() {
        let mut log = EventLog::new();
        log.on_access(Device::Cpu, 0x1000, 8, 1, crate::AccessKind::Read);
        log.on_access(Device::Cpu, 0x1000, 8, 64, crate::AccessKind::Write);
        log.on_op(&crate::hook::Op::Launch {
            name: "k",
            stream: DEFAULT_STREAM,
            seq: 1,
        });
        assert!(log.is_empty());
    }

    #[test]
    fn kind_names_are_stable() {
        let e = Event::Migration {
            page: 1,
            to: Device::GPU0,
            bytes: 4096,
        };
        assert_eq!(e.kind_name(), "migration");
    }

    #[test]
    fn dag_breadcrumbs_expose_span_stream_and_page() {
        let k = Event::KernelEnd {
            name: "k".into(),
            stream: StreamId(3),
            start_ns: 10.0,
            end_ns: 25.0,
        };
        assert_eq!(k.span(), Some((10.0, 25.0)));
        assert_eq!(k.stream(), Some(StreamId(3)));
        assert_eq!(k.page(), None);

        let f = Event::PageFault {
            dev: Device::GPU0,
            page: 7,
            write: true,
        };
        assert_eq!(f.span(), None);
        assert_eq!(f.stream(), None);
        assert_eq!(f.page(), Some(7));

        let te = TimedEvent {
            t_ns: 1.0,
            cost_ns: 0.0,
            ctx: AttrCtx {
                stream: StreamId(9),
                ..AttrCtx::host()
            },
            event: f,
        };
        assert_eq!(te.effective_stream(), StreamId(9));
        let te_span = TimedEvent {
            t_ns: 25.0,
            cost_ns: 15.0,
            ctx: AttrCtx::host(),
            event: k,
        };
        assert_eq!(te_span.effective_stream(), StreamId(3));
    }
}
