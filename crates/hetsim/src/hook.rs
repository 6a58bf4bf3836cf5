//! The instrumentation hook: the seam where XPlacer's runtime attaches.
//!
//! In the paper, the ROSE pass rewrites source so every heap access calls
//! `traceR`/`traceW`/`traceRW` and every CUDA call goes through a wrapper.
//! Here the simulated machine plays the role of the instrumented binary:
//! every attached hook sees [`on_access`](MemHook::on_access) where the
//! instrumented source would call a `trace*` function, and
//! [`on_op`](MemHook::on_op) where it would call a wrapper. Running with
//! no hook attached corresponds to the uninstrumented baseline (Table III
//! measures the difference).

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock::StreamId;
use crate::event::TimedEvent;
use crate::types::{AccessKind, Addr, AllocKind, CopyKind, Device};

/// Everything the machine reports that is not a heap access: the CUDA
/// calls the paper's wrappers intercept, plus the ordering and source
/// context checkers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<'a> {
    /// A heap allocation of `size` bytes at `base` via `kind`.
    Alloc {
        base: Addr,
        size: u64,
        kind: AllocKind,
    },
    /// `free`/`cudaFree` of the allocation at `base`.
    Free { base: Addr },
    /// A human-readable name (the declared variable) for the allocation
    /// at `base`, reported right after its [`Op::Alloc`].
    AllocLabel { base: Addr, label: &'a str },
    /// A `cudaMemcpy` issued on `stream`; `blocking` says whether the
    /// host waited for its completion.
    Memcpy {
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        stream: StreamId,
        blocking: bool,
    },
    /// A kernel launch on `stream` with global launch sequence number
    /// `seq` (the `replace kernel-launch` wrapper).
    Launch {
        name: &'a str,
        stream: StreamId,
        seq: u64,
    },
    /// A kernel completed; `blocking` says whether the host waited for it
    /// (a synchronous launch) or it retired asynchronously on its stream.
    KernelEnd {
        name: &'a str,
        stream: StreamId,
        blocking: bool,
    },
    /// `cudaStreamSynchronize(stream)`: the host joined with everything
    /// previously enqueued on `stream`.
    StreamSync { stream: StreamId },
    /// `cudaDeviceSynchronize()`: the host joined with every stream.
    DeviceSync,
    /// A harness write that bypasses the simulated access path (`poke`) —
    /// input setup, not program behavior. Validity checkers treat it as
    /// initialization; placement tracers ignore it.
    DebugWrite { addr: Addr, bytes: u64 },
    /// The interpreter is about to execute the statement at `line:col`
    /// (1-based MiniCU source position), so checkers can attribute the
    /// next accesses to a source location.
    Site { line: u32, col: u32 },
}

/// Observer of simulated memory events. Every callback defaults to a
/// no-op, so a hook implements only what it listens to.
pub trait MemHook {
    /// `count` contiguous elements of `elem_size` bytes starting at
    /// `addr`, all accessed by `dev` with the same `kind` (`traceR`,
    /// `traceW`, `traceRW`). A per-word access is `count == 1`; the
    /// machine's bulk fast path (`read_range` and friends) reports a whole
    /// range at once. The machine has validated the range and never
    /// reports an empty one.
    fn on_access(&mut self, dev: Device, addr: Addr, elem_size: u32, count: u64, kind: AccessKind) {
        let _ = (dev, addr, elem_size, count, kind);
    }

    /// A runtime call other than a heap access; see [`Op`].
    fn on_op(&mut self, op: &Op) {
        let _ = op;
    }

    /// A timestamped structured event (fault, migration, kernel span, ...).
    /// The driver events of an access fire before its
    /// [`on_access`](Self::on_access); the event of an op fires after its
    /// [`on_op`](Self::on_op). See [`crate::event::Event`].
    fn on_event(&mut self, ev: &TimedEvent) {
        let _ = ev;
    }
}

/// Self-overhead accounting for one observer: how much *wall-clock* time
/// the simulation spent inside its callbacks, and how often it was called.
/// The simulated clock never sees this time (observers are pure); the
/// meter exists so a run can report what its own instrumentation cost —
/// the Table III question, asked of the observers instead of the tracer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookMeter {
    /// Callback invocations forwarded to the inner hook.
    pub calls: u64,
    /// Wall-clock nanoseconds spent inside those callbacks.
    pub wall_ns: u64,
}

impl HookMeter {
    /// Mean wall nanoseconds per forwarded callback (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.calls as f64
        }
    }
}

/// Wraps another hook and meters the wall time spent in its callbacks.
pub struct MeteredHook {
    inner: Rc<RefCell<dyn MemHook>>,
    meter: Rc<RefCell<HookMeter>>,
}

impl MeteredHook {
    /// Wrap `inner`; the returned meter handle stays readable after the
    /// hook has been attached to a machine.
    pub fn new(inner: Rc<RefCell<dyn MemHook>>) -> (Self, Rc<RefCell<HookMeter>>) {
        let meter = Rc::new(RefCell::new(HookMeter::default()));
        (
            MeteredHook {
                inner,
                meter: meter.clone(),
            },
            meter,
        )
    }

    fn timed(&self, f: impl FnOnce(&mut dyn MemHook)) {
        let t0 = std::time::Instant::now();
        f(&mut *self.inner.borrow_mut());
        let mut m = self.meter.borrow_mut();
        m.calls += 1;
        m.wall_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl MemHook for MeteredHook {
    fn on_access(&mut self, dev: Device, addr: Addr, elem_size: u32, count: u64, kind: AccessKind) {
        self.timed(|h| h.on_access(dev, addr, elem_size, count, kind));
    }
    fn on_op(&mut self, op: &Op) {
        self.timed(|h| h.on_op(op));
    }
    fn on_event(&mut self, ev: &TimedEvent) {
        self.timed(|h| h.on_event(ev));
    }
}

/// A hook that counts events — useful for tests and overhead ablations.
/// Accesses count per element, so a range and its per-word decomposition
/// count the same.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingHook {
    pub allocs: u64,
    pub frees: u64,
    pub reads: u64,
    pub writes: u64,
    pub rmws: u64,
    pub memcpys: u64,
    pub launches: u64,
    pub kernel_ends: u64,
}

impl MemHook for CountingHook {
    fn on_access(&mut self, _: Device, _: Addr, _: u32, count: u64, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.reads += count,
            AccessKind::Write => self.writes += count,
            AccessKind::ReadWrite => self.rmws += count,
        }
    }

    fn on_op(&mut self, op: &Op) {
        match op {
            Op::Alloc { .. } => self.allocs += 1,
            Op::Free { .. } => self.frees += 1,
            Op::Memcpy { .. } => self.memcpys += 1,
            Op::Launch { .. } => self.launches += 1,
            Op::KernelEnd { .. } => self.kernel_ends += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::DEFAULT_STREAM;
    use crate::machine::Machine;
    use crate::platform::intel_pascal;

    const LAUNCH: Op = Op::Launch {
        name: "k",
        stream: DEFAULT_STREAM,
        seq: 1,
    };
    const END: Op = Op::KernelEnd {
        name: "k",
        stream: DEFAULT_STREAM,
        blocking: true,
    };

    #[test]
    fn counting_hook_counts() {
        let mut h = CountingHook::default();
        h.on_op(&Op::Alloc {
            base: 0x1000,
            size: 64,
            kind: AllocKind::Managed,
        });
        h.on_access(Device::Cpu, 0x1000, 4, 1, AccessKind::Read);
        h.on_access(Device::GPU0, 0x1004, 4, 1, AccessKind::Write);
        h.on_access(Device::Cpu, 0x1008, 4, 3, AccessKind::ReadWrite);
        h.on_op(&Op::Memcpy {
            dst: 0x2000,
            src: 0x1000,
            bytes: 64,
            kind: CopyKind::HostToDevice,
            stream: DEFAULT_STREAM,
            blocking: true,
        });
        h.on_op(&LAUNCH);
        h.on_op(&END);
        h.on_op(&Op::DeviceSync);
        h.on_op(&Op::Free { base: 0x1000 });
        assert_eq!(
            h,
            CountingHook {
                allocs: 1,
                frees: 1,
                reads: 1,
                writes: 1,
                rmws: 3,
                memcpys: 1,
                launches: 1,
                kernel_ends: 1,
            }
        );
    }

    #[test]
    fn kernel_end_is_symmetric_with_launch() {
        let mut h = CountingHook::default();
        for _ in 0..3 {
            h.on_op(&LAUNCH);
            h.on_op(&END);
        }
        assert_eq!(h.launches, 3);
        assert_eq!(h.kernel_ends, 3);
    }

    /// Records every access callback as it arrives.
    #[derive(Default)]
    struct RangeSpy {
        accesses: Vec<(Device, Addr, u32, u64, AccessKind)>,
    }

    impl MemHook for RangeSpy {
        fn on_access(&mut self, dev: Device, addr: Addr, es: u32, n: u64, k: AccessKind) {
            self.accesses.push((dev, addr, es, n, k));
        }
    }

    /// A machine with `hooks` added in order; its hook list is the fan-out.
    fn machine_with(hooks: &[Rc<RefCell<dyn MemHook>>]) -> Machine {
        let mut m = Machine::new(intel_pascal());
        for h in hooks {
            m.add_hook(h.clone());
        }
        m
    }

    #[test]
    fn fanout_broadcasts_to_all_hooks() {
        let a = Rc::new(RefCell::new(CountingHook::default()));
        let b = Rc::new(RefCell::new(CountingHook::default()));
        let mut m = machine_with(&[a.clone(), b.clone()]);
        let p = m.alloc_managed::<f64>(1);
        m.rmw(p, 0, |v: f64| v + 1.0);
        m.launch("k", 1, |_, _| {});
        for h in [&a, &b] {
            let c = h.borrow();
            assert_eq!(c.allocs, 1);
            // Forwarded as one RMW, not decomposed into read + write.
            assert_eq!((c.rmws, c.reads, c.writes), (1, 0, 0));
            assert_eq!((c.launches, c.kernel_ends), (1, 1));
        }
    }

    #[test]
    fn fanout_forwards_structured_events() {
        use crate::event::{Event, EventLog};
        let a = Rc::new(RefCell::new(EventLog::new()));
        let b = Rc::new(RefCell::new(EventLog::new()));
        let mut m = machine_with(&[a.clone(), b.clone()]);
        let p = m.alloc_managed::<f64>(1);
        m.free(p);
        for log in [&a, &b] {
            let log = log.borrow();
            let events: Vec<&Event> = log.events().map(|e| &e.event).collect();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind_name(), "alloc");
            assert_eq!(*events[1], Event::Free { base: p.addr });
        }
    }

    #[test]
    fn default_access_range_decomposes_per_element() {
        // Bulk off is the per-word reference mode: each element of a range
        // reaches the hooks as its own count-1 access. A per-element
        // counter totals the same either way.
        let run = |bulk: bool| {
            let spy = Rc::new(RefCell::new(RangeSpy::default()));
            let count = Rc::new(RefCell::new(CountingHook::default()));
            let mut m = machine_with(&[spy.clone(), count.clone()]);
            m.set_bulk_enabled(bulk);
            let p = m.alloc_managed::<f64>(8);
            m.read_range(p.addr, 8, 5).unwrap();
            m.write_range(p.addr, 8, 3).unwrap();
            m.rw_range(p.addr + 8, 4, 2).unwrap();
            let accesses = std::mem::take(&mut spy.borrow_mut().accesses);
            let counts = count.borrow().clone();
            (p.addr, accesses, counts)
        };
        let (base, words, per_word) = run(false);
        assert_eq!(words.len(), 10);
        assert!(words.iter().all(|a| a.0 == Device::Cpu && a.3 == 1));
        let addrs: Vec<Addr> = words.iter().map(|a| a.1 - base).collect();
        assert_eq!(addrs, [0, 8, 16, 24, 32, 0, 8, 16, 8, 12]);
        let (_, ranges, bulk) = run(true);
        assert_eq!(ranges.len(), 3);
        assert_eq!((bulk.reads, bulk.writes, bulk.rmws), (5, 3, 2));
        assert_eq!(per_word, bulk);
    }

    #[test]
    fn fanout_forwards_access_range_as_one_call() {
        // Every added hook sees a bulk range as one call, not the per-word
        // decomposition.
        let spy = Rc::new(RefCell::new(RangeSpy::default()));
        let count = Rc::new(RefCell::new(CountingHook::default()));
        let mut m = machine_with(&[spy.clone(), count.clone()]);
        let p = m.alloc_managed::<u32>(7);
        m.launch("k", 1, |_, m| m.read_range(p.addr, 4, 7).unwrap());
        assert_eq!(
            spy.borrow().accesses,
            vec![(Device::GPU0, p.addr, 4, 7, AccessKind::Read)]
        );
        // The per-element counter counts the range's seven reads.
        assert_eq!(count.borrow().reads, 7);
    }

    #[test]
    fn metered_hook_forwards_and_accounts() {
        let inner = Rc::new(RefCell::new(CountingHook::default()));
        let (metered, meter) = MeteredHook::new(inner.clone());
        let mut h = metered;
        h.on_op(&Op::Alloc {
            base: 0x1000,
            size: 64,
            kind: AllocKind::Managed,
        });
        h.on_access(Device::Cpu, 0x1000, 8, 4, AccessKind::Read);
        h.on_op(&LAUNCH);
        h.on_op(&Op::Free { base: 0x1000 });
        let c = inner.borrow();
        assert_eq!((c.allocs, c.reads, c.launches, c.frees), (1, 4, 1, 1));
        // One call per forwarded callback, not per element of the range.
        assert_eq!(meter.borrow().calls, 4);
        assert!(meter.borrow().mean_ns() >= 0.0);
    }
}
