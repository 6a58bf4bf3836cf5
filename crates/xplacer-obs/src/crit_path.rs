//! Causal critical-path blame: which (kernel × allocation × event-kind)
//! cells the run's end-to-end simulated time is actually spent in.
//!
//! The profiler ([`crate::profile`]) answers "how much did each cell
//! cost"; this module answers the sharper question "how much of the
//! *elapsed wall-clock* is each cell responsible for". The two differ as
//! soon as streams overlap: a memcpy hidden behind a kernel costs
//! bandwidth but zero elapsed time, and blaming it would send the
//! programmer chasing a free lunch.
//!
//! # DAG construction
//!
//! The attributed event stream already encodes the dependency structure
//! the simulator executed under (see DESIGN §16):
//!
//! * **Per-stream program order** — events on one stream never overlap;
//!   each stream is rebuilt as a sequence of non-overlapping segments.
//! * **Kernel-span containment** — an in-kernel event (`AttrCtx.kernel`,
//!   `launch_seq`) is a sub-interval of its kernel's `[start, end]` span;
//!   the span remainder is the kernel's compute.
//! * **Fault → migration → access causality** — the driver charges fault
//!   service, transfer, invalidation, and writeback serially inside the
//!   faulting context, so consecutive same-stamp events partition one
//!   access's serial cost in emission order.
//!
//! The longest path is then extracted by a backward sweep from
//! `elapsed_ns`: at every instant the segment that *finishes last* is the
//! one the run was waiting on; segments entirely hidden behind the chosen
//! path (concurrent streams) receive zero blame. Time not covered by any
//! event is host compute — the simulator advances the clock for host word
//! accesses without emitting events — and is blamed on
//! `(<host>, (no-alloc), compute)`.
//!
//! # Exact conservation
//!
//! Blame is accounted in integer **ticks** at [`TICKS_PER_NS`] = 1024 per
//! nanosecond (a power of two). The sweep partitions `[0, path_ticks]`
//! exactly, so tick blame sums to the path length as integers; converting
//! `m` ticks to `m / 1024.0` ns is exact in IEEE-754 for every `m` below
//! 2^53, hence the f64 `blame_ns` column sums **bit-exactly** to
//! [`BlameReport::path_ns`] in any association order. `path_ns` itself is
//! `elapsed_ns` quantized to the tick grid (within 2^-11 ns of the raw
//! value).

use std::collections::{BTreeMap, HashMap};

use hetsim::{Event, KernelSpan};

use crate::cells::{kind_slot, label_of, Cells, Kernels, COMPUTE_SLOT, KINDS, KIND_NAMES};
use crate::events::EventTrace;
use crate::json::Json;
use crate::profile::HOST_KERNEL;

/// Schema tag of the blame JSON document.
pub const BLAME_SCHEMA: &str = "xplacer-blame/1";

/// Integer accounting resolution: ticks per simulated nanosecond. A power
/// of two, so `ticks as f64 / TICKS_PER_NS` is exact (no rounding) for
/// every tick count below 2^53.
pub const TICKS_PER_NS: f64 = 1024.0;

/// Pseudo event-kind for span time not attributed to any driver event
/// (kernel launch overhead + parallel compute, and uninstrumented host
/// word time between events).
pub const COMPUTE_KIND: &str = "compute";

/// Event kinds a placement fix (advice, prefetch, pinning) could remove:
/// the set zeroed per-allocation by the what-if column.
pub const WHAT_IF_KINDS: &[&str] = &[
    "page_fault",
    "migration",
    "read_dup",
    "invalidate",
    "evict",
    "prefetch",
    "memcpy",
];

pub(crate) fn ticks(ns: f64) -> i64 {
    (ns * TICKS_PER_NS).round() as i64
}

pub(crate) fn ns(t: u64) -> f64 {
    t as f64 / TICKS_PER_NS
}

/// One blame row: critical-path time charged to a (kernel, allocation,
/// event-kind) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameRow {
    /// Kernel name, or [`HOST_KERNEL`] for host-context work.
    pub kernel: String,
    /// Allocation base, when the events carried one.
    pub alloc: Option<u64>,
    /// Display label for the allocation
    /// ([`NO_ALLOC`](crate::profile::NO_ALLOC) when `alloc` is `None`, hex
    /// base when unnamed).
    pub label: String,
    /// Event kind, or [`COMPUTE_KIND`] for unattributed span/host time.
    pub kind: String,
    /// Critical-path blame in integer ticks (exact).
    pub blame_ticks: u64,
    /// `blame_ticks / 1024.0` — exact, so rows sum bit-exactly to
    /// [`BlameReport::path_ns`].
    pub blame_ns: f64,
    /// Number of distinct path segments charged to this row.
    pub segments: u64,
}

/// One what-if line: the upper bound a single allocation's placement fix
/// could save.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    pub base: u64,
    pub label: String,
    /// Critical-path ticks this allocation's [`WHAT_IF_KINDS`] events hold.
    pub savable_ticks: u64,
    pub savable_ns: f64,
    /// `path_ns - savable_ns`: the best path a fix of this allocation
    /// alone could reach.
    pub path_if_fixed_ns: f64,
}

/// The critical-path blame report of one run.
#[derive(Debug, Clone)]
pub struct BlameReport {
    pub workload: String,
    pub platform: String,
    /// Raw end-to-end simulated time of the run.
    pub elapsed_ns: f64,
    /// `elapsed_ns` on the tick grid: the exact total the rows partition.
    pub path_ticks: u64,
    /// `path_ticks / 1024.0`; Σ `rows[i].blame_ns` equals this bit-exactly.
    pub path_ns: f64,
    pub events_recorded: u64,
    pub events_dropped: u64,
    /// Blame rows, largest first.
    pub rows: Vec<BlameRow>,
    /// Per-allocation savings bounds, largest first.
    pub what_if: Vec<WhatIf>,
}

/// A half-open interval `[start, end)` of the timeline owned by one row
/// key (`cell * KINDS + kind slot`).
struct Seg {
    start: i64,
    end: i64,
    key: usize,
}

/// An in-kernel event waiting for its launch's span: (key, cost, stamp),
/// in ticks.
type Sub = (usize, i64, i64);

/// In-kernel events buffered per launch `(kernel id, launch_seq)` until
/// the launch's span closes. Buffers sit in a slab so the last-hit cache
/// can hold the current one by index.
#[derive(Default)]
struct Pending {
    open: HashMap<(u32, u64), usize>,
    bufs: Vec<Vec<Sub>>,
    free: Vec<usize>,
    last: Option<((u32, u64), usize)>,
}

impl Pending {
    fn push(&mut self, launch: (u32, u64), sub: Sub) {
        let i = match self.last {
            Some((l, i)) if l == launch => i,
            _ => {
                let i = match self.open.get(&launch) {
                    Some(&i) => i,
                    None => {
                        let i = self.free.pop().unwrap_or_else(|| {
                            self.bufs.push(Vec::new());
                            self.bufs.len() - 1
                        });
                        self.open.insert(launch, i);
                        i
                    }
                };
                self.last = Some((launch, i));
                i
            }
        };
        self.bufs[i].push(sub);
    }

    /// Remove a launch's buffer (empty when nothing is pending for it).
    fn take(&mut self, launch: (u32, u64)) -> Vec<Sub> {
        let Some(i) = self.open.remove(&launch) else {
            return Vec::new();
        };
        if matches!(self.last, Some((l, _)) if l == launch) {
            self.last = None;
        }
        self.free.push(i);
        std::mem::take(&mut self.bufs[i])
    }
}

impl BlameReport {
    /// Reconstruct the dependency DAG from `trace` and charge the longest
    /// path. Pure and deterministic: identical traces yield byte-identical
    /// reports.
    pub fn build(trace: &EventTrace) -> BlameReport {
        let path_ticks = ticks(trace.elapsed_ns).max(0);

        // Row keys are interned cells times kind slots; strings are built
        // only for the rows that end up with blame.
        let mut kernels = Kernels::new();
        let mut cells = Cells::new();
        let host_compute = cells.id(kernels.id(HOST_KERNEL), None) * KINDS + COMPUTE_SLOT;

        // ---- timeline reconstruction -------------------------------
        // Per-stream pack cursor: streams are sequential, so segments on
        // one stream never overlap; packing also absorbs the two stamp
        // conventions (host accesses stamp before the clock charge,
        // lifecycle events after it).
        let mut cursors: BTreeMap<usize, i64> = BTreeMap::new();
        let mut pending = Pending::default();
        let mut segs: Vec<Seg> = Vec::new();

        for te in trace.events.iter() {
            match &te.event {
                Event::KernelBegin { .. } => {} // zero-cost launch marker
                Event::KernelEnd(span) => {
                    let KernelSpan {
                        name,
                        stream,
                        start_ns,
                        end_ns,
                    } = &**span;
                    // Kernel-span containment: the span is partitioned
                    // into its attributed sub-events (packed in emission
                    // order from the start) plus a compute remainder.
                    let kernel = kernels.id(name);
                    let s = ticks(*start_ns).max(0);
                    let e = ticks(*end_ns).max(s);
                    let mut pos = s;
                    for (key, cost, _) in pending.take((kernel, te.ctx.launch_seq)) {
                        let c = cost.clamp(0, e - pos);
                        if c > 0 {
                            segs.push(Seg {
                                start: pos,
                                end: pos + c,
                                key,
                            });
                            pos += c;
                        }
                    }
                    if e > pos {
                        segs.push(Seg {
                            start: pos,
                            end: e,
                            key: cells.id(kernel, None) * KINDS + COMPUTE_SLOT,
                        });
                    }
                    let cur = cursors.entry(stream.0).or_insert(0);
                    *cur = (*cur).max(e);
                }
                ev => {
                    let kernel = kernels.of(&te.ctx);
                    let key = cells.id(kernel, te.ctx.alloc) * KINDS + kind_slot(ev);
                    if te.ctx.kernel.is_some() {
                        // In-kernel event: buffer until its span closes.
                        let sub = (key, ticks(te.cost_ns).max(0), ticks(te.t_ns));
                        pending.push((kernel, te.ctx.launch_seq), sub);
                        continue;
                    }
                    let cur = cursors.entry(te.effective_stream().0).or_insert(0);
                    if let Some((s0, e0)) = ev.span() {
                        // Host-issued span (memcpy, prefetch) occupies its
                        // stream for its scheduled interval.
                        let s = ticks(s0).max(*cur).max(0);
                        let e = ticks(e0).max(s);
                        if e > s {
                            segs.push(Seg {
                                start: s,
                                end: e,
                                key,
                            });
                        }
                        *cur = (*cur).max(e);
                    } else {
                        // Host point event, stamped at/around completion:
                        // pack its cost against the stream cursor.
                        let c = ticks(te.cost_ns).max(0);
                        let start = ticks(te.t_ns).saturating_sub(c).max(*cur).max(0);
                        let end = start.saturating_add(c);
                        if c > 0 {
                            segs.push(Seg { start, end, key });
                        }
                        *cur = (*cur).max(end);
                    }
                }
            }
        }
        // In-kernel events whose span fell off the ring: pack them as
        // point segments from their stamps so their cost still
        // participates (same-stamp parts of one access stay sequential).
        // Launches go in (kernel name, launch_seq) order.
        let mut orphans: Vec<((u32, u64), usize)> = pending.open.into_iter().collect();
        orphans.sort_by(|((ka, sa), _), ((kb, sb), _)| {
            kernels.name(*ka).cmp(kernels.name(*kb)).then(sa.cmp(sb))
        });
        for (_, i) in orphans {
            let mut pos = 0i64;
            for &(key, cost, t) in &pending.bufs[i] {
                let start = t.max(pos).max(0);
                let end = start.saturating_add(cost);
                if cost > 0 {
                    segs.push(Seg { start, end, key });
                }
                pos = end;
            }
        }

        // ---- backward longest-path sweep ---------------------------
        // Walk from elapsed toward 0, always choosing the segment that
        // finishes last: that is the activity the run was waiting on.
        // Segments beginning at/after the cursor are hidden behind the
        // chosen path (concurrent streams) and get zero blame. Every tick
        // of [0, path_ticks] is charged exactly once, so conservation is
        // exact by construction. The sort is stable: among segments with
        // one (end, start) the one pushed last is walked first.
        segs.sort_by_key(|s| (s.end, s.start));
        let mut blame: Vec<(u64, u64)> = vec![(0, 0); cells.len() * KINDS]; // (ticks, segments)
        let mut charge = |key: usize, t: i64| {
            if t > 0 {
                blame[key].0 += t as u64;
                blame[key].1 += 1;
            }
        };
        let mut cursor = path_ticks;
        for s in segs.iter().rev() {
            if cursor <= 0 {
                break;
            }
            if s.start >= cursor {
                continue; // entirely covered by the path chosen so far
            }
            let hi = s.end.min(cursor);
            // Gap above this segment: uninstrumented host time.
            charge(host_compute, cursor - hi);
            charge(s.key, hi - s.start);
            cursor = s.start;
        }
        charge(host_compute, cursor);

        // ---- rows --------------------------------------------------
        let mut rows: Vec<BlameRow> = blame
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| *t > 0)
            .map(|(key, &(t, segments))| {
                let (kernel, alloc) = cells.keys()[key / KINDS];
                BlameRow {
                    kernel: kernels.name(kernel).to_string(),
                    alloc,
                    label: label_of(&trace.names, alloc),
                    kind: KIND_NAMES[key % KINDS].to_string(),
                    blame_ticks: t,
                    blame_ns: ns(t),
                    segments,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.blame_ticks
                .cmp(&a.blame_ticks)
                .then_with(|| a.kernel.cmp(&b.kernel))
                .then_with(|| a.alloc.cmp(&b.alloc))
                .then_with(|| a.kind.cmp(&b.kind))
        });

        // ---- what-if -----------------------------------------------
        let mut savable: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &rows {
            if let Some(base) = r.alloc {
                if WHAT_IF_KINDS.contains(&r.kind.as_str()) {
                    *savable.entry(base).or_default() += r.blame_ticks;
                }
            }
        }
        let path_ns = ns(path_ticks as u64);
        let mut what_if: Vec<WhatIf> = savable
            .into_iter()
            .filter(|(_, t)| *t > 0)
            .map(|(base, t)| WhatIf {
                base,
                label: label_of(&trace.names, Some(base)),
                savable_ticks: t,
                savable_ns: ns(t),
                path_if_fixed_ns: ns(path_ticks as u64 - t),
            })
            .collect();
        what_if.sort_by(|a, b| {
            b.savable_ticks
                .cmp(&a.savable_ticks)
                .then(a.base.cmp(&b.base))
        });

        BlameReport {
            workload: trace.workload.clone(),
            platform: trace.platform_name.clone(),
            elapsed_ns: trace.elapsed_ns,
            path_ticks: path_ticks as u64,
            path_ns,
            events_recorded: trace.recorded,
            events_dropped: trace.dropped,
            rows,
            what_if,
        }
    }

    /// Percentage of the path a tick count holds (0 when the path is
    /// empty).
    fn pct(&self, t: u64) -> f64 {
        if self.path_ticks == 0 {
            0.0
        } else {
            t as f64 * 100.0 / self.path_ticks as f64
        }
    }

    /// Human-readable blame tables. `top` bounds the listings; the
    /// truncated remainder is summarized so the printed numbers still
    /// account for the whole path.
    pub fn render(&self, top: usize) -> String {
        let ms = |v: f64| v / 1e6;
        let mut s = String::new();
        s.push_str(&format!(
            "==== xplacer blame: {} on {} ====\n",
            self.workload, self.platform
        ));
        s.push_str(&format!(
            "critical path: {:.3} ms (elapsed {:.3} ms)   events: {} recorded, {} dropped\n",
            ms(self.path_ns),
            ms(self.elapsed_ns),
            self.events_recorded,
            self.events_dropped
        ));
        if self.events_dropped > 0 {
            s.push_str("WARNING: the event ring dropped events; blame beyond the retained stream is charged to host compute.\n");
        }
        s.push_str("\nblame by (kernel x allocation x kind) — sums exactly to the path:\n");
        s.push_str(&format!(
            "  {:<24} {:<20} {:<12} {:>12} {:>8} {:>6}\n",
            "kernel", "allocation", "kind", "blame ms", "% path", "segs"
        ));
        if self.rows.is_empty() {
            s.push_str("  (empty path)\n");
        }
        for r in self.rows.iter().take(top) {
            s.push_str(&format!(
                "  {:<24} {:<20} {:<12} {:>12.3} {:>7.1}% {:>6}\n",
                r.kernel,
                r.label,
                r.kind,
                ms(r.blame_ns),
                self.pct(r.blame_ticks),
                r.segments
            ));
        }
        if self.rows.len() > top {
            let rest: u64 = self.rows.iter().skip(top).map(|r| r.blame_ticks).sum();
            s.push_str(&format!(
                "  ... {} more rows holding {:.3} ms ({:.1}%)\n",
                self.rows.len() - top,
                ms(ns(rest)),
                self.pct(rest)
            ));
        }
        s.push_str("\nwhat-if: zero one allocation's fault+transfer path cost (upper bound):\n");
        if self.what_if.is_empty() {
            s.push_str("  (no allocation holds fault or transfer time on the path)\n");
        }
        for (i, w) in self.what_if.iter().take(top).enumerate() {
            s.push_str(&format!(
                "  {:>2}. {:<20} buys at most {:>10.3} ms ({:>5.1}%) -> path {:.3} ms\n",
                i + 1,
                w.label,
                ms(w.savable_ns),
                self.pct(w.savable_ticks),
                ms(w.path_if_fixed_ns)
            ));
        }
        s
    }

    /// JSON document (schema [`BLAME_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut j = Json::obj();
                j.set("kernel", r.kernel.as_str().into())
                    .set("alloc", r.label.as_str().into());
                if let Some(b) = r.alloc {
                    j.set("base", format!("0x{b:x}").into());
                }
                j.set("kind", r.kind.as_str().into())
                    .set("blame_ns", Json::Num(r.blame_ns))
                    .set("blame_ticks", r.blame_ticks.into())
                    .set("pct", Json::Num(self.pct(r.blame_ticks)))
                    .set("segments", r.segments.into());
                j
            })
            .collect();
        let what_if = self
            .what_if
            .iter()
            .map(|w| {
                let mut j = Json::obj();
                j.set("alloc", w.label.as_str().into())
                    .set("base", format!("0x{:x}", w.base).into())
                    .set("savable_ns", Json::Num(w.savable_ns))
                    .set("pct", Json::Num(self.pct(w.savable_ticks)))
                    .set("path_if_fixed_ns", Json::Num(w.path_if_fixed_ns));
                j
            })
            .collect();
        let mut events = Json::obj();
        events
            .set("recorded", self.events_recorded.into())
            .set("dropped", self.events_dropped.into());
        let mut j = Json::obj();
        j.set("schema", BLAME_SCHEMA.into())
            .set("workload", self.workload.as_str().into())
            .set("platform", self.platform.as_str().into())
            .set("elapsed_ns", Json::Num(self.elapsed_ns))
            .set("path_ns", Json::Num(self.path_ns))
            .set("ticks_per_ns", Json::Num(TICKS_PER_NS))
            .set("events", events)
            .set("rows", Json::Arr(rows))
            .set("what_if", Json::Arr(what_if));
        j
    }

    /// Folded stacks (`platform;kernel;alloc;kind blame_ns`) for
    /// flamegraph tooling — widths show *path* time, so hidden/overlapped
    /// work disappears instead of inflating the graph.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let blame = r.blame_ns.round() as u64;
            if blame > 0 {
                out.push_str(&format!(
                    "{};{};{};{} {}\n",
                    self.platform, r.kernel, r.label, r.kind, blame
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{AttrCtx, KernelSpan, MemcpySpan, StreamId, TimedEvent, DEFAULT_STREAM};
    use std::rc::Rc;

    fn trace(elapsed_ns: f64, events: Vec<TimedEvent>) -> EventTrace {
        EventTrace {
            workload: "unit".into(),
            platform_name: "test".into(),
            page_size: 65_536,
            link_bw: 12.0,
            elapsed_ns,
            recorded: events.len() as u64,
            dropped: 0,
            names: vec![(0x1000, "buf".into())],
            events: Rc::new(events.into()),
        }
    }

    fn host_point(t: f64, cost: f64, alloc: Option<u64>, event: Event) -> TimedEvent {
        TimedEvent {
            t_ns: t,
            cost_ns: cost,
            ctx: AttrCtx {
                alloc,
                ..AttrCtx::host()
            }
            .into(),
            event,
        }
    }

    fn total(r: &BlameReport) -> f64 {
        r.rows.iter().map(|x| x.blame_ns).sum()
    }

    #[test]
    fn empty_trace_is_an_empty_report() {
        let r = BlameReport::build(&trace(0.0, vec![]));
        assert_eq!(r.path_ticks, 0);
        assert!(r.rows.is_empty() && r.what_if.is_empty());
        assert!(r.render(5).contains("(empty path)"));
        assert_eq!(
            r.to_json().get("schema").unwrap().as_str(),
            Some(BLAME_SCHEMA)
        );
    }

    #[test]
    fn uninstrumented_time_is_host_compute() {
        let r = BlameReport::build(&trace(1000.0, vec![]));
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].kernel, HOST_KERNEL);
        assert_eq!(r.rows[0].kind, COMPUTE_KIND);
        assert_eq!(r.rows[0].blame_ns, 1000.0);
        assert_eq!(total(&r), r.path_ns);
    }

    #[test]
    fn kernel_span_is_partitioned_into_events_plus_compute() {
        let ctx = AttrCtx {
            kernel: Some("k".into()),
            launch_seq: 1,
            stream: DEFAULT_STREAM,
            alloc: Some(0x1000),
        };
        let events = vec![
            TimedEvent {
                t_ns: 100.0,
                cost_ns: 30.0,
                ctx: ctx.clone().into(),
                event: Event::PageFault {
                    dev: hetsim::Device::Gpu,
                    page: 0,
                    write: false,
                },
            },
            TimedEvent {
                t_ns: 100.0,
                cost_ns: 50.0,
                ctx: ctx.clone().into(),
                event: Event::Migration {
                    page: 0,
                    to: hetsim::Device::Gpu,
                    bytes: 65_536,
                },
            },
            TimedEvent {
                t_ns: 300.0,
                cost_ns: 200.0,
                // As emitted by the machine: the span carries the
                // kernel's own context (name + launch_seq).
                ctx: AttrCtx {
                    alloc: None,
                    ..ctx.clone()
                }
                .into(),
                event: Event::KernelEnd(Rc::new(KernelSpan {
                    name: "k".into(),
                    stream: DEFAULT_STREAM,
                    start_ns: 100.0,
                    end_ns: 300.0,
                })),
            },
        ];
        let r = BlameReport::build(&trace(400.0, events));
        let get = |kernel: &str, kind: &str| {
            r.rows
                .iter()
                .find(|x| x.kernel == kernel && x.kind == kind)
                .map(|x| x.blame_ns)
                .unwrap_or(0.0)
        };
        assert_eq!(get("k", "page_fault"), 30.0);
        assert_eq!(get("k", "migration"), 50.0);
        assert_eq!(get("k", COMPUTE_KIND), 120.0); // 200 span - 80 attributed
        assert_eq!(get(HOST_KERNEL, COMPUTE_KIND), 200.0); // 0..100 + 300..400
        assert_eq!(total(&r), r.path_ns);
        // The faulting allocation is the only what-if candidate.
        assert_eq!(r.what_if.len(), 1);
        assert_eq!(r.what_if[0].label, "buf");
        assert_eq!(r.what_if[0].savable_ns, 80.0);
        assert_eq!(r.what_if[0].path_if_fixed_ns, 320.0);
    }

    #[test]
    fn overlapped_stream_work_gets_zero_blame() {
        // A kernel on stream 1 spans [100, 300]; a memcpy on stream 2 is
        // entirely hidden under it. Only the kernel is on the path.
        let events = vec![
            host_point(
                300.0,
                0.0,
                None,
                Event::KernelEnd(Rc::new(KernelSpan {
                    name: "k".into(),
                    stream: StreamId(1),
                    start_ns: 100.0,
                    end_ns: 300.0,
                })),
            ),
            TimedEvent {
                t_ns: 250.0,
                cost_ns: 100.0,
                ctx: AttrCtx::host().into(),
                event: Event::Memcpy(Rc::new(MemcpySpan {
                    dst: 0x2000,
                    src: 0x1000,
                    bytes: 4096,
                    kind: hetsim::CopyKind::HostToDevice,
                    stream: StreamId(2),
                    start_ns: 150.0,
                    end_ns: 250.0,
                })),
            },
        ];
        let r = BlameReport::build(&trace(300.0, events));
        let memcpy = r.rows.iter().find(|x| x.kind == "memcpy");
        assert!(memcpy.is_none(), "hidden copy must get zero blame");
        let k = r.rows.iter().find(|x| x.kernel == "k").unwrap();
        assert_eq!(k.blame_ns, 200.0);
        assert_eq!(total(&r), r.path_ns);
    }

    #[test]
    fn partially_exposed_span_is_charged_only_for_the_exposed_part() {
        // memcpy [150, 350] outlives the kernel [100, 300]: the path is
        // host 0..100, kernel 100..300 hidden under nothing... actually
        // the copy finishes last, so the tail [300, 350] — and the sweep
        // then follows the copy backward from 300 too. The copy's blame
        // is its exposure as the last finisher: [100?]. Verify exact
        // conservation and that both appear.
        let events = vec![
            host_point(
                300.0,
                0.0,
                None,
                Event::KernelEnd(Rc::new(KernelSpan {
                    name: "k".into(),
                    stream: StreamId(1),
                    start_ns: 100.0,
                    end_ns: 300.0,
                })),
            ),
            host_point(
                350.0,
                200.0,
                Some(0x1000),
                Event::Memcpy(Rc::new(MemcpySpan {
                    dst: 0x2000,
                    src: 0x1000,
                    bytes: 4096,
                    kind: hetsim::CopyKind::HostToDevice,
                    stream: StreamId(2),
                    start_ns: 150.0,
                    end_ns: 350.0,
                })),
            ),
        ];
        let r = BlameReport::build(&trace(350.0, events));
        let copy = r.rows.iter().find(|x| x.kind == "memcpy").unwrap();
        // The copy is the last finisher: it owns [150, 350]; the kernel
        // only the exposed [100, 150].
        assert_eq!(copy.blame_ns, 200.0);
        let k = r.rows.iter().find(|x| x.kernel == "k").unwrap();
        assert_eq!(k.blame_ns, 50.0);
        assert_eq!(total(&r), r.path_ns);
    }

    #[test]
    fn conservation_is_bit_exact_with_awkward_float_stamps() {
        // Fractional stamps that don't land on the tick grid still
        // partition exactly after quantization.
        let mut events = vec![];
        let mut t = 0.0;
        for i in 0..100 {
            t += 13.7 + (i as f64) * 0.003;
            events.push(host_point(
                t,
                7.1,
                Some(0x1000),
                Event::Migration {
                    page: i,
                    to: hetsim::Device::Gpu,
                    bytes: 65_536,
                },
            ));
        }
        let r = BlameReport::build(&trace(t + 5.0, events));
        let sum: f64 = r.rows.iter().map(|x| x.blame_ns).sum();
        assert_eq!(sum.to_bits(), r.path_ns.to_bits(), "bit-exact conservation");
        assert!((r.path_ns - r.elapsed_ns).abs() <= 1.0 / 2048.0);
    }

    #[test]
    fn report_is_deterministic() {
        let mk = || {
            let events = vec![host_point(
                50.0,
                20.0,
                Some(0x1000),
                Event::PageFault {
                    dev: hetsim::Device::Cpu,
                    page: 3,
                    write: true,
                },
            )];
            BlameReport::build(&trace(80.0, events))
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.render(10), b.render(10));
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
        assert_eq!(a.folded(), b.folded());
    }
}
