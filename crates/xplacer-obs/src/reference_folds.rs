//! String-keyed reference folds and the differential test that holds the
//! interned folds to them.
//!
//! [`blame`], [`profile`] and [`folded_stacks`] key every event by its
//! kernel name, allocation and kind as strings in `BTreeMap`s — the plain
//! statement of each fold. [`BlameReport::build`],
//! [`ProfileReport::build`] and [`crate::flamegraph::folded_stacks`] key
//! by interned ids ([`crate::cells`]) instead; the property test below
//! requires their rendered, JSON and folded outputs to match these byte
//! for byte on random event sequences.

use std::collections::BTreeMap;
use std::rc::Rc;

use hetsim::{
    platform, AllocKind, AttrCtx, CopyKind, Device, Event, EventLog, KernelSpan, MemAdvise,
    MemHook, MemcpySpan, PrefetchSpan, StreamId, TimedEvent,
};
use proptest::prelude::*;

use crate::cells::label_of;
use crate::crit_path::{ns, ticks, BlameReport, BlameRow, WhatIf, COMPUTE_KIND, WHAT_IF_KINDS};
use crate::events::EventTrace;
use crate::profile::{AllocCost, CellCost, CostBreakdown, KernelCost, ProfileReport, HOST_KERNEL};

/// A half-open interval `[start, end)` of the timeline owned by one row.
struct Seg {
    start: i64,
    end: i64,
    key: usize,
}

/// [`BlameReport::build`] with `(kernel, alloc, kind)` string keys.
pub(crate) fn blame(trace: &EventTrace) -> BlameReport {
    let path_ticks = ticks(trace.elapsed_ns).max(0);

    let mut key_ids: BTreeMap<(String, Option<u64>, String), usize> = BTreeMap::new();
    let mut keys: Vec<(String, Option<u64>, String)> = Vec::new();
    let mut intern = |kernel: &str, alloc: Option<u64>, kind: &str| -> usize {
        let k = (kernel.to_string(), alloc, kind.to_string());
        *key_ids.entry(k.clone()).or_insert_with(|| {
            keys.push(k);
            keys.len() - 1
        })
    };
    let host_compute = intern(HOST_KERNEL, None, COMPUTE_KIND);

    let mut cursors: BTreeMap<usize, i64> = BTreeMap::new();
    type Pending = Vec<(usize, i64, i64)>; // (key, cost, t)
    let mut pending: BTreeMap<(String, u64), Pending> = BTreeMap::new();
    let mut segs: Vec<Seg> = Vec::new();

    for te in trace.events.iter() {
        let kernel = te.ctx.kernel_name().unwrap_or(HOST_KERNEL).to_string();
        match &te.event {
            Event::KernelBegin { .. } => {}
            Event::KernelEnd(span) => {
                let KernelSpan {
                    name,
                    stream,
                    start_ns,
                    end_ns,
                } = &**span;
                let s = ticks(*start_ns).max(0);
                let e = ticks(*end_ns).max(s);
                let mut pos = s;
                for (key, cost, _) in pending
                    .remove(&(name.to_string(), te.ctx.launch_seq))
                    .unwrap_or_default()
                {
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
                        key: intern(name, None, COMPUTE_KIND),
                    });
                }
                let cur = cursors.entry(stream.0).or_insert(0);
                *cur = (*cur).max(e);
            }
            ev if te.ctx.kernel.is_some() => {
                let key = intern(&kernel, te.ctx.alloc, ev.kind_name());
                pending
                    .entry((kernel, te.ctx.launch_seq))
                    .or_default()
                    .push((key, ticks(te.cost_ns).max(0), ticks(te.t_ns)));
            }
            ev => {
                let key = intern(&kernel, te.ctx.alloc, ev.kind_name());
                let stream = te.effective_stream().0;
                let cur = cursors.entry(stream).or_insert(0);
                if let Some((s0, e0)) = ev.span() {
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
                    let c = ticks(te.cost_ns).max(0);
                    let start = (ticks(te.t_ns) - c).max(*cur).max(0);
                    if c > 0 {
                        segs.push(Seg {
                            start,
                            end: start.saturating_add(c),
                            key,
                        });
                    }
                    *cur = (*cur).max(start.saturating_add(c));
                }
            }
        }
    }
    for ((_name, _seq), subs) in pending {
        let mut pos = 0i64;
        for (key, cost, t) in subs {
            let start = t.max(pos).max(0);
            if cost > 0 {
                segs.push(Seg {
                    start,
                    end: start.saturating_add(cost),
                    key,
                });
            }
            pos = start.saturating_add(cost);
        }
    }

    let mut order: Vec<usize> = (0..segs.len()).collect();
    order.sort_by(|&a, &b| {
        segs[a]
            .end
            .cmp(&segs[b].end)
            .then(segs[a].start.cmp(&segs[b].start))
            .then(a.cmp(&b))
    });
    let mut blame: Vec<(u64, u64)> = vec![(0, 0); keys.len()];
    let mut charge = |key: usize, t: i64| {
        if t > 0 {
            blame[key].0 += t as u64;
            blame[key].1 += 1;
        }
    };
    let mut cursor = path_ticks;
    for &i in order.iter().rev() {
        if cursor <= 0 {
            break;
        }
        let s = &segs[i];
        if s.start >= cursor {
            continue;
        }
        let hi = s.end.min(cursor);
        charge(host_compute, cursor - hi);
        charge(s.key, hi - s.start);
        cursor = s.start;
    }
    charge(host_compute, cursor);

    let mut rows: Vec<BlameRow> = keys
        .iter()
        .enumerate()
        .filter(|(i, _)| blame[*i].0 > 0)
        .map(|(i, (kernel, alloc, kind))| BlameRow {
            kernel: kernel.clone(),
            alloc: *alloc,
            label: label_of(&trace.names, *alloc),
            kind: kind.clone(),
            blame_ticks: blame[i].0,
            blame_ns: ns(blame[i].0),
            segments: blame[i].1,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.blame_ticks
            .cmp(&a.blame_ticks)
            .then_with(|| a.kernel.cmp(&b.kernel))
            .then_with(|| a.alloc.cmp(&b.alloc))
            .then_with(|| a.kind.cmp(&b.kind))
    });

    let mut savable: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &rows {
        if let Some(base) = r.alloc {
            if WHAT_IF_KINDS.contains(&r.kind.as_str()) {
                *savable.entry(base).or_default() += r.blame_ticks;
            }
        }
    }
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
        path_ns: ns(path_ticks as u64),
        events_recorded: trace.recorded,
        events_dropped: trace.dropped,
        rows,
        what_if,
    }
}

/// [`ProfileReport::build_from_events`] with `(kernel, alloc)` string keys.
pub(crate) fn profile<'a>(
    workload: &str,
    platform: &str,
    elapsed_ns: f64,
    events: impl IntoIterator<Item = &'a TimedEvent>,
    events_recorded: u64,
    events_dropped: u64,
    names: &[(u64, String)],
) -> ProfileReport {
    let mut cells: BTreeMap<(String, Option<u64>), CostBreakdown> = BTreeMap::new();
    let mut spans: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut kernel_launches = 0u64;

    for te in events {
        let kernel = te.ctx.kernel_name().unwrap_or(HOST_KERNEL).to_string();
        match &te.event {
            Event::KernelBegin { .. } => {
                kernel_launches += 1;
                spans.entry(kernel).or_insert((0, 0.0)).0 += 1;
            }
            Event::KernelEnd(_) => {
                spans.entry(kernel).or_insert((0, 0.0)).1 += te.cost_ns;
            }
            ev => {
                cells
                    .entry((kernel, te.ctx.alloc))
                    .or_default()
                    .absorb(ev, te.cost_ns);
            }
        }
    }

    let mut per_kernel: BTreeMap<String, CostBreakdown> = BTreeMap::new();
    for ((kernel, _), bd) in &cells {
        per_kernel.entry(kernel.clone()).or_default().merge(bd);
    }
    for k in spans.keys() {
        per_kernel.entry(k.clone()).or_default();
    }
    let mut kernels: Vec<KernelCost> = per_kernel
        .into_iter()
        .map(|(name, costs)| {
            let (launches, span_ns) = spans.get(&name).copied().unwrap_or((0, 0.0));
            let (total_ns, compute_ns) = if name == HOST_KERNEL {
                (costs.cost_ns, 0.0)
            } else {
                (span_ns, (span_ns - costs.cost_ns).max(0.0))
            };
            KernelCost {
                name,
                launches,
                total_ns,
                compute_ns,
                costs,
            }
        })
        .collect();
    kernels.sort_by(|a, b| {
        b.total_ns
            .total_cmp(&a.total_ns)
            .then_with(|| a.name.cmp(&b.name))
    });

    let mut per_alloc: BTreeMap<u64, CostBreakdown> = BTreeMap::new();
    for ((_, alloc), bd) in &cells {
        if let Some(base) = alloc {
            per_alloc.entry(*base).or_default().merge(bd);
        }
    }
    let mut allocs: Vec<AllocCost> = per_alloc
        .into_iter()
        .map(|(base, costs)| AllocCost {
            base,
            label: label_of(names, Some(base)),
            costs,
        })
        .collect();
    allocs.sort_by(|a, b| {
        b.costs
            .bytes_moved()
            .cmp(&a.costs.bytes_moved())
            .then(b.costs.cost_ns.total_cmp(&a.costs.cost_ns))
            .then(a.base.cmp(&b.base))
    });

    let mut totals = CostBreakdown::default();
    for bd in cells.values() {
        totals.merge(bd);
    }

    let mut cell_rows: Vec<CellCost> = cells
        .into_iter()
        .map(|((kernel, alloc), costs)| CellCost {
            label: label_of(names, alloc),
            kernel,
            alloc,
            costs,
        })
        .collect();
    cell_rows.sort_by(|a, b| {
        b.costs
            .cost_ns
            .total_cmp(&a.costs.cost_ns)
            .then_with(|| a.kernel.cmp(&b.kernel))
            .then(a.alloc.cmp(&b.alloc))
    });

    ProfileReport {
        workload: workload.to_string(),
        platform: platform.to_string(),
        elapsed_ns,
        kernels,
        cells: cell_rows,
        allocs,
        totals,
        kernel_launches,
        events_recorded,
        events_dropped,
    }
}

/// [`crate::flamegraph::folded_stacks`] with frame-string keys.
pub(crate) fn folded_stacks(platform: &str, log: &EventLog, names: &[(u64, String)]) -> String {
    let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
    let mut span_ns: BTreeMap<String, f64> = BTreeMap::new();
    let mut attributed_ns: BTreeMap<String, f64> = BTreeMap::new();

    for te in log.events() {
        let kernel = te.ctx.kernel_name().unwrap_or(HOST_KERNEL);
        match &te.event {
            Event::KernelBegin { .. } => {}
            Event::KernelEnd(_) => {
                *span_ns.entry(kernel.to_string()).or_default() += te.cost_ns;
            }
            ev => {
                if te.cost_ns > 0.0 {
                    let frame = format!(
                        "{platform};{kernel};{};{}",
                        label_of(names, te.ctx.alloc),
                        ev.kind_name()
                    );
                    *stacks.entry(frame).or_default() += te.cost_ns;
                }
                if kernel != HOST_KERNEL {
                    *attributed_ns.entry(kernel.to_string()).or_default() += te.cost_ns;
                }
            }
        }
    }

    for (kernel, span) in &span_ns {
        let compute = span - attributed_ns.get(kernel).copied().unwrap_or(0.0);
        if compute > 0.0 {
            *stacks
                .entry(format!("{platform};{kernel};compute"))
                .or_default() += compute;
        }
    }

    let mut out = String::new();
    for (frame, ns) in &stacks {
        let cost = ns.round() as u64;
        if cost > 0 {
            out.push_str(&format!("{frame} {cost}\n"));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Differential test
// ---------------------------------------------------------------------

/// Kernel names: first-seen order differs from name order, and one kernel
/// is literally named like the host pseudo-kernel.
const KERNELS: [&str; 4] = ["zeta", "alpha", HOST_KERNEL, "mid"];

/// Allocation bases: none, two sharing the display name `buf` (one of
/// them listed twice by [`names`], where the first name wins), one named
/// `other`, and one [`names`] omits.
const BASES: [Option<u64>; 5] = [None, Some(0x1000), Some(0x2000), Some(0x3000), Some(0x4000)];

fn names() -> Vec<(u64, String)> {
    [
        (0x4000, "buf"),
        (0x1000, "buf"),
        (0x2000, "other"),
        (0x4000, "shadowed"),
    ]
    .into_iter()
    .map(|(b, n)| (b, n.to_string()))
    .collect()
}

/// Zero, sub-tick, fractional and whole costs; selector 16 is a cost so
/// large its tick count saturates.
const COSTS: [f64; 8] = [0.0, 0.0, 2.5e-4, 0.3, 1.0, 7.1, 37.25, 400.0];
const HUGE_COST: f64 = 1e300;

/// Stamp advance per event: repeats are common, so segments on different
/// streams and keys share `(end, start)`.
const STEPS: [f64; 4] = [0.0, 0.0, 5.0, 12.5];

/// One generated event: ((kernel, pointer, launch), (kind, stream, cost),
/// (step, base, renamed end)).
type Op = (
    (usize, usize, u64),
    (usize, usize, usize),
    (usize, usize, bool),
);

fn op() -> impl Strategy<Value = Op> {
    (
        (0usize..6, 0usize..2, 0u64..3),
        (0usize..12, 0usize..3, 0usize..17),
        (0usize..4, 0usize..5, any::<bool>()),
    )
}

/// Build the event stream. Each kernel name has two `Rc<str>` handles, so
/// repeat launches sometimes share a pointer and sometimes do not.
fn events(ops: &[Op]) -> (Vec<TimedEvent>, f64) {
    let handles: Vec<[Rc<str>; 2]> = KERNELS.iter().map(|&k| [k.into(), k.into()]).collect();
    let mut t = 0.0;
    let mut out = Vec::with_capacity(ops.len());
    for &((k, ptr, seq), (kind, stream, cost), (step, base, renamed)) in ops {
        t += STEPS[step];
        let kernel = (k >= 2).then(|| handles[k - 2][ptr].clone());
        let cost_ns = if cost == 16 {
            HUGE_COST
        } else {
            COSTS[cost % COSTS.len()]
        };
        let stream = StreamId(stream);
        let start_ns = (t - cost_ns).max(0.0);
        let end_name = || {
            let own = kernel
                .as_deref()
                .map_or(1, |n| KERNELS.iter().position(|&x| x == n).unwrap_or(0));
            Rc::<str>::from(
                KERNELS[if renamed {
                    (own + 1) % KERNELS.len()
                } else {
                    own
                }],
            )
        };
        let event = match kind {
            0 => Event::Alloc {
                base: 0x1000,
                bytes: 4096,
                kind: AllocKind::Managed,
            },
            1 => Event::Free { base: 0x1000 },
            2 => Event::PageFault {
                dev: Device::Gpu,
                page: 1,
                write: renamed,
            },
            3 => Event::Migration {
                page: 1,
                to: Device::Gpu,
                bytes: 65_536,
            },
            4 => Event::ReadDup {
                page: 1,
                to: Device::Gpu,
                bytes: 65_536,
            },
            5 => Event::Invalidate { page: 1, copies: 2 },
            6 => Event::Evict {
                pages: 2,
                bytes: 131_072,
                writeback_pages: 1,
                writeback_bytes: 65_536,
            },
            7 => Event::Memcpy(Rc::new(MemcpySpan {
                dst: 0x2000,
                src: 0x1000,
                bytes: 4096,
                kind: CopyKind::HostToDevice,
                stream,
                start_ns,
                end_ns: t,
            })),
            8 => Event::Advise {
                addr: 0x1000,
                bytes: 4096,
                advice: MemAdvise::SetReadMostly,
            },
            9 => Event::Prefetch(Rc::new(PrefetchSpan {
                addr: 0x1000,
                bytes: 4096,
                pages: 1,
                bytes_moved: 65_536,
                to: Device::Gpu,
                stream,
                start_ns,
                end_ns: t,
            })),
            10 => Event::KernelBegin { name: end_name() },
            _ => Event::KernelEnd(Rc::new(KernelSpan {
                name: end_name(),
                stream,
                start_ns,
                end_ns: t,
            })),
        };
        out.push(TimedEvent {
            t_ns: t,
            cost_ns,
            ctx: AttrCtx {
                launch_seq: if kernel.is_some() { seq } else { 0 },
                kernel,
                stream,
                alloc: BASES[base],
            }
            .into(),
            event,
        });
    }
    (out, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn interned_folds_match_the_string_keyed_references(
        ops in proptest::collection::vec(op(), 0..200),
        cap in 1usize..260,
        stretch in 0usize..3,
    ) {
        let (evs, end) = events(&ops);
        let mut log = EventLog::with_capacity(cap);
        for ev in &evs {
            MemHook::on_event(&mut log, ev);
        }
        let elapsed = end * [0.6, 1.0, 1.25][stretch] + 3.0;
        let pf = platform::intel_pascal();
        let names = names();

        let trace = EventTrace::from_recording("prop", &pf, elapsed, &log, names.clone());
        let (got, want) = (BlameReport::build(&trace), blame(&trace));
        for top in [3, 1000] {
            prop_assert_eq!(got.render(top), want.render(top));
        }
        prop_assert_eq!(got.to_json().to_string_compact(), want.to_json().to_string_compact());
        prop_assert_eq!(got.folded(), want.folded());

        let got = ProfileReport::build("prop", pf.name, elapsed, &log, &names);
        let want = profile(
            "prop",
            pf.name,
            elapsed,
            log.events(),
            log.total_recorded(),
            log.dropped(),
            &names,
        );
        for top in [3, 1000] {
            prop_assert_eq!(got.render_table(top), want.render_table(top));
        }
        prop_assert_eq!(got.to_json().to_string_compact(), want.to_json().to_string_compact());

        prop_assert_eq!(
            crate::flamegraph::folded_stacks(pf.name, &log, &names),
            folded_stacks(pf.name, &log, &names)
        );
    }
}
