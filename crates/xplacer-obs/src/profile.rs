//! Cost-attribution profiler: folds the attributed event stream into an
//! nvprof-style per-kernel cost table, per-(kernel × allocation) cells,
//! and a "hot allocations" ranking.
//!
//! Every [`hetsim::TimedEvent`] carries the context that caused it (kernel
//! span, stream, allocation) plus its simulated cost, so this module is
//! pure folding — no re-derivation of spans from timestamps. The paper's
//! diagnostics become actionable exactly here: "which allocation made
//! `pathfinder_kernel` slow?" is a lookup in [`ProfileReport::cells`].
//!
//! Conservation: with a large-enough event ring (no drops), the counter
//! totals reconstructed from the stream equal [`hetsim::Stats`] exactly —
//! migrations count on-demand `Migration` events plus `Prefetch::pages`
//! plus `Evict::writeback_pages`, mirroring how the driver accounts them.

use std::collections::BTreeMap;

use hetsim::{Event, EventLog, TimedEvent};

use crate::cells::{entry, label_of, Cells, Kernels};
use crate::events::EventTrace;
use crate::json::Json;

/// Schema tag of the profile JSON document.
pub const PROFILE_SCHEMA: &str = "xplacer-profile/1";

/// Pseudo-kernel name grouping everything that happened in host context.
pub const HOST_KERNEL: &str = "<host>";

/// Label used when an event carries no allocation attribution.
pub const NO_ALLOC: &str = "(no-alloc)";

/// Costs and counters attributed to one profile row (a kernel, a cell, an
/// allocation, or the whole run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostBreakdown {
    /// Total attributed event cost (ns). For kernels this excludes the
    /// compute remainder, which is derived from the span duration.
    pub cost_ns: f64,
    /// Fault service + invalidation overhead.
    pub fault_stall_ns: f64,
    /// Data movement: migrations, duplications, evictions, memcpys,
    /// prefetches.
    pub transfer_ns: f64,
    /// Everything else (allocation lifecycle).
    pub other_ns: f64,
    pub faults: u64,
    pub migrations: u64,
    pub bytes_migrated: u64,
    pub memcpy_bytes: u64,
    pub duplications: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub allocs: u64,
    pub frees: u64,
}

impl CostBreakdown {
    /// Fold one event's cost and counters in. Kernel begin/end markers are
    /// handled by the caller (they shape spans, not cells).
    pub(crate) fn absorb(&mut self, ev: &Event, cost_ns: f64) {
        self.cost_ns += cost_ns;
        match ev {
            Event::PageFault { .. } => {
                self.fault_stall_ns += cost_ns;
                self.faults += 1;
            }
            Event::Invalidate { copies, .. } => {
                self.fault_stall_ns += cost_ns;
                self.invalidations += *copies as u64;
            }
            Event::Migration { bytes, .. } => {
                self.transfer_ns += cost_ns;
                self.migrations += 1;
                self.bytes_migrated += bytes;
            }
            Event::ReadDup { .. } => {
                self.transfer_ns += cost_ns;
                self.duplications += 1;
            }
            Event::Evict {
                pages,
                writeback_pages,
                writeback_bytes,
                ..
            } => {
                // Dirty writebacks are migrations the driver performed
                // without a separate Migration event.
                self.transfer_ns += cost_ns;
                self.evictions += *pages as u64;
                self.migrations += *writeback_pages as u64;
                self.bytes_migrated += writeback_bytes;
            }
            Event::Prefetch {
                pages, bytes_moved, ..
            } => {
                self.transfer_ns += cost_ns;
                self.migrations += *pages as u64;
                self.bytes_migrated += bytes_moved;
            }
            Event::Memcpy { bytes, .. } => {
                self.transfer_ns += cost_ns;
                self.memcpy_bytes += bytes;
            }
            Event::Alloc { .. } => {
                self.other_ns += cost_ns;
                self.allocs += 1;
            }
            Event::Free { .. } => {
                self.other_ns += cost_ns;
                self.frees += 1;
            }
            Event::Advise { .. } => self.other_ns += cost_ns,
            Event::KernelBegin { .. } | Event::KernelEnd { .. } => {}
        }
    }

    /// Total bytes this context moved across the bus: page migrations
    /// (including prefetch and eviction writeback) plus explicit memcpy.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_migrated + self.memcpy_bytes
    }

    pub(crate) fn merge(&mut self, o: &CostBreakdown) {
        self.cost_ns += o.cost_ns;
        self.fault_stall_ns += o.fault_stall_ns;
        self.transfer_ns += o.transfer_ns;
        self.other_ns += o.other_ns;
        self.faults += o.faults;
        self.migrations += o.migrations;
        self.bytes_migrated += o.bytes_migrated;
        self.memcpy_bytes += o.memcpy_bytes;
        self.duplications += o.duplications;
        self.invalidations += o.invalidations;
        self.evictions += o.evictions;
        self.allocs += o.allocs;
        self.frees += o.frees;
    }
}

/// One row of the per-kernel table.
#[derive(Debug, Clone)]
pub struct KernelCost {
    /// Kernel name, or [`HOST_KERNEL`] for host-context work.
    pub name: String,
    /// Times the kernel was launched (0 for the host row).
    pub launches: u64,
    /// Total simulated time: summed span durations for kernels, summed
    /// attributed event cost for the host row.
    pub total_ns: f64,
    /// Span time not attributed to any driver event: launch overhead,
    /// parallel compute, and remote word accesses. Always 0 for the host
    /// row (host compute is not evented).
    pub compute_ns: f64,
    /// Attributed costs and counters.
    pub costs: CostBreakdown,
}

/// One (kernel × allocation) attribution cell.
#[derive(Debug, Clone)]
pub struct CellCost {
    /// Kernel name or [`HOST_KERNEL`].
    pub kernel: String,
    /// Allocation base, if the event resolved to one.
    pub alloc: Option<u64>,
    /// Human label for the allocation ([`NO_ALLOC`] when `alloc` is
    /// `None`, hex base when unnamed).
    pub label: String,
    pub costs: CostBreakdown,
}

/// Per-allocation rollup across all kernels, ranked by bytes moved.
#[derive(Debug, Clone)]
pub struct AllocCost {
    pub base: u64,
    pub label: String,
    pub costs: CostBreakdown,
}

/// The folded profile of one run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub workload: String,
    pub platform: String,
    pub elapsed_ns: f64,
    /// Per-kernel rows, most expensive first.
    pub kernels: Vec<KernelCost>,
    /// (kernel × allocation) cells, most expensive first.
    pub cells: Vec<CellCost>,
    /// Allocations ranked by bytes moved (then cost).
    pub allocs: Vec<AllocCost>,
    /// Run-wide counter totals (equal to `Machine::stats()` when the ring
    /// did not drop).
    pub totals: CostBreakdown,
    /// Kernel launches observed (equals `Stats::kernel_launches` when the
    /// ring did not drop).
    pub kernel_launches: u64,
    pub events_recorded: u64,
    pub events_dropped: u64,
}

impl ProfileReport {
    /// Fold `log` into a profile. `names` maps allocation bases to the
    /// allocation-site labels `core::diagnostic` knows (unknown bases fall
    /// back to their hex address).
    pub fn build(
        workload: &str,
        platform: &str,
        elapsed_ns: f64,
        log: &EventLog,
        names: &[(u64, String)],
    ) -> ProfileReport {
        Self::build_from_events(
            workload,
            platform,
            elapsed_ns,
            log.events(),
            log.total_recorded(),
            log.dropped(),
            names,
        )
    }

    /// Fold an already-materialized event sequence (e.g. a parsed
    /// [`EventTrace`]) into a profile — same folding as [`Self::build`],
    /// without requiring a live [`EventLog`].
    pub fn build_from_events<'a>(
        workload: &str,
        platform: &str,
        elapsed_ns: f64,
        events: impl IntoIterator<Item = &'a TimedEvent>,
        events_recorded: u64,
        events_dropped: u64,
        names: &[(u64, String)],
    ) -> ProfileReport {
        // Cells are interned (kernel id, alloc) pairs, each summing its
        // events in stream order.
        let mut kernels = Kernels::new();
        let mut cells = Cells::new();
        let mut costs: Vec<CostBreakdown> = Vec::new();
        // Per kernel id: (launches, span_ns), once a begin or end marker
        // named the kernel.
        let mut spans: Vec<Option<(u64, f64)>> = Vec::new();
        let mut kernel_launches = 0u64;

        for te in events {
            let kernel = kernels.of(&te.ctx);
            match &te.event {
                Event::KernelBegin { .. } => {
                    kernel_launches += 1;
                    entry(&mut spans, kernel).get_or_insert((0, 0.0)).0 += 1;
                }
                Event::KernelEnd { .. } => {
                    entry(&mut spans, kernel).get_or_insert((0, 0.0)).1 += te.cost_ns;
                }
                ev => {
                    let c = cells.id(kernel, te.ctx.alloc);
                    if c == costs.len() {
                        costs.push(CostBreakdown::default());
                    }
                    costs[c].absorb(ev, te.cost_ns);
                }
            }
        }

        // Kernel, allocation and run rollups merge the cells in (kernel
        // name, alloc) order, which fixes their f64 sums.
        let mut per_kernel: Vec<Option<CostBreakdown>> = vec![None; kernels.len()];
        let mut per_alloc: BTreeMap<u64, CostBreakdown> = BTreeMap::new();
        let mut totals = CostBreakdown::default();
        for c in cells.by_name(&kernels) {
            let (kernel, alloc) = cells.keys()[c];
            let bd = &costs[c];
            per_kernel[kernel as usize]
                .get_or_insert_with(CostBreakdown::default)
                .merge(bd);
            if let Some(base) = alloc {
                per_alloc.entry(base).or_default().merge(bd);
            }
            totals.merge(bd);
        }

        // Kernel rows: attributed costs per kernel + span-derived compute.
        let mut kernel_rows: Vec<KernelCost> = per_kernel
            .into_iter()
            .enumerate()
            .filter_map(|(k, costs)| {
                let span = spans.get(k).copied().flatten();
                if costs.is_none() && span.is_none() {
                    return None;
                }
                let costs = costs.unwrap_or_default();
                let (launches, span_ns) = span.unwrap_or((0, 0.0));
                let name = kernels.name(k as u32);
                let (total_ns, compute_ns) = if name == HOST_KERNEL {
                    (costs.cost_ns, 0.0)
                } else {
                    (span_ns, (span_ns - costs.cost_ns).max(0.0))
                };
                Some(KernelCost {
                    name: name.to_string(),
                    launches,
                    total_ns,
                    compute_ns,
                    costs,
                })
            })
            .collect();
        kernel_rows.sort_by(|a, b| {
            b.total_ns
                .total_cmp(&a.total_ns)
                .then_with(|| a.name.cmp(&b.name))
        });

        // Allocation rollup.
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

        let mut cell_rows: Vec<CellCost> = cells
            .keys()
            .iter()
            .zip(costs)
            .map(|(&(kernel, alloc), costs)| CellCost {
                kernel: kernels.name(kernel).to_string(),
                alloc,
                label: label_of(names, alloc),
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
            kernels: kernel_rows,
            cells: cell_rows,
            allocs,
            totals,
            kernel_launches,
            events_recorded,
            events_dropped,
        }
    }

    /// Fold a recorded/parsed trace into a profile, using the trace's own
    /// workload, platform, elapsed time, and allocation names. This is the
    /// aggregation `xplacer diff` aligns two runs by.
    pub fn from_trace(trace: &EventTrace) -> ProfileReport {
        Self::build_from_events(
            &trace.workload,
            &trace.platform_name,
            trace.elapsed_ns,
            trace.events.iter(),
            trace.recorded,
            trace.dropped,
            &trace.names,
        )
    }

    /// The allocation responsible for the most moved bytes (migrations,
    /// then explicit memcpy traffic for device-memory programs), if any
    /// traffic was attributed at all.
    pub fn hottest_alloc(&self) -> Option<&AllocCost> {
        self.allocs.first().filter(|a| a.costs.bytes_moved() > 0)
    }

    /// nvprof-style text tables. `top` bounds the hot-allocation and cell
    /// listings (kernel rows are always complete).
    pub fn render_table(&self, top: usize) -> String {
        let mut s = String::new();
        let ms = |ns: f64| ns / 1e6;
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        s.push_str(&format!(
            "==== xplacer profile: {} on {} ====\n",
            self.workload, self.platform
        ));
        s.push_str(&format!(
            "simulated total: {:.3} ms   events: {} recorded, {} dropped\n\n",
            ms(self.elapsed_ns),
            self.events_recorded,
            self.events_dropped
        ));
        if self.events_dropped > 0 {
            s.push_str(
                "WARNING: the event ring dropped events; attributed costs are UNDERCOUNTS.\n\n",
            );
        }

        s.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>10} {:>12} {:>10} {:>8} {:>8} {:>10}\n",
            "kernel",
            "launches",
            "time ms",
            "compute",
            "fault-stall",
            "transfer",
            "faults",
            "migr",
            "MB moved"
        ));
        for k in &self.kernels {
            s.push_str(&format!(
                "{:<24} {:>8} {:>10.3} {:>10.3} {:>12.3} {:>10.3} {:>8} {:>8} {:>10.2}\n",
                k.name,
                if k.name == HOST_KERNEL {
                    "-".to_string()
                } else {
                    k.launches.to_string()
                },
                ms(k.total_ns),
                ms(k.compute_ns),
                ms(k.costs.fault_stall_ns),
                ms(k.costs.transfer_ns),
                k.costs.faults,
                k.costs.migrations,
                mb(k.costs.bytes_migrated + k.costs.memcpy_bytes),
            ));
        }

        s.push_str("\nhot allocations (by bytes moved: migration + memcpy):\n");
        if self.allocs.is_empty() {
            s.push_str("  (none)\n");
        }
        for (i, a) in self.allocs.iter().take(top).enumerate() {
            s.push_str(&format!(
                "  {:>2}. {:<20} base 0x{:<10x} {:>8} migr {:>10.2} MB {:>8} faults {:>10.3} ms\n",
                i + 1,
                a.label,
                a.base,
                a.costs.migrations,
                mb(a.costs.bytes_moved()),
                a.costs.faults,
                ms(a.costs.cost_ns),
            ));
        }

        s.push_str("\nper-(kernel x allocation) cells (by attributed cost):\n");
        if self.cells.is_empty() {
            s.push_str("  (none)\n");
        }
        for c in self.cells.iter().take(top) {
            s.push_str(&format!(
                "  {:<24} {:<20} {:>10.3} ms {:>8} faults {:>8} migr {:>10.2} MB\n",
                c.kernel,
                c.label,
                ms(c.costs.cost_ns),
                c.costs.faults,
                c.costs.migrations,
                mb(c.costs.bytes_migrated + c.costs.memcpy_bytes),
            ));
        }
        s
    }

    /// JSON document (schema `xplacer-profile/1`).
    pub fn to_json(&self) -> Json {
        fn costs_json(c: &CostBreakdown) -> Json {
            let mut j = Json::obj();
            j.set("cost_ns", Json::Num(c.cost_ns))
                .set("fault_stall_ns", Json::Num(c.fault_stall_ns))
                .set("transfer_ns", Json::Num(c.transfer_ns))
                .set("other_ns", Json::Num(c.other_ns))
                .set("faults", c.faults.into())
                .set("migrations", c.migrations.into())
                .set("bytes_migrated", c.bytes_migrated.into())
                .set("memcpy_bytes", c.memcpy_bytes.into())
                .set("duplications", c.duplications.into())
                .set("invalidations", c.invalidations.into())
                .set("evictions", c.evictions.into())
                .set("allocs", c.allocs.into())
                .set("frees", c.frees.into());
            j
        }
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let mut j = Json::obj();
                j.set("name", k.name.as_str().into())
                    .set("launches", k.launches.into())
                    .set("total_ns", Json::Num(k.total_ns))
                    .set("compute_ns", Json::Num(k.compute_ns))
                    .set("costs", costs_json(&k.costs));
                j
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut j = Json::obj();
                j.set("kernel", c.kernel.as_str().into())
                    .set("alloc", c.label.as_str().into());
                if let Some(b) = c.alloc {
                    j.set("base", format!("0x{b:x}").into());
                }
                j.set("costs", costs_json(&c.costs));
                j
            })
            .collect();
        let allocs = self
            .allocs
            .iter()
            .map(|a| {
                let mut j = Json::obj();
                j.set("label", a.label.as_str().into())
                    .set("base", format!("0x{:x}", a.base).into())
                    .set("costs", costs_json(&a.costs));
                j
            })
            .collect();
        let mut events = Json::obj();
        events
            .set("recorded", self.events_recorded.into())
            .set("dropped", self.events_dropped.into());
        let mut j = Json::obj();
        j.set("schema", PROFILE_SCHEMA.into())
            .set("workload", self.workload.as_str().into())
            .set("platform", self.platform.as_str().into())
            .set("elapsed_ns", Json::Num(self.elapsed_ns))
            .set("events", events)
            .set("kernel_launches", self.kernel_launches.into())
            .set("totals", costs_json(&self.totals))
            .set("kernels", Json::Arr(kernels))
            .set("cells", Json::Arr(cells))
            .set("hot_allocs", Json::Arr(allocs));
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{platform, Device, Event, EventLog, Machine, MemAdvise};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn profiled_run() -> (Machine, EventLog) {
        let mut m = Machine::new(platform::intel_pascal());
        let log = Rc::new(RefCell::new(EventLog::with_capacity(1 << 20)));
        m.add_hook(log.clone());
        let a = m.alloc_managed::<f64>(4096);
        let b = m.alloc_managed::<f64>(4096);
        m.mem_advise(a, MemAdvise::SetReadMostly);
        for i in 0..a.len {
            m.st(a, i, 1.0);
            m.st(b, i, 2.0);
        }
        m.launch("reader", a.len, |t, m| {
            let _ = m.ld(a, t);
        });
        m.launch("writer", b.len, |t, m| {
            m.st(b, t, 3.0);
        });
        m.mem_prefetch(b, Device::Cpu);
        m.free(a);
        m.free(b);
        let log = log.borrow().clone();
        (m, log)
    }

    #[test]
    fn totals_match_machine_stats_exactly() {
        let (mut m, log) = profiled_run();
        let elapsed = m.elapsed_ns();
        let p = ProfileReport::build("micro", "intel_pascal", elapsed, &log, &[]);
        assert_eq!(p.events_dropped, 0, "ring must not truncate in this test");
        let s = &m.stats;
        assert_eq!(p.totals.faults, s.faults());
        assert_eq!(p.totals.migrations, s.migrations());
        assert_eq!(p.totals.bytes_migrated, s.bytes_migrated);
        assert_eq!(p.totals.memcpy_bytes, s.memcpy_bytes);
        assert_eq!(p.totals.duplications, s.duplications);
        assert_eq!(p.totals.invalidations, s.invalidations);
        assert_eq!(p.totals.evictions, s.evictions);
        assert_eq!(p.totals.allocs, s.allocs);
        assert_eq!(p.totals.frees, s.frees);
        assert_eq!(p.kernel_launches, s.kernel_launches);
    }

    #[test]
    fn per_kernel_rows_split_compute_from_stalls() {
        let (mut m, log) = profiled_run();
        let elapsed = m.elapsed_ns();
        let p = ProfileReport::build("micro", "intel_pascal", elapsed, &log, &[]);
        let reader = p.kernels.iter().find(|k| k.name == "reader").unwrap();
        assert_eq!(reader.launches, 1);
        assert!(reader.total_ns > 0.0);
        assert!(reader.compute_ns > 0.0, "launch + word costs remain");
        assert!(reader.costs.faults > 0, "GPU first touch faults");
        assert!(
            reader.compute_ns + reader.costs.cost_ns <= reader.total_ns * 1.0000001,
            "attribution never exceeds the span"
        );
        let host = p.kernels.iter().find(|k| k.name == HOST_KERNEL).unwrap();
        assert!(host.costs.allocs == 2 && host.costs.frees == 2);
    }

    #[test]
    fn names_label_hot_allocations() {
        let (mut m, log) = profiled_run();
        let elapsed = m.elapsed_ns();
        // Find the two managed bases from the log's alloc events.
        let bases: Vec<u64> = log
            .events()
            .filter_map(|e| match e.event {
                Event::Alloc { base, .. } => Some(base),
                _ => None,
            })
            .collect();
        let names: Vec<(u64, String)> = bases
            .iter()
            .enumerate()
            .map(|(i, b)| (*b, format!("arr{i}")))
            .collect();
        let p = ProfileReport::build("micro", "intel_pascal", elapsed, &log, &names);
        let hot = p.hottest_alloc().expect("traffic was attributed");
        assert!(hot.label.starts_with("arr"));
        assert!(hot.costs.bytes_migrated > 0);
    }

    #[test]
    fn empty_log_is_an_empty_but_valid_profile() {
        let log = EventLog::new();
        let p = ProfileReport::build("none", "intel_pascal", 0.0, &log, &[]);
        assert!(p.kernels.is_empty() && p.cells.is_empty() && p.allocs.is_empty());
        assert_eq!(p.totals, CostBreakdown::default());
        assert!(p.hottest_alloc().is_none());
        let text = p.render_table(10);
        assert!(text.contains("(none)"));
        let j = p.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some("xplacer-profile/1"));
        assert!(Json::parse(&j.to_string_pretty()).is_ok());
    }

    #[test]
    fn json_and_table_are_deterministic() {
        let (mut m1, log1) = profiled_run();
        let e1 = m1.elapsed_ns();
        let (mut m2, log2) = profiled_run();
        let e2 = m2.elapsed_ns();
        let p1 = ProfileReport::build("micro", "intel_pascal", e1, &log1, &[]);
        let p2 = ProfileReport::build("micro", "intel_pascal", e2, &log2, &[]);
        assert_eq!(
            p1.to_json().to_string_compact(),
            p2.to_json().to_string_compact()
        );
        assert_eq!(p1.render_table(5), p2.render_table(5));
    }
}
