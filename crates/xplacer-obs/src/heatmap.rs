//! CUTHERMO-style page×epoch access heatmaps: where in each allocation the
//! program touches memory, and when.
//!
//! [`HeatmapRecorder`] is a [`MemHook`]: attach it to a machine before its
//! first allocation (alongside the tracer via `Machine::add_hook`) and it
//! buckets every heap access by page and by *epoch*, where a new epoch
//! starts at every kernel launch (or an explicit
//! [`mark_phase`](HeatmapRecorder::mark_phase) call). The result renders
//! as terminal ASCII art — pages down, epochs across, brightness = access
//! count — and as CSV for tooling. Hot rows that only light up in
//! alternating columns are the visual signature of the paper's ping-pong
//! anti-pattern.

use std::fmt::Write as _;

use hetsim::{AccessKind, Addr, Device, MemHook, Op};

/// Brightness ramp, dark to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Maximum heatmap rows per allocation; denser allocations get their pages
/// bucketed.
const MAX_ROWS: usize = 32;

struct AllocHeat {
    base: Addr,
    size: u64,
    label: Option<String>,
    live: bool,
    pages: usize,
    /// `counts[epoch][page]` — grown lazily as epochs appear.
    counts: Vec<Vec<u64>>,
}

impl AllocHeat {
    fn display_name(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!("0x{:x}", self.base),
        }
    }
}

/// Records page×epoch access counts per allocation. Purely observational:
/// attaching it never changes simulation results or timing.
pub struct HeatmapRecorder {
    page_size: u64,
    epoch: usize,
    /// One record per [`Op::Alloc`], in allocation order: an access's
    /// allocation serial is its record's index.
    allocs: Vec<AllocHeat>,
}

impl HeatmapRecorder {
    /// `page_size` must match the machine's platform page size so rows
    /// line up with the UM driver's migration granularity.
    pub fn new(page_size: u64) -> Self {
        assert!(page_size > 0);
        HeatmapRecorder {
            page_size,
            epoch: 0,
            allocs: Vec::new(),
        }
    }

    /// Attach a display label to the allocation at `base` (mirrors the
    /// tracer's diagnostic pragma).
    pub fn name(&mut self, base: Addr, label: &str) {
        if let Some(a) = self.allocs.iter_mut().rev().find(|a| a.base == base) {
            a.label = Some(label.to_string());
        }
    }

    /// Start a new epoch explicitly (phase marker). Kernel launches do
    /// this automatically.
    pub fn mark_phase(&mut self) {
        self.epoch += 1;
    }

    /// The current epoch index.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of tracked allocations.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    /// Count `n` accesses of `size` bytes at `addr` in the record of
    /// allocation `serial`.
    fn touch(&mut self, serial: u64, addr: Addr, size: u32, n: u64) {
        let Some(a) = self.allocs.get_mut(serial as usize) else {
            return; // no record of that allocation
        };
        if addr < a.base || addr >= a.base + a.size {
            return; // not in that allocation
        }
        let epoch = self.epoch;
        let first = ((addr - a.base) / self.page_size) as usize;
        let last = ((addr - a.base + size.max(1) as u64 - 1) / self.page_size) as usize;
        while a.counts.len() <= epoch {
            a.counts.push(vec![0; a.pages]);
        }
        for p in first..=last.min(a.pages - 1) {
            a.counts[epoch][p] += n;
        }
    }

    /// Render every allocation's heatmap as terminal ASCII art.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== page x epoch access heatmap ({} allocations, {} epochs, ramp \"{}\") ===",
            self.allocs.len(),
            self.epoch + 1,
            std::str::from_utf8(RAMP).unwrap()
        );
        for a in &self.allocs {
            let epochs = a.counts.len().max(1);
            let bucket = a.pages.div_ceil(MAX_ROWS);
            let rows = a.pages.div_ceil(bucket);
            // Fold pages into row buckets.
            let mut grid = vec![vec![0u64; epochs]; rows];
            for (e, per_page) in a.counts.iter().enumerate() {
                for (p, &c) in per_page.iter().enumerate() {
                    grid[p / bucket][e] += c;
                }
            }
            let max = grid.iter().flatten().copied().max().unwrap_or(0);
            let _ = writeln!(
                out,
                "--- {} ({} B, {} pages{}, {}) ---",
                a.display_name(),
                a.size,
                a.pages,
                if bucket > 1 {
                    format!(", {bucket} pages/row")
                } else {
                    String::new()
                },
                if a.live { "live" } else { "freed" }
            );
            if max == 0 {
                let _ = writeln!(out, "(never accessed)");
                continue;
            }
            let scale = (RAMP.len() - 1) as f64 / (1.0 + max as f64).ln();
            for (r, row) in grid.iter().enumerate() {
                let _ = write!(out, "page {:>6} |", r * bucket);
                for &c in row {
                    let level = if c == 0 {
                        0
                    } else {
                        (((1.0 + c as f64).ln() * scale).round() as usize).clamp(1, RAMP.len() - 1)
                    };
                    out.push(RAMP[level] as char);
                }
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "            +{} (epoch 0..{}, max {} accesses/cell)",
                "-".repeat(epochs),
                epochs - 1,
                max
            );
        }
        out
    }

    /// CSV dump: one row per non-zero (allocation, page, epoch) cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("alloc,base,page,epoch,accesses\n");
        for a in &self.allocs {
            for (e, per_page) in a.counts.iter().enumerate() {
                for (p, &c) in per_page.iter().enumerate() {
                    if c > 0 {
                        let _ =
                            writeln!(out, "{},0x{:x},{},{},{}", a.display_name(), a.base, p, e, c);
                    }
                }
            }
        }
        out
    }

    /// Total accesses recorded for the allocation at `base` (test hook).
    pub fn total_accesses(&self, base: Addr) -> u64 {
        self.allocs
            .iter()
            .filter(|a| a.base == base)
            .flat_map(|a| a.counts.iter().flatten())
            .sum()
    }
}

impl MemHook for HeatmapRecorder {
    fn on_access(
        &mut self,
        _dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
        serial: u64,
    ) {
        // A read-write is a read plus a write: two touches per element.
        let touches = 1 + u64::from(kind == AccessKind::ReadWrite);
        for i in 0..count {
            self.touch(serial, addr + i * u64::from(elem_size), elem_size, touches);
        }
    }

    fn on_op(&mut self, op: &Op) {
        match *op {
            Op::Alloc { base, size, .. } => {
                let pages = (size.max(1)).div_ceil(self.page_size) as usize;
                self.allocs.push(AllocHeat {
                    base,
                    size: size.max(1),
                    label: None,
                    live: true,
                    pages,
                    counts: Vec::new(),
                });
            }
            Op::Free { base } => {
                if let Some(a) = self
                    .allocs
                    .iter_mut()
                    .rev()
                    .find(|a| a.base == base && a.live)
                {
                    a.live = false;
                }
            }
            Op::Launch { .. } => self.mark_phase(),
            _ => {}
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::AllocKind;

    fn alloc(h: &mut HeatmapRecorder, base: Addr, size: u64) {
        let kind = AllocKind::Managed;
        h.on_op(&Op::Alloc { base, size, kind });
    }

    fn recorder() -> HeatmapRecorder {
        let mut h = HeatmapRecorder::new(4096);
        alloc(&mut h, 0x10_0000, 4 * 4096);
        h.name(0x10_0000, "dom");
        h
    }

    /// One 8-byte access of `kind`.
    fn word(h: &mut HeatmapRecorder, dev: Device, addr: Addr, kind: AccessKind) {
        h.on_access(dev, addr, 8, 1, kind, 0);
    }

    #[test]
    fn accesses_bucket_by_page_and_epoch() {
        let mut h = recorder();
        word(&mut h, Device::Cpu, 0x10_0000, AccessKind::Write); // page 0, epoch 0
        h.on_op(&Op::Launch {
            name: "k",
            stream: hetsim::DEFAULT_STREAM,
            seq: 1,
        });
        word(&mut h, Device::Gpu, 0x10_0000 + 4096, AccessKind::Read); // page 1, epoch 1
        word(&mut h, Device::Gpu, 0x10_0000 + 4096, AccessKind::Read);
        let csv = h.to_csv();
        assert!(csv.contains("dom,0x100000,0,0,1"));
        assert!(csv.contains("dom,0x100000,1,1,2"));
        assert_eq!(h.total_accesses(0x10_0000), 3);
    }

    #[test]
    fn ascii_render_shows_name_and_ramp() {
        let mut h = recorder();
        for i in 0..100 {
            word(
                &mut h,
                Device::Cpu,
                0x10_0000 + (i % 4) * 4096,
                AccessKind::Write,
            );
        }
        let art = h.render_ascii();
        assert!(art.contains("dom"));
        assert!(art.contains("page      0 |"));
        assert!(art.contains("max"));
        // Hottest cell uses a bright ramp character.
        assert!(art.contains('@') || art.contains('%') || art.contains('#'));
    }

    #[test]
    fn untouched_allocation_renders_as_such() {
        let h = recorder();
        assert!(h.render_ascii().contains("(never accessed)"));
        assert_eq!(h.to_csv().lines().count(), 1, "header only");
    }

    #[test]
    fn explicit_phase_marker_advances_epoch() {
        let mut h = recorder();
        assert_eq!(h.epoch(), 0);
        h.mark_phase();
        word(&mut h, Device::Cpu, 0x10_0000, AccessKind::Write);
        assert!(h.to_csv().contains("dom,0x100000,0,1,1"));
    }

    #[test]
    fn large_allocations_bucket_rows() {
        let mut h = HeatmapRecorder::new(4096);
        let pages = 1000u64;
        alloc(&mut h, 0x20_0000, pages * 4096);
        for p in 0..pages {
            word(&mut h, Device::Cpu, 0x20_0000 + p * 4096, AccessKind::Write);
        }
        let art = h.render_ascii();
        let rows = art.lines().filter(|l| l.starts_with("page ")).count();
        assert!(rows <= MAX_ROWS, "{rows} rows exceed the cap");
        assert!(art.contains("pages/row"));
    }

    #[test]
    fn unknown_addresses_and_free_are_tolerated() {
        let mut h = recorder();
        word(&mut h, Device::Cpu, 0xDEAD_0000, AccessKind::Read); // not an allocation
        h.on_op(&Op::Free { base: 0x10_0000 });
        word(&mut h, Device::Cpu, 0x10_0000, AccessKind::Write); // still recorded after free
        assert!(h.render_ascii().contains("freed"));
        assert_eq!(h.total_accesses(0x10_0000), 1);
    }

    #[test]
    fn read_write_counts_as_two_touches() {
        let mut h = recorder();
        word(&mut h, Device::Cpu, 0x10_0000, AccessKind::ReadWrite);
        assert_eq!(h.total_accesses(0x10_0000), 2);
        // A range counts per element, a read-write range twice per element.
        h.on_access(Device::Gpu, 0x10_0000, 4, 2048, AccessKind::Read, 0);
        h.on_access(Device::Gpu, 0x10_0000, 4, 8, AccessKind::ReadWrite, 0);
        assert_eq!(h.total_accesses(0x10_0000), 2 + 2048 + 16);
        let csv = h.to_csv();
        assert!(csv.contains("dom,0x100000,0,0,1042"), "{csv}");
        assert!(csv.contains("dom,0x100000,1,0,1024"), "{csv}");
    }
}
