//! Fig. 9: Smith-Waterman speedup of the rotated-matrix version over the
//! baseline, for input lengths spanning the GPU-memory boundary.
//!
//! Paper: lengths 5000/25000/45000 fit in GPU memory, 46000 exceeds it;
//! the rotated version wins modestly in-memory and massively once the
//! baseline starts thrashing (baseline 24.9s vs ~2.3s at 46000 on
//! Pascal). We run at 1/10 linear scale with GPU memory scaled by the
//! same factor squared, which preserves the fits/thrashes boundary.

use hetsim::Device;
use hetsim::{platform, Machine, MemAdvise, Platform};
use xplacer_workloads::smith_waterman::{run_sw, SwConfig, SwVariant};

use crate::{fmt_speedup, fmt_time, header, Grid};

/// 1/10 of the paper's input lengths.
pub const LENGTHS: [usize; 4] = [500, 2500, 4500, 4600];

/// Scaled GPU memory: at 1/10 linear scale, H + P for length 4500 span
/// ~2478 pages of 64 KiB and length 4600 spans ~2588; 158 MiB (2528
/// pages) puts the capacity boundary between them — the same
/// fits/thrashes split as 45000 vs 46000 against 16 GiB in the paper.
pub const GPU_MEM_BYTES: u64 = 158 * 1024 * 1024;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub platform: &'static str,
    pub len: usize,
    pub baseline_ns: f64,
    pub rotated_ns: f64,
    pub baseline_evictions: u64,
    pub rotated_evictions: u64,
}

impl Cell {
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.rotated_ns
    }
}

fn run_one(pf: &Platform, len: usize, variant: SwVariant) -> (f64, u64) {
    let mut m = Machine::new(pf.clone());
    m.set_gpu_mem_bytes(GPU_MEM_BYTES);
    let cfg = SwConfig::square(len);
    // Paper setup: setPreferredLocation(GPU) on the Intel+Pascal system
    // for all unified allocations; not set on IBM+Volta (it degraded the
    // largest input there).
    if pf.name == "Intel+Pascal" {
        let r = {
            let mut sw =
                xplacer_workloads::smith_waterman::SmithWaterman::setup(&mut m, cfg, variant);
            for (addr, _) in sw.names() {
                let a = m.find_alloc(addr).expect("allocated").size;
                let _ = m.try_mem_advise(addr, a, MemAdvise::SetPreferredLocation(Device::Gpu));
            }
            m.reset_metrics();
            sw.run(&mut m, |_, _| {});
            let _ = sw.score(&mut m);
            m.elapsed_ns()
        };
        (r, m.stats.evictions)
    } else {
        let r = run_sw(&mut m, cfg, variant);
        (r.elapsed_ns, r.stats.evictions)
    }
}

/// Run the sweep on the two platforms of the figure.
pub fn measure(quick: bool) -> Vec<Cell> {
    let lengths: &[usize] = if quick { &LENGTHS[..2] } else { &LENGTHS };
    let platforms = [platform::intel_pascal(), platform::power9_volta()];
    let mut cells = Vec::new();
    for pf in &platforms {
        for &len in lengths {
            let (b, be) = run_one(pf, len, SwVariant::Baseline);
            let (r, re) = run_one(pf, len, SwVariant::Rotated);
            cells.push(Cell {
                platform: pf.name,
                len,
                baseline_ns: b,
                rotated_ns: r,
                baseline_evictions: be,
                rotated_evictions: re,
            });
        }
    }
    cells
}

/// Render the figure.
pub fn report(quick: bool) -> String {
    let cells = measure(quick);
    let mut out = header(
        "Fig. 9",
        "Smith-Waterman: rotated-matrix speedup over baseline (1/10 linear scale)",
    );
    out.push_str(&format!(
        "inputs (scaled /10): {:?}; GPU memory scaled to {} MiB so the largest\n\
         input exceeds device memory exactly as 46000 exceeds 16 GiB in the paper\n\n",
        LENGTHS,
        GPU_MEM_BYTES >> 20
    ));
    for pname in ["Intel+Pascal", "IBM+Volta"] {
        let rows: Vec<&Cell> = cells.iter().filter(|c| c.platform == pname).collect();
        if rows.is_empty() {
            continue;
        }
        let mut g = Grid::new(
            format!("{pname} (speedup over baseline)"),
            &["speedup", "baseline", "rotated", "evictions base/rot"],
        );
        for c in rows {
            g.row(
                format!("len {}", c.len),
                vec![
                    fmt_speedup(c.speedup()),
                    fmt_time(c.baseline_ns),
                    fmt_time(c.rotated_ns),
                    format!("{}/{}", c.baseline_evictions, c.rotated_evictions),
                ],
            );
        }
        out.push_str(&g.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscribed_input_thrashes_baseline_only() {
        // Run just the largest input on Pascal.
        let pf = platform::intel_pascal();
        let (b, be) = run_one(&pf, LENGTHS[3], SwVariant::Baseline);
        let (r, re) = run_one(&pf, LENGTHS[3], SwVariant::Rotated);
        assert!(
            b / r > 2.0,
            "expected large speedup at the oversubscribed size, got {:.2} ({} vs {})",
            b / r,
            b,
            r
        );
        assert!(be > 10 * re.max(1), "evictions {be} vs {re}");
    }

    #[test]
    fn in_memory_input_speedup_is_modest() {
        let pf = platform::intel_pascal();
        let (b, _) = run_one(&pf, 500, SwVariant::Baseline);
        let (r, _) = run_one(&pf, 500, SwVariant::Rotated);
        let s = b / r;
        assert!((0.7..2.5).contains(&s), "in-memory speedup {s:.2}");
    }
}
