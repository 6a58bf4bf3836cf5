//! `native`: one op diagnoses one built-in workload the way
//! `run --plain`, `profile`/`blame` and `check` do — a plain run, a run
//! with `Tracer` + `EventLog` followed by `analyze` and the profile and
//! blame folds, and a checked run.
//!
//! The seed picks, per op, the platform preset (PCIe fault path or NVLink
//! remote path), whether GPU memory fits or is oversubscribed (eviction
//! path, 64–256 KiB), and whether `SetReadMostly` is applied in
//! `after_setup` (read-duplication path). Every workload appears equally
//! often and every combination of those three choices equally often per
//! workload, so another seed changes sizes and order but not the mix.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hetsim::{platform, Addr, EventLog, Machine, MemAdvise, Platform, Stats};
use xplacer_check::{check_workload, CheckOptions, CheckOutcome};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_obs::{BlameReport, EventTrace, ProfileReport};
use xplacer_workloads::{register_names, run_workload, WORKLOAD_NAMES};

use crate::rng::Rng;
use crate::{spans, Counts, Plan, Workload};

/// Ring deep enough that no workload drops events (`xplacer profile`
/// uses the same depth), so the profile conserves the machine counters.
const RING: usize = 1 << 21;
/// GPU memory sizes: the data fits, or 1, 2 or 3 pages of the 64 KiB
/// presets (64–256 KiB), where lulesh and sw evict.
const MEM_LEVELS: usize = 4;
/// Page size of both presets.
const PAGE: u64 = 64 << 10;
/// Platform × advice × memory level.
const COMBOS: usize = 2 * 2 * MEM_LEVELS;

pub fn plan() -> Plan<Native> {
    Plan {
        ops_per_s: 6.4,
        setup_reps: 9,
        warmup: WORKLOAD_NAMES.len(),
        heavy: &[
            "workloads.setup",
            "hetsim.plain",
            "core.traced",
            "core.analyze",
            "check.run",
        ],
        setup: Native::setup,
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    pub workload: &'static str,
    pub nvlink: bool,
    /// Oversubscribed GPU memory size, or `None` when the data fits.
    pub gpu_mem: Option<u64>,
    pub read_mostly: bool,
}

impl Case {
    fn platform(&self) -> Platform {
        let mut pf = if self.nvlink {
            platform::power9_volta()
        } else {
            platform::intel_pascal()
        };
        if let Some(bytes) = self.gpu_mem {
            pf.gpu_mem_bytes = bytes;
        }
        pf
    }

    /// `after_setup` placement: read-duplicate every named allocation
    /// that is managed (the advice is refused on the others).
    fn advise(&self, m: &mut Machine, names: &[(Addr, String)]) {
        if !self.read_mostly {
            return;
        }
        for (addr, _) in names {
            let Ok(a) = m.find_alloc(*addr) else { continue };
            let (base, size) = (a.base, a.size);
            let _ = m.try_mem_advise(base, size, MemAdvise::SetReadMostly);
        }
    }
}

/// The op list: `n` rounded up to whole rounds of every workload in every
/// combination, interleaved in blocks that each hold all eight workloads.
/// Oversubscribed sizes are continuous, stratified within each page
/// count: the simulator sizes GPU memory in whole pages, so every seed
/// gets the same number of cases per page count.
pub fn cases(seed: u64, n: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, "native");
    let per = n.div_ceil(WORKLOAD_NAMES.len()).next_multiple_of(COMBOS);
    let mut by_workload: Vec<Vec<Case>> = WORKLOAD_NAMES
        .iter()
        .map(|w| {
            let mut combos: Vec<usize> = (0..per).map(|j| j % COMBOS).collect();
            rng.shuffle(&mut combos);
            let mut jitter: Vec<_> = (0..MEM_LEVELS)
                .map(|_| rng.strata(per / COMBOS * 4).into_iter())
                .collect();
            combos
                .into_iter()
                .map(|c| {
                    let level = c / 4;
                    Case {
                        workload: w,
                        nvlink: c & 1 != 0,
                        read_mostly: c & 2 != 0,
                        gpu_mem: (level > 0).then(|| {
                            let u = jitter[level].next().expect("one size per case");
                            ((level as f64 + u) * PAGE as f64) as u64
                        }),
                    }
                })
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(per * WORKLOAD_NAMES.len());
    for _ in 0..per {
        let mut order: Vec<usize> = (0..WORKLOAD_NAMES.len()).collect();
        rng.shuffle(&mut order);
        out.extend(
            order
                .into_iter()
                .map(|w| by_workload[w].pop().expect("per cases per workload")),
        );
    }
    out
}

pub struct Native {
    pub cases: Vec<Case>,
    /// Check value of each workload's plain run on the default platform:
    /// placement, platform and observers must never change it.
    reference: BTreeMap<&'static str, u64>,
}

impl Native {
    pub fn setup(seed: u64, n: usize) -> Native {
        let reference = WORKLOAD_NAMES
            .iter()
            .map(|w| {
                let mut m = Machine::new(platform::intel_pascal());
                let (check, _) = run_workload(&mut m, w, |_, _| {})
                    .unwrap_or_else(|e| panic!("reference run of {w}: {e}"));
                (*w, check.to_bits())
            })
            .collect();
        Native {
            cases: cases(seed, n),
            reference,
        }
    }
}

/// Run `case` on `m` inside span `layer`, with `workloads.setup` as the
/// child span covering `run_workload` up to `after_setup`.
fn phased(
    layer: &'static str,
    m: &mut Machine,
    case: &Case,
    mut on_setup: impl FnMut(&[(Addr, String)]),
) -> Result<f64, String> {
    spans::span(layer, || {
        let depth = spans::open_depth();
        spans::begin("workloads.setup");
        let r = run_workload(m, case.workload, |m, names| {
            spans::end();
            on_setup(names);
            case.advise(m, names);
        });
        spans::close_to(depth);
        r.map(|(check, _)| check)
    })
}

pub struct Done {
    plain_check: f64,
    plain_stats: Stats,
    traced_check: f64,
    traced_stats: Stats,
    sim_ns: f64,
    recorded: u64,
    dropped: u64,
    findings: usize,
    profile: ProfileReport,
    blame: BlameReport,
    checked: CheckOutcome,
}

impl Workload for Native {
    type Done = Done;

    fn op_count(&self) -> usize {
        self.cases.len()
    }

    fn run(&self, i: usize) -> Result<Done, String> {
        let case = &self.cases[i];
        let pf = case.platform();

        let mut m = Machine::new(pf.clone());
        let plain_check = phased("hetsim.plain", &mut m, case, |_| {})?;
        let plain_stats = m.stats.clone();

        let mut m = Machine::new(pf.clone());
        let tracer = xplacer_core::attach_tracer(&mut m);
        let log = Rc::new(RefCell::new(EventLog::with_capacity(RING)));
        m.add_hook(log.clone());
        let traced_check = phased("core.traced", &mut m, case, |names| {
            register_names(&tracer, names)
        })?;
        // `elapsed_ns` syncs the device through the hooks, so it must run
        // before anything borrows the log.
        let sim_ns = spans::span("core.traced", || m.elapsed_ns());

        let (report, names) = spans::span("core.analyze", || {
            let smt = &tracer.borrow().smt;
            let report = analyze(smt, &AnalysisConfig::default());
            let names: Vec<(u64, String)> = xplacer_core::summarize(smt, false)
                .into_iter()
                .map(|s| (s.base, s.name))
                .collect();
            (report, names)
        });
        let log = log.borrow();
        let profile = spans::span("obs.profile", || {
            let p = ProfileReport::build(case.workload, pf.name, sim_ns, &log, &names);
            std::hint::black_box(p.render_table(10));
            p
        });
        let blame = spans::span("obs.blame", || {
            let trace = EventTrace::from_recording(case.workload, &pf, sim_ns, &log, names);
            let b = BlameReport::build(&trace);
            std::hint::black_box(b.render(10));
            b
        });

        let opts = CheckOptions {
            platform: pf,
            ..CheckOptions::default()
        };
        let checked = spans::span("check.run", || check_workload(case.workload, &opts))?;
        Ok(Done {
            plain_check,
            plain_stats,
            traced_check,
            traced_stats: m.stats.clone(),
            sim_ns,
            recorded: log.total_recorded(),
            dropped: log.dropped(),
            findings: report.len(),
            profile,
            blame,
            checked,
        })
    }

    fn verify(&self, i: usize, d: Done, counts: &mut Counts) -> Result<(), String> {
        let case = &self.cases[i];
        let want = self.reference[case.workload];
        let checked = d
            .checked
            .stdout
            .strip_prefix("check value: ")
            .and_then(|s| s.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("checked run printed `{}`", d.checked.stdout.trim()))?;
        for (run, v) in [
            ("plain", d.plain_check),
            ("traced", d.traced_check),
            ("checked", checked),
        ] {
            if v.to_bits() != want {
                return Err(format!(
                    "{case:?}: {run} check value {v} differs from the reference {}",
                    f64::from_bits(want)
                ));
            }
        }
        let s = &d.traced_stats;
        if d.plain_stats != *s {
            return Err(format!("{case:?}: observers changed the machine counters"));
        }
        let t = &d.profile.totals;
        if d.dropped != 0
            || (
                t.faults,
                t.migrations,
                t.bytes_migrated,
                t.evictions,
                t.allocs,
                t.frees,
            ) != (
                s.faults(),
                s.migrations(),
                s.bytes_migrated,
                s.evictions,
                s.allocs,
                s.frees,
            )
            || d.profile.kernel_launches != s.kernel_launches
        {
            return Err(format!("{case:?}: profile totals do not conserve Stats"));
        }
        let ticks: u64 = d.blame.rows.iter().map(|r| r.blame_ticks).sum();
        if ticks != d.blame.path_ticks {
            return Err(format!(
                "{case:?}: blame ticks sum to {ticks}, path has {}",
                d.blame.path_ticks
            ));
        }
        if !d.checked.report.clean() {
            return Err(format!(
                "{case:?}: checker reported {} findings",
                d.checked.report.findings.len()
            ));
        }
        for (k, v) in [
            ("hetsim.accesses", s.accesses() as f64),
            ("hetsim.faults", s.faults() as f64),
            ("hetsim.migrations", s.migrations() as f64),
            ("hetsim.evictions", s.evictions as f64),
            (
                "hetsim.bytes_moved_mb",
                (s.bytes_migrated + s.bytes_evicted + s.memcpy_bytes) as f64 / (1 << 20) as f64,
            ),
            ("hetsim.sim_ms", d.sim_ns / 1e6),
            ("hetsim.events", d.recorded as f64),
            ("hetsim.events_dropped", d.dropped as f64),
            ("core.findings", d.findings as f64),
            ("check.findings", d.checked.report.findings.len() as f64),
        ] {
            *counts.entry(k).or_default() += v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_balanced_and_seeded() {
        let a = cases(5, 100);
        assert_eq!(a, cases(5, 100), "same seed, same op list");
        assert_ne!(a, cases(6, 100), "another seed reorders and resizes");
        assert_eq!(a.len(), 128);
        let pages = |c: &Case| c.gpu_mem.map_or(0, |b| (b / PAGE) as usize);
        for w in WORKLOAD_NAMES {
            let mine: Vec<&Case> = a.iter().filter(|c| c.workload == w).collect();
            assert_eq!(mine.len(), COMBOS);
            let mut combos: Vec<(bool, bool, usize)> = mine
                .iter()
                .map(|c| (c.nvlink, c.read_mostly, pages(c)))
                .collect();
            combos.sort();
            combos.dedup();
            assert_eq!(combos.len(), COMBOS, "{w}: every combination once");
            assert!(mine
                .iter()
                .filter_map(|c| c.gpu_mem)
                .all(|b| (64 << 10..256 << 10).contains(&b)));
        }
        for block in a.chunks(WORKLOAD_NAMES.len()) {
            let mut names: Vec<&str> = block.iter().map(|c| c.workload).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), WORKLOAD_NAMES.len());
        }
    }
}
