//! `optimize`: one op is one `optimize()` call run to a placement
//! verdict, with `jobs = 1`, on a target that yields candidates.
//!
//! Program targets (source rewrite and split-object path) are MiniCU
//! templates shared with the `minicu` workload, minus their `free` calls:
//! the optimizer only plans for allocations still live at exit. The
//! workload target (runtime-hint path) is the built-in `sw`, full
//! search, alternating between the presets; of the built-in workloads
//! only `sw` and `lulesh` yield candidates, and `lulesh` takes seconds
//! per call.
//!
//! `sw` costs the same ~0.5 s every time, so its ops form one point mass
//! of latency. At a fifth of the ops it sits above every program op and
//! holds p90 inside it, clear of p50, which falls among the program ops
//! whose sizes are continuous; in smoke mode (~0.13 s) the mass sat at
//! p50 and moved it 20 % between seeds.

use hetsim::platform;
use xplacer_obs::Json;
use xplacer_optimize::{optimize, OptimizeConfig, OptimizeReport, Target};

use crate::minicu::{self, size, Generator};
use crate::rng::Rng;
use crate::{spans, Counts, Plan, Workload};

pub fn plan() -> Plan<Optimize> {
    Plan {
        ops_per_s: 5.5,
        setup_reps: 51,
        warmup: KINDS.len(),
        heavy: &["optimize.program", "optimize.workload"],
        setup: Optimize::setup,
    }
}

/// One block of the op list: the workload target and four program
/// templates with their size ranges.
const KINDS: [Kind; 5] = [
    Kind::Sw,
    Kind::Program("alternating", minicu::alternating, (384, 1536)),
    Kind::Program("sweep", minicu::sweep, (8 << 10, 32 << 10)),
    Kind::Program("wavefront", minicu::wavefront, (6, 12)),
    Kind::Program("large", minicu::large_source, (60, 240)),
];

#[derive(Clone, Copy)]
enum Kind {
    Sw,
    Program(&'static str, Generator, (i64, i64)),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    pub target_name: String,
    /// MiniCU source, or `None` for the built-in `sw` workload.
    pub source: Option<String>,
    pub nvlink: bool,
}

/// Drop the `free`/`cudaFree` lines of a template.
fn without_frees(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !l.trim_start().starts_with("free(") && !l.trim_start().starts_with("cudaFree(")
        })
        .flat_map(|l| [l, "\n"])
        .collect()
}

pub fn cases(seed: u64, n: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, "optimize");
    let per = n.div_ceil(KINDS.len());
    let mut by_kind: Vec<Vec<Case>> = KINDS
        .iter()
        .map(|kind| match *kind {
            Kind::Sw => (0..per)
                .map(|j| Case {
                    target_name: "sw".into(),
                    source: None,
                    nvlink: j % 2 == 1,
                })
                .collect(),
            Kind::Program(name, gen, range) => rng
                .strata(per)
                .into_iter()
                .map(|u| {
                    let src = gen(size(u, range), &mut rng);
                    Case {
                        target_name: format!("{name}_{}", src.name),
                        source: Some(without_frees(&src.text)),
                        nvlink: false,
                    }
                })
                .collect(),
        })
        .collect();
    let mut out = Vec::with_capacity(per * KINDS.len());
    for _ in 0..per {
        let mut order: Vec<usize> = (0..KINDS.len()).collect();
        rng.shuffle(&mut order);
        out.extend(
            order
                .into_iter()
                .map(|k| by_kind[k].pop().expect("per cases per kind")),
        );
    }
    out
}

pub struct Optimize {
    pub cases: Vec<Case>,
}

impl Optimize {
    pub fn setup(seed: u64, n: usize) -> Optimize {
        Optimize {
            cases: cases(seed, n),
        }
    }
}

pub struct Done {
    report: OptimizeReport,
    json: String,
}

impl Workload for Optimize {
    type Done = Done;

    fn op_count(&self) -> usize {
        self.cases.len()
    }

    fn run(&self, i: usize) -> Result<Done, String> {
        let case = &self.cases[i];
        let pf = if case.nvlink {
            platform::power9_volta()
        } else {
            platform::intel_pascal()
        };
        let mut cfg = OptimizeConfig::new(pf);
        cfg.jobs = 1;
        let (layer, target) = match &case.source {
            Some(source) => (
                "optimize.program",
                Target::Program {
                    name: case.target_name.clone(),
                    source: source.clone(),
                },
            ),
            None => (
                "optimize.workload",
                Target::Workload(case.target_name.clone()),
            ),
        };
        spans::span(layer, || {
            let report = optimize(&target, &cfg)?;
            std::hint::black_box(report.render());
            let json = report.to_json().to_string_pretty();
            Ok(Done { report, json })
        })
    }

    fn verify(&self, i: usize, d: Done, counts: &mut Counts) -> Result<(), String> {
        let case = &self.cases[i];
        let r = &d.report;
        if r.winner_ns > r.baseline_ns {
            return Err(format!(
                "{}: winner {} ns is slower than the baseline {} ns",
                case.target_name, r.winner_ns, r.baseline_ns
            ));
        }
        Json::parse(&d.json).map_err(|e| format!("{}: report JSON: {e}", case.target_name))?;
        let accepted = r
            .rows
            .iter()
            .filter(|row| row.simulated_ns.is_some())
            .count();
        for (k, v) in [
            ("optimize.evals", r.rows.len() as f64 + 1.0),
            ("optimize.rows", r.rows.len() as f64),
            ("optimize.accepted", accepted as f64),
            ("optimize.ops", 1.0),
            (
                "optimize.improved",
                (r.winner_ns < r.baseline_ns) as u8 as f64,
            ),
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
    fn every_target_kind_yields_candidates_and_verifies() {
        let cases = cases(4, KINDS.len());
        assert_eq!(cases, super::cases(4, KINDS.len()));
        let w = Optimize { cases };
        let mut counts = Counts::new();
        for i in 0..w.op_count() {
            let done = w.run(i).unwrap_or_else(|e| panic!("{e}"));
            assert!(done.report.candidates > 0, "{}", w.cases[i].target_name);
            w.verify(i, done, &mut counts)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(counts["optimize.ops"], KINDS.len() as f64);
    }
}
