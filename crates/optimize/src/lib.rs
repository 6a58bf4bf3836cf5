//! Closed-loop auto-placement optimizer (the paper's workflow, closed):
//! trace a baseline run, turn its shadow state into candidate placement
//! plans (`cudaMemAdvise` hints, prefetch points, and — for MiniCU
//! sources — the split-object rewrite), search plan combinations with a
//! beam search evaluated on a deterministic worker pool, and report the
//! winner with profile-diff evidence.
//!
//! Everything downstream of the baseline trace is a pure function of
//! (target, platform, search knobs): the report is byte-identical across
//! worker counts and across runs.

pub mod eval;
pub mod report;
pub mod search;

use std::collections::BTreeMap;

use hetsim::Platform;
use xplacer_core::Plan;

pub use eval::{CandidateSet, EvalOutcome, ResultsFingerprint};
pub use report::{OptimizeReport, ReportRow, OPTIMIZE_SCHEMA};
pub use search::{beam_search, Evaluation, SearchConfig, SearchResult};

/// What to optimize.
#[derive(Debug, Clone)]
pub enum Target {
    /// A built-in workload by name (see `xplacer_workloads::WORKLOAD_NAMES`).
    Workload(String),
    /// A MiniCU program: display name + source text.
    Program { name: String, source: String },
}

impl Target {
    /// Display name for reports.
    pub fn name(&self) -> &str {
        match self {
            Target::Workload(w) => w,
            Target::Program { name, .. } => name,
        }
    }
}

/// Maximum search rounds (and thus maximum plan size) outside smoke mode.
const MAX_ROUNDS: usize = 3;

/// Optimizer knobs. Worker count affects wall time only.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    pub platform: Platform,
    /// Evaluation pool width (≥ 1).
    pub jobs: usize,
    /// Beam width.
    pub beam: usize,
    /// Smoke mode: one round, for CI.
    pub smoke: bool,
}

impl OptimizeConfig {
    /// Defaults for `platform`; smoke mode caps the search at one round.
    pub fn new(platform: Platform) -> OptimizeConfig {
        OptimizeConfig {
            platform,
            jobs: 1,
            beam: 2,
            smoke: false,
        }
    }

    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            MAX_ROUNDS
        }
    }
}

/// Run the closed loop: baseline → candidates → search → report.
pub fn optimize(target: &Target, cfg: &OptimizeConfig) -> Result<OptimizeReport, String> {
    let (name, pf) = (target.name(), &cfg.platform);
    // A program is parsed, and stripped of its diagnostics, once per
    // search; one closure evaluates the baseline and every candidate.
    let program = match target {
        Target::Workload(_) => None,
        Target::Program { source, .. } => Some(eval::parse_program(name, source)?),
    };
    let evaluate =
        |plan: &Plan, site_of_base: &BTreeMap<u64, usize>, want_candidates| match &program {
            None => eval::eval_workload(name, pf, plan, want_candidates),
            Some(prog) => eval::eval_program(name, prog, pf, plan, site_of_base, want_candidates),
        };
    let (baseline, candidates) =
        evaluate(&Plan::empty(), &BTreeMap::new(), true).map_err(|e| match program {
            Some(_) => format!("{name}: {e}"),
            None => e,
        })?;
    let candidates = candidates.expect("baseline evaluation enumerates candidates");

    let scfg = SearchConfig {
        jobs: cfg.jobs.max(1),
        beam: cfg.beam.max(1),
        max_rounds: cfg.rounds(),
    };
    let result = beam_search(&baseline, &candidates.items, &scfg, |plan| {
        Ok(evaluate(plan, &candidates.site_of_base, false)?.0)
    })?;

    Ok(OptimizeReport::build(
        name,
        pf.name,
        scfg.beam,
        scfg.max_rounds,
        cfg.smoke,
        candidates.items.len(),
        candidates.skipped,
        &baseline,
        result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::platform;

    #[test]
    fn smoke_optimize_lulesh_beats_or_matches_baseline() {
        let mut cfg = OptimizeConfig::new(platform::intel_pascal());
        cfg.smoke = true;
        cfg.jobs = 2;
        let report = optimize(&Target::Workload("lulesh".into()), &cfg).unwrap();
        assert!(report.winner_ns <= report.baseline_ns);
        assert!(report.candidates > 0);
        let text = report.render();
        assert!(text.contains("winner:"), "{text}");
        let json = report.to_json().to_string_pretty();
        assert!(json.contains(OPTIMIZE_SCHEMA));
        assert!(
            !json.contains("jobs"),
            "worker count must not leak into the report"
        );
    }

    #[test]
    fn program_target_smoke() {
        let src = r#"
            int main() {
                int* a;
                cudaMallocManaged((void**)&a, 4096);
                for (int i = 0; i < 1024; i = i + 1) { a[i] = i; }
                scale<<<4, 256>>>(a);
                int sum = 0;
                for (int i = 0; i < 1024; i = i + 1) { sum = sum + a[i]; }
                printf("%d\n", sum);
                return 0;
            }
            __global__ void scale(int* a) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                a[i] = a[i] * 2;
            }
        "#;
        let mut cfg = OptimizeConfig::new(platform::intel_pascal());
        cfg.smoke = true;
        let report = optimize(
            &Target::Program {
                name: "scale.cu".into(),
                source: src.into(),
            },
            &cfg,
        )
        .unwrap();
        assert!(report.winner_ns <= report.baseline_ns);
    }
}
