//! Beam search over placement plans, evaluated on the deterministic
//! worker pool.
//!
//! Each round extends every frontier plan by one compatible candidate
//! action, evaluates the batch with [`xplacer_core::run_ordered`] (results
//! merge in submission order, so the evaluation log — and everything the
//! report derives from it — is identical for any `--jobs` value), and
//! keeps the `beam` cheapest plans as the next frontier. The search only
//! continues while a round improves *strictly* on the best simulated time
//! seen, which guarantees the winner is never worse than the baseline.
//!
//! Safety gate: a candidate whose [`ResultsFingerprint`] differs from the
//! baseline's is rejected on the spot — the optimizer never recommends a
//! plan that changes what the program computes, even if a rewrite bug
//! were to slip through.

use std::collections::BTreeSet;

use xplacer_core::{run_ordered, Plan, PlanItem};

use crate::eval::EvalOutcome;

/// Search knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Worker count for candidate evaluation (≥ 1; affects wall time
    /// only, never output).
    pub jobs: usize,
    /// Frontier width per round.
    pub beam: usize,
    /// Maximum plan size (one action is added per round).
    pub max_rounds: usize,
}

/// One evaluated plan, in deterministic (round, submission) order.
#[derive(Debug)]
pub struct Evaluation {
    pub plan: Plan,
    /// 1-based round the plan was tried in.
    pub round: usize,
    /// The outcome, or why the plan was rejected.
    pub result: Result<EvalOutcome, String>,
}

/// What the search found.
#[derive(Debug)]
pub struct SearchResult {
    /// The winning plan; empty when nothing beat the baseline.
    pub best_plan: Plan,
    /// Outcome of the winning plan (the baseline outcome when
    /// `best_plan` is empty).
    pub best: EvalOutcome,
    /// Every evaluation, in the order plans were submitted.
    pub evaluations: Vec<Evaluation>,
    /// Rounds actually run.
    pub rounds_run: usize,
}

/// Run the search. `eval` is called from pool workers, so it must build
/// its own machine per call; errors it returns reject the plan rather
/// than aborting the search. A worker panic aborts with a spanned error.
pub fn beam_search(
    baseline: &EvalOutcome,
    candidates: &[PlanItem],
    cfg: &SearchConfig,
    eval: impl Fn(&Plan) -> Result<EvalOutcome, String> + Sync,
) -> Result<SearchResult, String> {
    let mut best_plan = Plan::empty();
    let mut best_ns = baseline.simulated_ns;
    let mut best_outcome = baseline.clone();
    let mut frontier = vec![Plan::empty()];
    let mut seen: BTreeSet<String> = BTreeSet::from([Plan::empty().key()]);
    let mut evaluations = Vec::new();
    let mut rounds_run = 0;

    for round in 1..=cfg.max_rounds {
        let mut batch = Vec::new();
        for f in &frontier {
            for c in candidates {
                if !f.allows(c) {
                    continue;
                }
                let p = f.with(c.clone());
                if seen.insert(p.key()) {
                    batch.push(p);
                }
            }
        }
        if batch.is_empty() {
            break;
        }
        rounds_run = round;

        let descs: Vec<String> = batch.iter().map(|p| p.describe()).collect();
        let results = run_ordered(cfg.jobs, batch.clone(), |_, p: Plan| eval(&p))
            .map_err(|e| format!("evaluation pool failed: {e} (plan `{}`)", descs[e.job]))?;

        let start = evaluations.len();
        for (plan, result) in batch.into_iter().zip(results) {
            let result = match result {
                Ok(o) if o.fingerprint != baseline.fingerprint => {
                    Err("rejected: plan changes program results (fingerprint mismatch)".to_string())
                }
                other => other,
            };
            evaluations.push(Evaluation {
                plan,
                round,
                result,
            });
        }

        // Rank this round's survivors; ties break on the plan key so the
        // frontier is insertion-order independent.
        let mut ranked: Vec<(f64, String, &Plan)> = evaluations[start..]
            .iter()
            .filter_map(|e| {
                e.result
                    .as_ref()
                    .ok()
                    .map(|o| (o.simulated_ns, e.plan.key(), &e.plan))
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let improved = ranked.first().map(|r| r.0 < best_ns).unwrap_or(false);
        if let Some((ns, _, plan)) = ranked.first() {
            if *ns < best_ns {
                best_ns = *ns;
                best_plan = (*plan).clone();
                let winner_key = best_plan.key();
                best_outcome = evaluations[start..]
                    .iter()
                    .find(|e| e.plan.key() == winner_key)
                    .and_then(|e| e.result.as_ref().ok())
                    .expect("ranked entries come from Ok evaluations")
                    .clone();
            }
        }
        if !improved {
            break;
        }
        frontier = ranked
            .into_iter()
            .take(cfg.beam.max(1))
            .map(|(_, _, p)| p.clone())
            .collect();
    }

    Ok(SearchResult {
        best_plan,
        best: best_outcome,
        evaluations,
        rounds_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ResultsFingerprint;
    use hetsim::{Device, MemAdvise};
    use std::collections::BTreeMap;
    use xplacer_core::PlanAction;

    fn outcome(ns: f64, check: &str) -> EvalOutcome {
        EvalOutcome {
            simulated_ns: ns,
            stats: hetsim::Stats::default(),
            digest: xplacer_obs::RunDigest {
                source: "test".into(),
                schema: "test/1".into(),
                workload: "w".into(),
                platform: "p".into(),
                elapsed_ns: ns,
                kernels: BTreeMap::new(),
                allocs: BTreeMap::new(),
                cells: BTreeMap::new(),
            },
            fingerprint: ResultsFingerprint {
                check: check.to_string(),
                mem: BTreeMap::new(),
            },
        }
    }

    fn item(base: u64, action: PlanAction) -> PlanItem {
        PlanItem {
            name: format!("a{base:x}"),
            base,
            size: 64,
            action,
            rationale: String::new(),
        }
    }

    /// Synthetic cost model: each advise saves 100 ns, each prefetch
    /// saves 10 ns; results never change.
    fn fake_eval(plan: &Plan) -> Result<EvalOutcome, String> {
        let mut ns = 1000.0;
        for i in plan.items() {
            ns -= match i.action {
                PlanAction::Advise(_) => 100.0,
                PlanAction::Prefetch(_) => 10.0,
                PlanAction::Split => 0.0,
            };
        }
        Ok(outcome(ns, "ok"))
    }

    #[test]
    fn search_combines_compatible_candidates() {
        let baseline = outcome(1000.0, "ok");
        let cands = vec![
            item(0x1000, PlanAction::Advise(MemAdvise::SetReadMostly)),
            item(0x2000, PlanAction::Prefetch(Device::Gpu)),
        ];
        let cfg = SearchConfig {
            jobs: 2,
            beam: 2,
            max_rounds: 4,
        };
        let r = beam_search(&baseline, &cands, &cfg, fake_eval).unwrap();
        assert_eq!(r.best_plan.items().len(), 2, "{}", r.best_plan.describe());
        assert_eq!(r.best.simulated_ns, 890.0);
        // Rounds: 2 productive + 1 that finds nothing new to improve.
        assert!(r.rounds_run <= 3);
    }

    #[test]
    fn result_changing_plans_are_rejected() {
        let baseline = outcome(1000.0, "ok");
        let cands = vec![item(0x1000, PlanAction::Advise(MemAdvise::SetReadMostly))];
        let cfg = SearchConfig {
            jobs: 1,
            beam: 1,
            max_rounds: 2,
        };
        let r = beam_search(&baseline, &cands, &cfg, |_p| Ok(outcome(1.0, "DIFFERENT"))).unwrap();
        assert!(r.best_plan.is_empty(), "corrupting plan must not win");
        assert_eq!(r.best.simulated_ns, 1000.0);
        assert!(r.evaluations[0]
            .result
            .as_ref()
            .unwrap_err()
            .contains("fingerprint"));
    }

    #[test]
    fn search_log_is_jobs_invariant() {
        let baseline = outcome(1000.0, "ok");
        let cands = vec![
            item(0x1000, PlanAction::Advise(MemAdvise::SetReadMostly)),
            item(0x2000, PlanAction::Advise(MemAdvise::SetReadMostly)),
            item(0x3000, PlanAction::Prefetch(Device::Gpu)),
        ];
        let runs: Vec<Vec<String>> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| {
                let cfg = SearchConfig {
                    jobs,
                    beam: 2,
                    max_rounds: 3,
                };
                beam_search(&baseline, &cands, &cfg, fake_eval)
                    .unwrap()
                    .evaluations
                    .iter()
                    .map(|e| format!("{}:{}", e.round, e.plan.key()))
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn never_worse_than_baseline() {
        let baseline = outcome(1000.0, "ok");
        let cands = vec![item(0x1000, PlanAction::Prefetch(Device::Gpu))];
        let cfg = SearchConfig {
            jobs: 1,
            beam: 1,
            max_rounds: 3,
        };
        // Every candidate makes things worse; the baseline must win.
        let r = beam_search(&baseline, &cands, &cfg, |_p| Ok(outcome(2000.0, "ok"))).unwrap();
        assert!(r.best_plan.is_empty());
        assert_eq!(r.best.simulated_ns, 1000.0);
    }
}
