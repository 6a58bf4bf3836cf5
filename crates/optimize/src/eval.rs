//! Candidate evaluation: run a target under a [`Plan`] on a fresh
//! deterministic [`Machine`] and summarize the result.
//!
//! Every evaluation produces two things:
//!
//! * a *cost view* — simulated time, counters, and a [`RunDigest`] of the
//!   attributed profile (the evidence column of the optimizer report);
//! * a *results view* — a [`ResultsFingerprint`] hashing everything the
//!   program can observe (checksums / exit code / stdout, plus the final
//!   bytes of every traced allocation). Placement hints must never change
//!   the results view; the search rejects any candidate whose fingerprint
//!   differs from the baseline's.
//!
//! Every evaluation folds its events online into a [`ProfileFold`], so a
//! digest keeps O(cells) state and sees every event, however many the run
//! emits. Only the baseline enumerates candidates, so only a baseline
//! workload run carries the [`xplacer_core::Tracer`]: a candidate's cost
//! is that of a plain run, as hooks never change simulated time. A MiniCU
//! program is parsed once per search ([`parse_program`]); each evaluation
//! rewrites that AST and runs it once, instrumented, because the
//! fingerprint reads the allocations the source-level tracer saw.
//!
//! The machine is *not* `Send`, so evaluations never share one: each call
//! builds its own machine from the (Send + Sync) [`Platform`], which is
//! what lets the worker pool in `xplacer_core::par` parallelize safely.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hetsim::{Addr, AllocKind, Machine, MemHook, Op, Platform, Stats, TimedEvent, DEFAULT_STREAM};
use xplacer_core::{enumerate_candidates, Plan, PlanAction, PlanItem};
use xplacer_instrument::placement::{
    alloc_sites, apply_plan, AllocSite, SiteKind, SitePlan, SPLIT_SUFFIX,
};
use xplacer_interp::run_program_on;
use xplacer_lang::ast::{Func, Item, Program, Stmt, XplPragma};
use xplacer_obs::{ProfileFold, RunDigest};

/// Everything the program can observe about its own execution. Two runs
/// with equal fingerprints computed the same results; placement hints may
/// only change *when pages move*, never this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsFingerprint {
    /// Workloads: the self-check value. Programs: exit code and a hash
    /// of the stdout of the evaluation's one instrumented run. With the
    /// diagnostic pragmas stripped, that is what the program prints; a
    /// source that calls `tracePrint` directly adds its diagnostics, which
    /// can only reject a candidate, never accept one.
    pub check: String,
    /// Final memory contents per traced allocation: `hash/size`, or
    /// `"freed"` for allocations released before the end of the run.
    /// Workloads key it by allocation name; programs by the allocating
    /// statement (see [`eval_program`]).
    pub mem: BTreeMap<String, String>,
}

/// The outcome of evaluating one plan.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Simulated wall time of the run.
    pub simulated_ns: f64,
    /// Simulator counters (faults, migrations, traffic).
    pub stats: Stats,
    /// Profile digest, diffable against the baseline's for evidence.
    pub digest: RunDigest,
    /// The results view; must equal the baseline's.
    pub fingerprint: ResultsFingerprint,
}

/// The searchable candidate space, derived from the baseline trace.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Single-action candidates the search combines into plans.
    pub items: Vec<PlanItem>,
    /// Enumerated candidates dropped because the target cannot apply
    /// them (e.g. `Split` without a rewritable source, or an allocation
    /// that maps to no unconditional source site).
    pub skipped: usize,
    /// For program targets: allocation base → index of the `main`
    /// allocation site that made it, used to turn trace-level plans into
    /// source rewrites.
    pub site_of_base: BTreeMap<u64, usize>,
}

/// FNV-1a, the repo's stock dependency-free hash.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Apply a plan's actions to a live machine (workload path). `Split`
/// cannot be expressed as runtime hints — the caller filters it out of
/// workload candidate sets, so hitting one here is an error.
fn apply_plan_to_machine(m: &mut Machine, plan: &Plan) -> Result<(), String> {
    for item in plan.items() {
        match item.action {
            PlanAction::Advise(a) => m
                .try_mem_advise(item.base, item.size, a)
                .map_err(|e| format!("{item}: {e}"))?,
            PlanAction::Prefetch(d) => {
                m.try_mem_prefetch(item.base, item.size, d, DEFAULT_STREAM)
                    .map_err(|e| format!("{item}: {e}"))?;
                m.sync_stream(DEFAULT_STREAM);
            }
            PlanAction::Split => {
                return Err(format!(
                    "{item}: split object requires a source rewrite; \
                     it does not apply to built-in workloads"
                ))
            }
        }
    }
    Ok(())
}

fn hash_alloc(m: &mut Machine, base: u64, size: u64) -> Result<String, String> {
    let mut buf = vec![0u8; size as usize];
    m.peek_bytes(base, &mut buf)
        .map_err(|e| format!("0x{base:x}: {e}"))?;
    Ok(format!("{:016x}/{size}", fnv64(&buf)))
}

/// Evaluate `plan` against a built-in workload. When `want_candidates`
/// is set (the baseline run) the end-of-run shadow state is enumerated
/// into a [`CandidateSet`] with `Split` filtered out.
pub fn eval_workload(
    which: &str,
    pf: &Platform,
    plan: &Plan,
    want_candidates: bool,
) -> Result<(EvalOutcome, Option<CandidateSet>), String> {
    let mut m = Machine::new(pf.clone());
    let tracer = want_candidates.then(|| xplacer_core::attach_tracer(&mut m));
    let fold = Rc::new(RefCell::new(ProfileFold::new()));
    m.add_hook(fold.clone());

    let mut apply_err: Option<String> = None;
    let (check, names) = xplacer_workloads::run_workload(&mut m, which, |m, names| {
        if let Some(tracer) = &tracer {
            xplacer_workloads::register_names(tracer, names);
        }
        if let Err(e) = apply_plan_to_machine(m, plan) {
            apply_err.get_or_insert(e);
        }
    })?;
    if let Some(e) = apply_err {
        return Err(e);
    }

    let elapsed = m.elapsed_ns();
    let stats = m.stats.clone();

    let mut mem = BTreeMap::new();
    for (addr, name) in &names {
        let (base, size) = {
            let a = m.find_alloc(*addr).map_err(|e| format!("{name}: {e}"))?;
            (a.base, a.size)
        };
        mem.insert(name.clone(), hash_alloc(&mut m, base, size)?);
    }
    let fingerprint = ResultsFingerprint {
        check: format!("check={:016x}", check.to_bits()),
        mem,
    };

    let profile = fold.borrow().finish(which, pf.name, elapsed, &names);
    let digest = RunDigest::from_profile(&profile, digest_source(plan));

    let candidates = tracer.map(|tracer| {
        let all = enumerate_candidates(&tracer.borrow().smt, pf);
        let total = all.len();
        let items: Vec<PlanItem> = all
            .into_iter()
            .filter(|c| c.action != PlanAction::Split)
            .collect();
        CandidateSet {
            skipped: total - items.len(),
            items,
            site_of_base: BTreeMap::new(),
        }
    });

    Ok((
        EvalOutcome {
            simulated_ns: elapsed,
            stats,
            digest,
            fingerprint,
        },
        candidates,
    ))
}

/// Parse a MiniCU target for the search and strip its diagnostic
/// pragmas; a syntax error names the target.
pub fn parse_program(name: &str, src: &str) -> Result<Program, String> {
    let mut prog = xplacer_lang::parser::parse(src).map_err(|e| format!("{name}: {e}"))?;
    strip_diagnostics(&mut prog);
    Ok(prog)
}

/// Remove `#pragma xpl diagnostic ...` statements from every function
/// body. A diagnostic point calls `Tracer::end_epoch`, which zeroes the
/// shadow state the candidate enumeration reads — a program that ends
/// with a `tracePrint` (most instrumented sources do) would otherwise
/// present an empty access profile and yield no candidates. The optimizer
/// wants the whole-run profile, so it evaluates a pragma-free variant.
/// Without the pragmas the instrumented run prints no diagnostics, so its
/// stdout is what the program prints. Removing pragma statements never
/// removes or reorders allocation statements, so allocation-site indices
/// are those of the source.
fn strip_diagnostics(prog: &mut Program) {
    fn strip(stmts: &mut Vec<Stmt>) {
        stmts.retain_mut(|s| {
            match s {
                Stmt::Pragma(XplPragma::Diagnostic { .. }) => return false,
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    strip(then_branch);
                    strip(else_branch);
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Block(body) => {
                    strip(body)
                }
                _ => {}
            }
            true
        });
    }
    for item in &mut prog.items {
        if let Item::Func(Func {
            body: Some(body), ..
        }) = item
        {
            strip(body);
        }
    }
}

/// Name of the digest a run feeds: the baseline, or a candidate.
fn digest_source(plan: &Plan) -> &'static str {
    if plan.is_empty() {
        "baseline"
    } else {
        "candidate"
    }
}

/// The hook a program evaluation attaches: the online profile fold, and
/// the source position of the statement that made each allocation.
#[derive(Default)]
struct ProgramHook {
    fold: ProfileFold,
    /// The last statement position the interpreter reported.
    at: (u32, u32),
    /// Allocation base → position of the statement that made it.
    made_at: BTreeMap<Addr, (u32, u32)>,
}

impl MemHook for ProgramHook {
    fn on_op(&mut self, op: &Op) {
        match *op {
            Op::Site { line, col } => self.at = (line, col),
            Op::Alloc { base, .. } => {
                self.made_at.insert(base, self.at);
            }
            _ => {}
        }
    }

    fn on_event(&mut self, ev: &TimedEvent) {
        self.fold.absorb(ev);
    }
}

/// One allocation the source-level tracer saw.
struct Traced {
    base: Addr,
    size: u64,
    live: bool,
    /// Position of the statement that made it.
    at: (u32, u32),
    /// The `main` site at that position with the same allocation form;
    /// `None` for an allocation made anywhere else (a helper function).
    site: Option<usize>,
}

/// Index of the site at position `at` whose form matches `kind`.
fn site_at(sites: &[AllocSite], at: (u32, u32), kind: AllocKind) -> Option<usize> {
    sites.iter().position(|s| {
        (s.span.line, s.span.col) == at
            && matches!(
                (s.kind, kind),
                (SiteKind::Managed, AllocKind::Managed)
                    | (SiteKind::Device, AllocKind::Device)
                    | (SiteKind::Host, AllocKind::Host)
            )
    })
}

/// Evaluate `plan` against a MiniCU program from [`parse_program`]:
/// rewrite its AST (advise/prefetch injection, split-object
/// duplication), then instrument and run the rewrite once. That run
/// gives the trace, shadow state and profile, and the exit code and
/// stdout the fingerprint hashes.
pub fn eval_program(
    name: &str,
    prog: &Program,
    pf: &Platform,
    plan: &Plan,
    site_of_base: &BTreeMap<u64, usize>,
    want_candidates: bool,
) -> Result<(EvalOutcome, Option<CandidateSet>), String> {
    let site_plans: Vec<SitePlan> = plan
        .items()
        .iter()
        .map(|it| {
            let site = *site_of_base
                .get(&it.base)
                .ok_or_else(|| format!("{it}: allocation maps to no source site"))?;
            Ok(SitePlan {
                site,
                action: it.action,
                size: it.size,
            })
        })
        .collect::<Result<_, String>>()?;
    let rewritten = apply_plan(prog, &site_plans)?;
    let sites = alloc_sites(&rewritten);

    let hook = Rc::new(RefCell::new(ProgramHook::default()));
    let mut machine = Machine::new(pf.clone());
    machine.add_hook(hook.clone());
    // A failing baseline reads as `xplacer run` would report it; a
    // failing candidate names its plan in the report row.
    let (out, mut interp) = run_program_on(rewritten, machine, true).map_err(|e| {
        if plan.is_empty() {
            e.to_string()
        } else {
            format!("plan `{}`: {e}", plan.describe())
        }
    })?;
    let hook = hook.borrow();

    // Map every traced allocation to the `main` site that made it, by the
    // position of its statement, so a helper's allocation can never
    // borrow a site's name.
    let traced: Vec<Traced> = interp
        .tracer
        .smt
        .iter()
        .map(|e| {
            let at = hook.made_at.get(&e.base).copied().unwrap_or_default();
            Traced {
                base: e.base,
                size: e.size,
                live: e.live,
                at,
                site: site_at(&sites, at, e.kind),
            }
        })
        .collect();

    // Label every site's allocation with its source variable name. With
    // diagnostics stripped, `tracePrint` never runs to register names, and
    // the source is a better authority anyway: candidate items and profile
    // rows read `data: advise ...` instead of a bare address.
    for t in &traced {
        if let Some(i) = t.site {
            interp.tracer.smt.set_label(t.base, &sites[i].var);
        }
    }

    // Key each allocation's final bytes by its site's variable, else by
    // its statement's position; repeats of one key (a statement in a loop
    // or a helper) are numbered in allocation order. Both keys are stable
    // under the rewrites, which leave every statement's position alone.
    let mut mem = BTreeMap::new();
    let mut repeats: BTreeMap<String, usize> = BTreeMap::new();
    for t in &traced {
        let key = match t.site {
            // The staging twins our own rewrite introduces are scratch
            // space, not program results.
            Some(i) if sites[i].var.ends_with(SPLIT_SUFFIX) => continue,
            Some(i) => sites[i].var.clone(),
            None => format!("{}:{}", t.at.0, t.at.1),
        };
        let n = repeats.entry(key.clone()).or_insert(0);
        *n += 1;
        let key = if *n == 1 { key } else { format!("{key}#{n}") };
        let val = if t.live {
            hash_alloc(&mut interp.machine, t.base, t.size)?
        } else {
            "freed".to_string()
        };
        mem.insert(key, val);
    }
    let fingerprint = ResultsFingerprint {
        check: format!(
            "exit={} stdout={:016x}",
            out.exit,
            fnv64(out.stdout.as_bytes())
        ),
        mem,
    };

    let profile_names: Vec<(u64, String)> = interp
        .tracer
        .smt
        .iter()
        .map(|e| (e.base, e.display_name()))
        .collect();
    let profile = hook
        .fold
        .finish(name, pf.name, out.elapsed_ns, &profile_names);
    let digest = RunDigest::from_profile(&profile, digest_source(plan));

    let candidates = if want_candidates {
        let all = enumerate_candidates(&interp.tracer.smt, pf);
        let total = all.len();
        let mut site_of = BTreeMap::new();
        let mut items = Vec::new();
        for c in all {
            // Place the candidate at the unconditional managed site in
            // `main` that made its allocation and nothing else; a
            // candidate we cannot place in the source is skipped, never
            // mis-mapped.
            let site = traced
                .iter()
                .find(|t| t.base == c.base)
                .and_then(|t| t.site)
                .filter(|&i| {
                    let s = &sites[i];
                    s.kind == SiteKind::Managed
                        && !s.conditional
                        && !s.var.ends_with(SPLIT_SUFFIX)
                        && traced.iter().filter(|t| t.site == Some(i)).count() == 1
                });
            if let Some(i) = site {
                site_of.insert(c.base, i);
                items.push(c);
            }
        }
        Some(CandidateSet {
            skipped: total - items.len(),
            items,
            site_of_base: site_of,
        })
    } else {
        None
    };

    Ok((
        EvalOutcome {
            simulated_ns: out.elapsed_ns,
            stats: out.stats,
            digest,
            fingerprint,
        },
        candidates,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::platform;

    const PROG: &str = r#"
        int main() {
            double* a;
            cudaMallocManaged((void**)&a, 4096);
            for (int i = 0; i < 512; i = i + 1) { a[i] = 1.0; }
            kernel<<<1, 64>>>(a);
            double acc = 0.0;
            for (int i = 0; i < 512; i = i + 1) { acc = acc + a[i]; }
            printf("%f\n", acc);
            return 0;
        }
        __global__ void kernel(double* a) {
            int i = threadIdx.x;
            a[i] = a[i] + 1.0;
        }
    "#;

    #[test]
    fn baseline_workload_eval_enumerates_candidates() {
        let pf = platform::intel_pascal();
        let (out, cands) = eval_workload("lulesh", &pf, &Plan::empty(), true).unwrap();
        let cands = cands.unwrap();
        assert!(out.simulated_ns > 0.0);
        assert!(!cands.items.is_empty(), "lulesh should yield candidates");
        assert!(
            cands.items.iter().all(|c| c.action != PlanAction::Split),
            "workload candidates must not contain Split"
        );
        assert!(!out.fingerprint.mem.is_empty());
    }

    #[test]
    fn workload_advice_changes_cost_but_not_results() {
        let pf = platform::intel_pascal();
        let (base, cands) = eval_workload("lulesh", &pf, &Plan::empty(), true).unwrap();
        let cands = cands.unwrap();
        let first = cands.items.first().expect("lulesh yields candidates");
        let plan = Plan::empty().with(first.clone());
        let (hinted, _) = eval_workload("lulesh", &pf, &plan, false).unwrap();
        assert_eq!(base.fingerprint, hinted.fingerprint);
    }

    #[test]
    fn program_eval_roundtrips_and_split_preserves_results() {
        let pf = platform::intel_pascal();
        let prog = parse_program("toy", PROG).unwrap();
        let (base, cands) =
            eval_program("toy", &prog, &pf, &Plan::empty(), &BTreeMap::new(), true).unwrap();
        let cands = cands.unwrap();
        assert!(
            !cands.items.is_empty(),
            "toy program should yield candidates"
        );
        for c in &cands.items {
            let plan = Plan::empty().with(c.clone());
            let (out, _) =
                eval_program("toy", &prog, &pf, &plan, &cands.site_of_base, false).unwrap();
            assert_eq!(
                base.fingerprint,
                out.fingerprint,
                "candidate `{}` changed program results",
                plan.describe()
            );
        }
    }
}
