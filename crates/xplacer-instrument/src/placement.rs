//! Apply a placement plan to a MiniCU program by source rewriting.
//!
//! The optimizer traces a baseline run, decides on per-allocation
//! actions, and needs those actions *in the program text* so the next
//! run executes them — the mechanized version of the paper's "edit the
//! source per the diagnostics" workflow (§III-A):
//!
//! * `Advise` / `Prefetch` become a `cudaMemAdvise` /
//!   `cudaMemPrefetchAsync` call injected right after the allocation
//!   site, with the exact byte size observed in the baseline trace;
//! * `Split` performs the paper's LULESH domain-duplication remedy: a
//!   device-only twin allocation plus staging copies around every kernel
//!   launch that uses the variable, with kernel arguments redirected to
//!   the twin. The managed original stays authoritative at every
//!   statement boundary, so program results are unchanged by
//!   construction.
//!
//! Plan items address allocations by *site index*: the n-th allocation
//! call in `main`, in source order. Each site carries the source position
//! the interpreter reports while it runs, so a caller maps a traced
//! allocation to its site by the position of the statement that made it.
//! Sites nested in loops or branches may run zero or many times and are
//! rejected rather than planned for.

use xplacer_core::plan::PlanAction;
use xplacer_lang::ast::*;

/// What kind of allocation call a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `cudaMallocManaged((void**)&v, n)`
    Managed,
    /// `cudaMalloc((void**)&v, n)`
    Device,
    /// `v = (T*)malloc(n)`
    Host,
}

/// One allocation site found in `main`.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// The variable the allocation lands in.
    pub var: String,
    pub kind: SiteKind,
    /// True when the site sits inside a loop or branch: it may run zero
    /// or many times, so site order no longer matches trace order.
    pub conditional: bool,
    /// The position `Op::Site` reports while the site runs: its
    /// statement's span, or for a synthesized statement (a split twin)
    /// that of the last real statement before it, because the
    /// interpreter reports no position for a synthesized span.
    pub span: Span,
}

/// One action bound to an allocation site.
#[derive(Debug, Clone)]
pub struct SitePlan {
    /// Index into [`alloc_sites`] order.
    pub site: usize,
    pub action: PlanAction,
    /// Exact allocation size in bytes, from the baseline trace.
    pub size: u64,
}

/// Scan `main` for allocation sites, in source order.
pub fn alloc_sites(prog: &Program) -> Vec<AllocSite> {
    let mut out = Vec::new();
    if let Some(f) = prog.func("main") {
        if let Some(body) = &f.body {
            scan_stmts(body, false, &mut Span::default(), &mut out);
        }
    }
    out
}

/// Scan `stmts` in source order; `at` is the last known statement
/// position, which a synthesized statement keeps.
fn scan_stmts(stmts: &[Stmt], conditional: bool, at: &mut Span, out: &mut Vec<AllocSite>) {
    for s in stmts {
        match s {
            Stmt::Expr(e, sp) => {
                if sp.is_known() {
                    *at = *sp;
                }
                if let Some((var, kind)) = site_of_expr(e) {
                    out.push(AllocSite {
                        var,
                        kind,
                        conditional,
                        span: *at,
                    });
                }
            }
            Stmt::Decl(d) => {
                if d.span.is_known() {
                    *at = d.span;
                }
                if d.init.as_ref().is_some_and(calls_host_malloc) {
                    out.push(AllocSite {
                        var: d.name.clone(),
                        kind: SiteKind::Host,
                        conditional,
                        span: *at,
                    });
                }
            }
            Stmt::Block(b) => scan_stmts(b, conditional, at, out),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                scan_stmts(then_branch, true, at, out);
                scan_stmts(else_branch, true, at, out);
            }
            Stmt::While { body, .. } => scan_stmts(body, true, at, out),
            Stmt::For { init, body, .. } => {
                if let Some(init) = init {
                    scan_stmts(std::slice::from_ref(init), true, at, out);
                }
                scan_stmts(body, true, at, out);
            }
            _ => {}
        }
    }
}

/// `cudaMalloc`-family call statement or host-malloc assignment.
fn site_of_expr(e: &Expr) -> Option<(String, SiteKind)> {
    match e {
        Expr::Call(name, args) => {
            let kind = match name.as_str() {
                "cudaMallocManaged" | "trcMallocManaged" => SiteKind::Managed,
                "cudaMalloc" | "trcMalloc" => SiteKind::Device,
                _ => return None,
            };
            out_var(args.first()?).map(|v| (v, kind))
        }
        Expr::Assign(AssignOp::Set, lhs, rhs) => {
            if let (Expr::Ident(v), true) = (lhs.as_ref(), calls_host_malloc(rhs)) {
                Some((v.clone(), SiteKind::Host))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The `v` of `(void**)&v` / `&v` (the malloc out-parameter).
fn out_var(e: &Expr) -> Option<String> {
    match e {
        Expr::Cast(_, inner) => out_var(inner),
        Expr::Unary(UnOp::Addr, inner) => match inner.as_ref() {
            Expr::Ident(v) => Some(v.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn calls_host_malloc(e: &Expr) -> bool {
    match e {
        Expr::Call(name, _) => name == "malloc" || name == "trcHostMalloc",
        Expr::Cast(_, inner) => calls_host_malloc(inner),
        _ => false,
    }
}

/// Suffix of the device twin a `Split` introduces.
pub const SPLIT_SUFFIX: &str = "__xpl_gpu";

fn device_int(d: hetsim::Device) -> i64 {
    match d {
        hetsim::Device::Cpu => -1,
        hetsim::Device::Gpu => 0,
    }
}

fn advise_ints(a: hetsim::MemAdvise) -> Result<(i64, i64), String> {
    use hetsim::MemAdvise as A;
    Ok(match a {
        A::SetReadMostly => (1, 0),
        A::SetPreferredLocation(d) => (3, device_int(d)),
        A::SetAccessedBy(d) => (5, device_int(d)),
        other => return Err(format!("optimizer plans never unset advice ({other:?})")),
    })
}

/// Rewrite `prog` (the *uninstrumented* source AST) per `plan`.
///
/// Fails — rather than mismap — when a site index is out of range, a
/// site is conditional, or an action targets a site kind it cannot apply
/// to (hints and splits need managed memory).
pub fn apply_plan(prog: &Program, plan: &[SitePlan]) -> Result<Program, String> {
    let sites = alloc_sites(prog);
    let mut split_vars: Vec<String> = Vec::new();
    for p in plan {
        let site = sites.get(p.site).ok_or_else(|| {
            format!(
                "plan targets allocation site #{} but main has only {}",
                p.site,
                sites.len()
            )
        })?;
        if site.conditional {
            return Err(format!(
                "allocation site #{} (`{}`) is inside a loop or branch; \
                 site order cannot be mapped to trace order",
                p.site, site.var
            ));
        }
        if site.kind != SiteKind::Managed {
            return Err(format!(
                "action {} targets `{}`, which is not managed memory",
                p.action, site.var
            ));
        }
        if p.action == PlanAction::Split {
            split_vars.push(site.var.clone());
        }
    }

    let mut items = Vec::with_capacity(prog.items.len());
    for item in &prog.items {
        items.push(match item {
            Item::Func(f) if f.name == "main" => {
                let mut next_site = 0usize;
                let body = f.body.as_ref().map(|b| {
                    let mut rw = Rewriter {
                        prog,
                        sites: &sites,
                        plan,
                        split_vars: &split_vars,
                        next_site: &mut next_site,
                    };
                    rw.stmts(b)
                });
                Item::Func(Func {
                    qualifiers: f.qualifiers.clone(),
                    ret: f.ret.clone(),
                    name: f.name.clone(),
                    params: f.params.clone(),
                    body,
                })
            }
            other => other.clone(),
        });
    }
    Ok(Program { items })
}

struct Rewriter<'a> {
    prog: &'a Program,
    sites: &'a [AllocSite],
    plan: &'a [SitePlan],
    split_vars: &'a [String],
    next_site: &'a mut usize,
}

impl Rewriter<'_> {
    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        // Track the site counter exactly like the scanner so indices line
        // up; conditional sites were rejected up front, so the recursion
        // into branches below can reuse the same counter unconcerned.
        match s {
            Stmt::Expr(e, _) => {
                if let Some(launch_stmts) = self.rewrite_launch(e) {
                    out.extend(launch_stmts);
                    return;
                }
                out.push(s.clone());
                if site_of_expr(e).is_some() {
                    let here = *self.next_site;
                    *self.next_site += 1;
                    self.inject_after_site(here, out);
                }
            }
            Stmt::Decl(d) => {
                out.push(s.clone());
                if let Some(init) = &d.init {
                    if calls_host_malloc(init) {
                        *self.next_site += 1;
                    }
                }
            }
            Stmt::Block(b) => out.push(Stmt::Block(self.stmts(b))),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => out.push(Stmt::If {
                cond: cond.clone(),
                then_branch: self.stmts(then_branch),
                else_branch: self.stmts(else_branch),
                span: *span,
            }),
            Stmt::While { cond, body, span } => out.push(Stmt::While {
                cond: cond.clone(),
                body: self.stmts(body),
                span: *span,
            }),
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                // Recurse into the init so the site counter tracks the
                // scanner (which visits init before body). A site there
                // is conditional, hence never targeted, hence the
                // rewrite is 1:1 — no injection can widen it.
                let init = init.as_ref().map(|i| {
                    let v = self.stmts(std::slice::from_ref(i.as_ref()));
                    debug_assert_eq!(v.len(), 1, "for-init rewrites 1:1");
                    Box::new(v.into_iter().next().expect("for-init kept"))
                });
                out.push(Stmt::For {
                    init,
                    cond: cond.clone(),
                    step: step.clone(),
                    body: self.stmts(body),
                    span: *span,
                });
            }
            other => out.push(other.clone()),
        }
    }

    /// Emit the hint calls (and split twin) a site's plan entries ask for.
    fn inject_after_site(&mut self, site: usize, out: &mut Vec<Stmt>) {
        let var = &self.sites[site].var;
        // Advise before prefetch: hints shape what the prefetch moves.
        let mut entries: Vec<&SitePlan> = self.plan.iter().filter(|p| p.site == site).collect();
        entries.sort_by_key(|p| match p.action {
            PlanAction::Advise(_) => 0,
            PlanAction::Prefetch(_) => 1,
            PlanAction::Split => 2,
        });
        for p in entries {
            match p.action {
                PlanAction::Advise(a) => {
                    let (advice, dev) = advise_ints(a).expect("validated in apply_plan");
                    out.push(Stmt::Expr(
                        Expr::call(
                            "cudaMemAdvise",
                            vec![
                                Expr::ident(var),
                                Expr::IntLit(p.size as i64),
                                Expr::IntLit(advice),
                                Expr::IntLit(dev),
                            ],
                        ),
                        Span::default(),
                    ));
                }
                PlanAction::Prefetch(d) => {
                    out.push(Stmt::Expr(
                        Expr::call(
                            "cudaMemPrefetchAsync",
                            vec![
                                Expr::ident(var),
                                Expr::IntLit(p.size as i64),
                                Expr::IntLit(device_int(d)),
                            ],
                        ),
                        Span::default(),
                    ));
                }
                PlanAction::Split => {
                    let twin = format!("{var}{SPLIT_SUFFIX}");
                    let ty = self.decl_type_of(var).unwrap_or(Type::Int.ptr());
                    out.push(Stmt::Decl(VarDecl {
                        ty: ty.clone(),
                        name: twin.clone(),
                        init: None,
                        span: Span::default(),
                    }));
                    out.push(Stmt::Expr(
                        Expr::call(
                            "cudaMalloc",
                            vec![
                                Expr::Cast(
                                    Type::Void.ptr().ptr(),
                                    Box::new(Expr::Unary(UnOp::Addr, Box::new(Expr::ident(&twin)))),
                                ),
                                Expr::IntLit(p.size as i64),
                            ],
                        ),
                        Span::default(),
                    ));
                }
            }
        }
    }

    /// For a kernel launch using split variables: stage in, redirect the
    /// arguments to the device twins, stage out. Returns `None` when the
    /// statement is not a launch touching any split variable.
    fn rewrite_launch(&self, e: &Expr) -> Option<Vec<Stmt>> {
        let Expr::KernelLaunch {
            name,
            grid,
            block,
            shmem,
            stream,
            args,
        } = e
        else {
            return None;
        };
        let used: Vec<&String> = self
            .split_vars
            .iter()
            .filter(|v| args.iter().any(|a| matches!(a, Expr::Ident(n) if n == *v)))
            .collect();
        if used.is_empty() {
            return None;
        }
        let size_of = |v: &str| {
            self.plan
                .iter()
                .find(|p| p.action == PlanAction::Split && self.sites[p.site].var == v)
                .map(|p| p.size)
                .unwrap_or(0)
        };
        let mut stmts = Vec::new();
        // Stage the current managed contents into each twin (H2D)...
        for v in &used {
            stmts.push(Stmt::Expr(
                Expr::call(
                    "cudaMemcpy",
                    vec![
                        Expr::ident(&format!("{v}{SPLIT_SUFFIX}")),
                        Expr::ident(v),
                        Expr::IntLit(size_of(v) as i64),
                        Expr::IntLit(1), // cudaMemcpyHostToDevice
                    ],
                ),
                Span::default(),
            ));
        }
        // ...launch against the twins...
        let new_args = args
            .iter()
            .map(|a| match a {
                Expr::Ident(n) if self.split_vars.contains(n) => {
                    Expr::ident(&format!("{n}{SPLIT_SUFFIX}"))
                }
                other => other.clone(),
            })
            .collect();
        stmts.push(Stmt::Expr(
            Expr::KernelLaunch {
                name: name.clone(),
                grid: grid.clone(),
                block: block.clone(),
                shmem: shmem.clone(),
                stream: stream.clone(),
                args: new_args,
            },
            Span::default(),
        ));
        // ...and write results back (D2H) so the managed original stays
        // authoritative for host code, diagnostics, and later launches.
        for v in &used {
            stmts.push(Stmt::Expr(
                Expr::call(
                    "cudaMemcpy",
                    vec![
                        Expr::ident(v),
                        Expr::ident(&format!("{v}{SPLIT_SUFFIX}")),
                        Expr::IntLit(size_of(v) as i64),
                        Expr::IntLit(2), // cudaMemcpyDeviceToHost
                    ],
                ),
                Span::default(),
            ));
        }
        Some(stmts)
    }

    fn decl_type_of(&self, var: &str) -> Option<Type> {
        let f = self.prog.func("main")?;
        fn find(stmts: &[Stmt], var: &str) -> Option<Type> {
            for s in stmts {
                match s {
                    Stmt::Decl(d) if d.name == var => return Some(d.ty.clone()),
                    Stmt::Block(b) => {
                        if let Some(t) = find(b, var) {
                            return Some(t);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        find(f.body.as_ref()?, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplacer_lang::parser::parse;
    use xplacer_lang::unparse::unparse;

    const PROG: &str = r#"
        __global__ void k(int* a, int* b, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { a[i] = a[i] + b[i]; }
        }
        int main() {
            int* p;
            int* q;
            int* h;
            cudaMallocManaged((void**)&p, 64 * sizeof(int));
            cudaMalloc((void**)&q, 64 * sizeof(int));
            h = (int*)malloc(64 * sizeof(int));
            for (int i = 0; i < 64; i++) { p[i] = i; }
            k<<<2, 32>>>(p, p, 64);
            cudaDeviceSynchronize();
            free(h);
            return 0;
        }
    "#;

    #[test]
    fn sites_found_in_source_order() {
        let prog = parse(PROG).unwrap();
        let sites = alloc_sites(&prog);
        assert_eq!(sites.len(), 3, "{sites:?}");
        assert_eq!(
            (sites[0].var.as_str(), sites[0].kind),
            ("p", SiteKind::Managed)
        );
        assert_eq!(
            (sites[1].var.as_str(), sites[1].kind),
            ("q", SiteKind::Device)
        );
        assert_eq!(
            (sites[2].var.as_str(), sites[2].kind),
            ("h", SiteKind::Host)
        );
        assert!(sites.iter().all(|s| !s.conditional));
    }

    #[test]
    fn conditional_sites_are_flagged_and_rejected() {
        let src = r#"
            int main() {
                int* p;
                for (int i = 0; i < 2; i++) { cudaMallocManaged((void**)&p, 16); }
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        let sites = alloc_sites(&prog);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].conditional);
        let e = apply_plan(
            &prog,
            &[SitePlan {
                site: 0,
                action: PlanAction::Prefetch(hetsim::Device::Gpu),
                size: 16,
            }],
        )
        .unwrap_err();
        assert!(e.contains("loop or branch"), "{e}");
    }

    #[test]
    fn advise_and_prefetch_injected_after_the_malloc() {
        let prog = parse(PROG).unwrap();
        let rewritten = apply_plan(
            &prog,
            &[
                SitePlan {
                    site: 0,
                    action: PlanAction::Advise(hetsim::MemAdvise::SetReadMostly),
                    size: 256,
                },
                SitePlan {
                    site: 0,
                    action: PlanAction::Prefetch(hetsim::Device::Gpu),
                    size: 256,
                },
            ],
        )
        .unwrap();
        let text = unparse(&rewritten);
        let malloc_at = text.find("cudaMallocManaged").unwrap();
        let advise_at = text.find("cudaMemAdvise(p, 256, 1, 0)").expect(&text);
        let prefetch_at = text.find("cudaMemPrefetchAsync(p, 256, 0)").expect(&text);
        assert!(malloc_at < advise_at && advise_at < prefetch_at, "{text}");
        // The rewrite must still be valid MiniCU.
        parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }

    #[test]
    fn split_stages_copies_around_launches() {
        let prog = parse(PROG).unwrap();
        let rewritten = apply_plan(
            &prog,
            &[SitePlan {
                site: 0,
                action: PlanAction::Split,
                size: 256,
            }],
        )
        .unwrap();
        let text = unparse(&rewritten);
        assert!(text.contains("int* p__xpl_gpu;"), "{text}");
        assert!(
            text.contains("cudaMalloc((void**)(&p__xpl_gpu), 256)"),
            "{text}"
        );
        assert!(text.contains("cudaMemcpy(p__xpl_gpu, p, 256, 1)"), "{text}");
        // Both identical args redirected, one staging pair total.
        assert!(
            text.contains("k<<<2, 32>>>(p__xpl_gpu, p__xpl_gpu, 64)"),
            "{text}"
        );
        assert!(text.contains("cudaMemcpy(p, p__xpl_gpu, 256, 2)"), "{text}");
        assert_eq!(text.matches("cudaMemcpy(").count(), 2, "{text}");
        parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }

    #[test]
    fn actions_on_unmanaged_sites_are_rejected() {
        let prog = parse(PROG).unwrap();
        for site in [1usize, 2] {
            let e = apply_plan(
                &prog,
                &[SitePlan {
                    site,
                    action: PlanAction::Advise(hetsim::MemAdvise::SetReadMostly),
                    size: 256,
                }],
            )
            .unwrap_err();
            assert!(e.contains("not managed"), "{e}");
        }
        let e = apply_plan(
            &prog,
            &[SitePlan {
                site: 9,
                action: PlanAction::Split,
                size: 256,
            }],
        )
        .unwrap_err();
        assert!(e.contains("only 3"), "{e}");
    }

    #[test]
    fn empty_plan_is_identity() {
        let prog = parse(PROG).unwrap();
        let rewritten = apply_plan(&prog, &[]).unwrap();
        assert_eq!(unparse(&rewritten), unparse(&prog));
    }
}
