//! # xplacer-instrument — the XPlacer source instrumentation pass
//!
//! The stand-in for the paper's ROSE plugin (§III-B): rewrites a MiniCU
//! AST so that
//!
//! * every heap-affecting l-value read is wrapped in `traceR(...)`,
//!   writes in `traceW(...)`, and read-modify-writes in `traceRW(...)`
//!   (`*a = 0` becomes `traceW(*a) = 0`; `traceRW(*a)++`);
//! * accesses that cannot touch the heap are elided: plain variables,
//!   operands of `&` and `sizeof`;
//! * calls named by `#pragma xpl replace <name>` are redirected to the
//!   wrapper declared right after the pragma (with `kernel-launch` as the
//!   name, every `<<<>>>` launch is rewritten to a wrapper call);
//! * `#pragma xpl diagnostic fn(verbatim; expanded)` becomes a call to
//!   `fn` whose pointer arguments are recursively expanded into
//!   `XplAllocData(expr, "expr", sizeof(*expr))` records (stopping on
//!   type repetition).
//!
//! The instrumented AST unparses to ordinary MiniCU which the
//! `xplacer-interp` crate executes against the simulator + runtime.

pub mod placement;

use std::collections::{HashMap, HashSet};

use xplacer_lang::ast::*;
use xplacer_lang::sema::{classify_lvalue, LvalueClass, TypeEnv};

/// Access context of the expression being rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// The value is read (r-value position).
    Read,
    /// The location is written (assignment target).
    Write,
    /// The location is read and written (`++`, `+=`).
    Rmw,
    /// The location is named but not accessed (`&e`, `sizeof e`).
    NoAccess,
}

/// Result of instrumenting a program.
pub struct Instrumented {
    /// The rewritten program.
    pub program: Program,
    /// `original name → wrapper name` replacements that were applied.
    pub replacements: HashMap<String, String>,
    /// Wrapper that replaces kernel launches, if any.
    pub kernel_wrapper: Option<String>,
}

/// Function calls the pass replaces by default, mirroring the common
/// wrappers of the paper's instrumentation description header file.
fn default_replacements() -> HashMap<String, String> {
    [
        ("cudaMalloc", "trcMalloc"),
        ("cudaMallocManaged", "trcMallocManaged"),
        ("cudaMemcpy", "trcMemcpy"),
        ("cudaFree", "trcFree"),
        ("cudaMemAdvise", "trcMemAdvise"),
        ("cudaMemPrefetchAsync", "trcMemPrefetchAsync"),
        ("malloc", "trcHostMalloc"),
        ("free", "trcHostFree"),
    ]
    .into_iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect()
}

/// Instrument `prog` with the default CUDA replacements plus whatever its
/// `#pragma xpl` directives request.
pub fn instrument(prog: &Program) -> Instrumented {
    let mut replacements = default_replacements();
    let mut kernel_wrapper = None;

    // Pass 1: collect `replace` pragmas; each names the function declared
    // by the item that follows it.
    let mut pending: Option<String> = None;
    for item in &prog.items {
        match item {
            Item::Pragma(XplPragma::Replace { target }) => pending = Some(target.clone()),
            Item::Func(f) => {
                if let Some(target) = pending.take() {
                    if target == "kernel-launch" {
                        kernel_wrapper = Some(f.name.clone());
                    } else {
                        replacements.insert(target, f.name.clone());
                    }
                }
            }
            _ => pending = None,
        }
    }

    // Pass 2: rewrite every function body.
    let pass = Pass {
        prog,
        replacements: &replacements,
        kernel_wrapper: kernel_wrapper.as_deref(),
    };
    let mut items = Vec::with_capacity(prog.items.len());
    for item in &prog.items {
        items.push(match item {
            Item::Func(f) => Item::Func(pass.func(f)),
            other => other.clone(),
        });
    }

    Instrumented {
        program: Program { items },
        replacements,
        kernel_wrapper,
    }
}

struct Pass<'p> {
    prog: &'p Program,
    replacements: &'p HashMap<String, String>,
    kernel_wrapper: Option<&'p str>,
}

impl Pass<'_> {
    fn func(&self, f: &Func) -> Func {
        let mut env = TypeEnv::new(self.prog);
        env.push();
        for p in &f.params {
            env.declare(&p.name, p.ty.clone());
        }
        let body = f.body.as_ref().map(|b| self.stmts(b, &mut env));
        Func {
            qualifiers: f.qualifiers.clone(),
            ret: f.ret.clone(),
            name: f.name.clone(),
            params: f.params.clone(),
            body,
        }
    }

    fn stmts(&self, stmts: &[Stmt], env: &mut TypeEnv) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.stmt(s, env));
        }
        out
    }

    fn stmt(&self, s: &Stmt, env: &mut TypeEnv) -> Stmt {
        match s {
            Stmt::Decl(d) => {
                let init = d.init.as_ref().map(|e| self.expr(e, Ctx::Read, env));
                env.declare(&d.name, d.ty.clone());
                Stmt::Decl(VarDecl {
                    ty: d.ty.clone(),
                    name: d.name.clone(),
                    init,
                    span: d.span,
                })
            }
            Stmt::Expr(e, sp) => Stmt::Expr(self.expr(e, Ctx::Read, env), *sp),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let cond = self.expr(cond, Ctx::Read, env);
                env.push();
                let then_branch = self.stmts(then_branch, env);
                env.pop();
                env.push();
                let else_branch = self.stmts(else_branch, env);
                env.pop();
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span: *span,
                }
            }
            Stmt::While { cond, body, span } => {
                let cond = self.expr(cond, Ctx::Read, env);
                env.push();
                let body = self.stmts(body, env);
                env.pop();
                Stmt::While {
                    cond,
                    body,
                    span: *span,
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                env.push();
                let init = init.as_ref().map(|s| Box::new(self.stmt(s, env)));
                let cond = cond.as_ref().map(|e| self.expr(e, Ctx::Read, env));
                let step = step.as_ref().map(|e| self.expr(e, Ctx::Read, env));
                let body = self.stmts(body, env);
                env.pop();
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span: *span,
                }
            }
            Stmt::Return(e, sp) => {
                Stmt::Return(e.as_ref().map(|e| self.expr(e, Ctx::Read, env)), *sp)
            }
            Stmt::Block(b) => {
                env.push();
                let b = self.stmts(b, env);
                env.pop();
                Stmt::Block(b)
            }
            Stmt::Pragma(XplPragma::Diagnostic {
                func,
                verbatim,
                expanded,
            }) => Stmt::Expr(
                self.expand_diagnostic(func, verbatim, expanded, env),
                Span::default(),
            ),
            other => other.clone(),
        }
    }

    /// Rewrite an expression under an access context.
    fn expr(&self, e: &Expr, ctx: Ctx, env: &mut TypeEnv) -> Expr {
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::StrLit(_) | Expr::Ident(_) => e.clone(),

            Expr::Unary(UnOp::Addr, inner) => {
                // The location is not accessed; only interior index/base
                // computations are (e.g. `&p[i]` reads `p` and `i`).
                Expr::Unary(UnOp::Addr, Box::new(self.expr(inner, Ctx::NoAccess, env)))
            }
            Expr::SizeofExpr(_) | Expr::SizeofType(_) => e.clone(), // unevaluated

            Expr::Unary(op @ (UnOp::PreInc | UnOp::PreDec), inner) => {
                Expr::Unary(*op, Box::new(self.expr(inner, Ctx::Rmw, env)))
            }
            Expr::Postfix(op, inner) => {
                Expr::Postfix(*op, Box::new(self.expr(inner, Ctx::Rmw, env)))
            }

            Expr::Unary(UnOp::Deref, _) | Expr::Index(_, _) | Expr::Member(_, _, _) => {
                self.lvalue(e, ctx, env)
            }

            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(self.expr(a, Ctx::Read, env)),
                Box::new(self.expr(b, Ctx::Read, env)),
            ),
            Expr::Assign(op, lhs, rhs) => {
                let lhs_ctx = if *op == AssignOp::Set {
                    Ctx::Write
                } else {
                    Ctx::Rmw
                };
                Expr::Assign(
                    *op,
                    Box::new(self.expr(lhs, lhs_ctx, env)),
                    Box::new(self.expr(rhs, Ctx::Read, env)),
                )
            }
            Expr::Cond(c, t, f) => Expr::Cond(
                Box::new(self.expr(c, Ctx::Read, env)),
                Box::new(self.expr(t, Ctx::Read, env)),
                Box::new(self.expr(f, Ctx::Read, env)),
            ),
            Expr::Call(name, args) => {
                if name == "traceR" || name == "traceW" || name == "traceRW" {
                    // Already-instrumented source: leave the wrapper (and
                    // everything inside it) untouched, so the pass is
                    // idempotent.
                    return e.clone();
                }
                let new_name = self
                    .replacements
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| name.clone());
                let args = args.iter().map(|a| self.expr(a, Ctx::Read, env)).collect();
                Expr::Call(new_name, args)
            }
            Expr::KernelLaunch {
                name,
                grid,
                block,
                shmem,
                stream,
                args,
            } => {
                let grid = self.expr(grid, Ctx::Read, env);
                let block = self.expr(block, Ctx::Read, env);
                let shmem = shmem
                    .as_ref()
                    .map(|e| Box::new(self.expr(e, Ctx::Read, env)));
                let stream = stream
                    .as_ref()
                    .map(|e| Box::new(self.expr(e, Ctx::Read, env)));
                let args: Vec<Expr> = args.iter().map(|a| self.expr(a, Ctx::Read, env)).collect();
                match self.kernel_wrapper {
                    // traceKernelLaunch(grd, blk, kernel, args...). The
                    // wrapper's signature has no launch-config tail, so a
                    // launch carrying shmem/stream keeps the launch form
                    // (its operands are still instrumented).
                    Some(w) if shmem.is_none() && stream.is_none() => {
                        let mut call_args = vec![grid, block, Expr::StrLit(name.clone())];
                        call_args.extend(args);
                        Expr::Call(w.to_string(), call_args)
                    }
                    _ => Expr::KernelLaunch {
                        name: name.clone(),
                        grid: Box::new(grid),
                        block: Box::new(block),
                        shmem,
                        stream,
                        args,
                    },
                }
            }
            Expr::Cast(t, inner) => Expr::Cast(t.clone(), Box::new(self.expr(inner, ctx, env))),
            Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(self.expr(inner, Ctx::Read, env))),
        }
    }

    /// Rewrite a possibly-heap l-value node and wrap it per context.
    fn lvalue(&self, e: &Expr, ctx: Ctx, env: &mut TypeEnv) -> Expr {
        // Children first: interior pointer loads are reads of their own.
        let rebuilt = match e {
            Expr::Unary(UnOp::Deref, b) => {
                Expr::Unary(UnOp::Deref, Box::new(self.expr(b, Ctx::Read, env)))
            }
            Expr::Index(b, i) => Expr::Index(
                Box::new(self.expr(b, Ctx::Read, env)),
                Box::new(self.expr(i, Ctx::Read, env)),
            ),
            Expr::Member(b, f, arrow) => {
                let bctx = if *arrow { Ctx::Read } else { ctx };
                Expr::Member(Box::new(self.expr(b, bctx, env)), f.clone(), *arrow)
            }
            other => other.clone(),
        };
        if ctx == Ctx::NoAccess || classify_lvalue(e) != LvalueClass::Heap {
            return rebuilt;
        }
        let wrapper = match ctx {
            Ctx::Read => "traceR",
            Ctx::Write => "traceW",
            Ctx::Rmw => "traceRW",
            Ctx::NoAccess => unreachable!(),
        };
        Expr::Call(wrapper.to_string(), vec![rebuilt])
    }

    /// Expand a diagnostic pragma into the runtime call (paper §III-B):
    /// verbatim arguments copied as-is, pointer arguments expanded into
    /// `XplAllocData` records, recursively over pointer members.
    fn expand_diagnostic(
        &self,
        func: &str,
        verbatim: &[String],
        expanded: &[String],
        env: &mut TypeEnv,
    ) -> Expr {
        let mut args: Vec<Expr> = verbatim.iter().map(|v| Expr::Ident(v.clone())).collect();
        for var in expanded {
            let base = Expr::Ident(var.clone());
            let ty = env.lookup(var).cloned();
            let mut visited = HashSet::new();
            self.expand_object(&base, var, ty.as_ref(), env, &mut visited, &mut args);
        }
        Expr::Call(func.to_string(), args)
    }

    #[allow(clippy::only_used_in_recursion)] // `env` kept for symmetry with the other walkers
    fn expand_object(
        &self,
        expr: &Expr,
        name: &str,
        ty: Option<&Type>,
        env: &TypeEnv,
        visited: &mut HashSet<String>,
        out: &mut Vec<Expr>,
    ) {
        let Some(Type::Ptr(pointee)) = ty else {
            return; // only pointer-typed arguments are expanded
        };
        out.push(Expr::Call(
            "XplAllocData".to_string(),
            vec![
                expr.clone(),
                Expr::StrLit(name.to_string()),
                Expr::SizeofType((**pointee).clone()),
            ],
        ));
        if let Type::Struct(sname) = &**pointee {
            // Recurse into pointer members, guarding against type
            // repetition (e.g. linked lists).
            if !visited.insert(sname.clone()) {
                return;
            }
            if let Some(def) = self.prog.struct_def(sname) {
                for (fty, fname) in &def.fields {
                    if fty.is_ptr() {
                        let fexpr = Expr::Member(Box::new(expr.clone()), fname.clone(), true);
                        let flabel = format!("{name}->{fname}");
                        self.expand_object(&fexpr, &flabel, Some(fty), env, visited, out);
                    }
                }
            }
            visited.remove(sname);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplacer_lang::parser::parse;
    use xplacer_lang::unparse::{unparse, unparse_expr};

    /// Instrument a snippet inside `main` and return the unparsed text.
    fn instr_main(body: &str, prelude: &str) -> String {
        let src = format!("{prelude}\nint main() {{ {body} }}");
        let prog = parse(&src).unwrap();
        let inst = instrument(&prog);
        unparse(&inst.program)
    }

    #[test]
    fn paper_example_write() {
        // Paper §III-B: `*a = 0` becomes `traceW(*a) = 0`.
        let got = instr_main("double* a; *a = 0.0;", "");
        assert!(got.contains("traceW(*a) = 0.0;"), "{got}");
    }

    #[test]
    fn paper_example_read() {
        // `int x = traceR(*p);`
        let got = instr_main("int* p; int x = *p;", "");
        assert!(got.contains("int x = traceR(*p);"), "{got}");
    }

    #[test]
    fn paper_example_rmw() {
        // `traceRW(*a)++`
        let got = instr_main("int* a; (*a)++;", "");
        assert!(got.contains("traceRW(*a)++"), "{got}");
    }

    #[test]
    fn locals_are_elided() {
        let got = instr_main("int x; x = 3; int y = x + 1;", "");
        assert!(!got.contains("trace"), "locals must not be traced: {got}");
    }

    #[test]
    fn address_of_is_elided() {
        let got = instr_main("int* p; int* q = &p[3];", "");
        assert!(!got.contains("trace"), "{got}");
    }

    #[test]
    fn sizeof_is_unevaluated() {
        let got = instr_main("int* p; size_t n = sizeof(*p);", "");
        assert!(!got.contains("trace"), "{got}");
    }

    #[test]
    fn nested_member_chain_reads_interior_pointers() {
        let got = instr_main(
            "Pair* a; a->first[0] = 1;",
            "struct Pair { int* first; int* second; };",
        );
        // The interior pointer load is a read; the element store a write.
        assert!(got.contains("traceW(traceR(a->first)[0]) = 1;"), "{got}");
    }

    #[test]
    fn compound_assign_is_rmw() {
        let got = instr_main("double* p; p[2] += 1.0;", "");
        assert!(got.contains("traceRW(p[2]) += 1.0;"), "{got}");
    }

    #[test]
    fn reads_in_conditions_and_args() {
        let got = instr_main("int* p; if (p[0] < 3) { f(p[1]); }", "int f(int x);");
        assert!(got.contains("(traceR(p[0]) < 3)"), "{got}");
        assert!(got.contains("f(traceR(p[1]))"), "{got}");
    }

    #[test]
    fn cuda_calls_replaced_by_default() {
        let got = instr_main(
            "double* p; cudaMallocManaged((void**)&p, 8); cudaFree(p);",
            "",
        );
        assert!(got.contains("trcMallocManaged((void**)(&p), 8)"), "{got}");
        assert!(got.contains("trcFree(p)"), "{got}");
    }

    #[test]
    fn replace_pragma_overrides() {
        let src = r#"
            #pragma xpl replace cudaMalloc
            int myMalloc(void** p, size_t n);
            int main() { double* p; cudaMalloc((void**)&p, 64); return 0; }
        "#;
        let prog = parse(src).unwrap();
        let inst = instrument(&prog);
        assert_eq!(inst.replacements["cudaMalloc"], "myMalloc");
        let text = unparse(&inst.program);
        assert!(text.contains("myMalloc((void**)(&p), 64)"), "{text}");
    }

    #[test]
    fn kernel_launch_wrapping() {
        let src = r#"
            #pragma xpl replace kernel-launch
            void traceKernelLaunch(int grd, int blk, char* kernel);
            __global__ void k(double* p) { p[0] = 1.0; }
            int main() { double* p; k<<<1, 32>>>(p); return 0; }
        "#;
        let prog = parse(src).unwrap();
        let inst = instrument(&prog);
        assert_eq!(inst.kernel_wrapper.as_deref(), Some("traceKernelLaunch"));
        let text = unparse(&inst.program);
        assert!(
            text.contains("traceKernelLaunch(1, 32, \"k\", p)"),
            "{text}"
        );
        // The kernel body itself is instrumented too.
        assert!(text.contains("traceW(p[0]) = 1.0;"), "{text}");
    }

    #[test]
    fn diagnostic_pragma_expands_pointers_recursively() {
        let src = r#"
            struct Pair { int* first; int* second; };
            int main() {
                Pair* a;
                int* z;
            #pragma xpl diagnostic tracePrint(out; a, z)
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        let inst = instrument(&prog);
        let f = inst.program.func("main").unwrap();
        let call = f.body.as_ref().unwrap().iter().find_map(|s| match s {
            Stmt::Expr(e @ Expr::Call(name, _), _) if name == "tracePrint" => Some(e),
            _ => None,
        });
        let text = unparse_expr(call.expect("diagnostic call inserted"));
        // Matches the paper's example expansion.
        assert!(
            text.contains("XplAllocData(a, \"a\", sizeof(struct Pair))"),
            "{text}"
        );
        assert!(
            text.contains("XplAllocData(a->first, \"a->first\", sizeof(int))"),
            "{text}"
        );
        assert!(
            text.contains("XplAllocData(a->second, \"a->second\", sizeof(int))"),
            "{text}"
        );
        assert!(
            text.contains("XplAllocData(z, \"z\", sizeof(int))"),
            "{text}"
        );
        assert!(text.starts_with("tracePrint(out, "), "{text}");
    }

    #[test]
    fn recursive_struct_expansion_terminates() {
        let src = r#"
            struct Node { int* value; Node* next; };
            int main() {
                Node* head;
            #pragma xpl diagnostic trc(out; head)
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        let inst = instrument(&prog);
        let text = unparse(&inst.program);
        // head, head->value, head->next — but not head->next->next
        // ("unless there is type repetition", §III-B).
        assert!(text.contains("\"head->next\""), "{text}");
        assert!(!text.contains("head->next->next"), "{text}");
    }

    #[test]
    fn instrumented_output_reparses() {
        let src = r#"
            struct Pair { int* first; int* second; };
            __global__ void k(double* p, int n) {
                int i = threadIdx.x;
                if (i < n) { p[i] = p[i] * 2.0; }
            }
            int main() {
                double* p;
                cudaMallocManaged((void**)&p, 100 * sizeof(double));
                for (int i = 0; i < 100; i++) { p[i] = 1.0; }
                k<<<1, 100>>>(p, 100);
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        let inst = instrument(&prog);
        let text = unparse(&inst.program);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        let _ = instrument(&reparsed);
    }
}
