//! Unparser: AST → MiniCU source text (the analogue of ROSE's unparser,
//! which turns the modified tree back into compilable source).

use std::fmt::Write as _;

use crate::ast::*;

/// Render a whole program.
pub fn unparse(prog: &Program) -> String {
    let mut out = String::new();
    for item in &prog.items {
        match item {
            Item::Pragma(p) => {
                out.push_str(&unparse_pragma(p));
                out.push('\n');
            }
            Item::Struct(s) => {
                let _ = writeln!(out, "struct {} {{", s.name);
                for (t, f) in &s.fields {
                    let _ = writeln!(out, "    {};", decl_str(t, f));
                }
                out.push_str("};\n");
            }
            Item::Global(g) => {
                out.push_str(&unparse_var(g));
                out.push('\n');
            }
            Item::Func(f) => {
                out.push_str(&unparse_func(f));
                out.push('\n');
            }
        }
    }
    out
}

/// `type name` with C pointer spelling.
fn decl_str(t: &Type, name: &str) -> String {
    format!("{t} {name}")
}

fn unparse_var(v: &VarDecl) -> String {
    match &v.init {
        Some(e) => format!("{} = {};", decl_str(&v.ty, &v.name), unparse_expr(e)),
        None => format!("{};", decl_str(&v.ty, &v.name)),
    }
}

fn unparse_pragma(p: &XplPragma) -> String {
    match p {
        XplPragma::Replace { target } => format!("#pragma xpl replace {target}"),
        XplPragma::Diagnostic {
            func,
            verbatim,
            expanded,
        } => format!(
            "#pragma xpl diagnostic {func}({}; {})",
            verbatim.join(", "),
            expanded.join(", ")
        ),
        XplPragma::Other(text) => format!("#{text}"),
    }
}

/// Render one function.
pub fn unparse_func(f: &Func) -> String {
    let mut out = String::new();
    for q in &f.qualifiers {
        out.push_str(match q {
            Qualifier::Global => "__global__ ",
            Qualifier::Device => "__device__ ",
            Qualifier::Host => "__host__ ",
        });
    }
    let params: Vec<String> = f.params.iter().map(|p| decl_str(&p.ty, &p.name)).collect();
    let _ = write!(out, "{} {}({})", f.ret, f.name, params.join(", "));
    match &f.body {
        None => out.push_str(";\n"),
        Some(body) => {
            out.push_str(" {\n");
            for s in body {
                unparse_stmt(&mut out, s, 1);
            }
            out.push_str("}\n");
        }
    }
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn unparse_stmt(out: &mut String, s: &Stmt, level: usize) {
    match s {
        Stmt::Pragma(p) => {
            // Pragmas start in column 0, like the preprocessor demands.
            out.push_str(&unparse_pragma(p));
            out.push('\n');
        }
        Stmt::Decl(v) => {
            indent(out, level);
            out.push_str(&unparse_var(v));
            out.push('\n');
        }
        Stmt::Expr(e, _) => {
            indent(out, level);
            let _ = writeln!(out, "{};", unparse_expr(e));
        }
        Stmt::Return(e, _) => {
            indent(out, level);
            match e {
                Some(e) => {
                    let _ = writeln!(out, "return {};", unparse_expr(e));
                }
                None => out.push_str("return;\n"),
            }
        }
        Stmt::Break => {
            indent(out, level);
            out.push_str("break;\n");
        }
        Stmt::Continue => {
            indent(out, level);
            out.push_str("continue;\n");
        }
        Stmt::Block(body) => {
            indent(out, level);
            out.push_str("{\n");
            for s in body {
                unparse_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            indent(out, level);
            let _ = writeln!(out, "if ({}) {{", unparse_expr(cond));
            for s in then_branch {
                unparse_stmt(out, s, level + 1);
            }
            indent(out, level);
            if else_branch.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_branch {
                    unparse_stmt(out, s, level + 1);
                }
                indent(out, level);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body, .. } => {
            indent(out, level);
            let _ = writeln!(out, "while ({}) {{", unparse_expr(cond));
            for s in body {
                unparse_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            indent(out, level);
            let init_s = match init.as_deref() {
                Some(Stmt::Decl(v)) => unparse_var(v).trim_end_matches(';').to_string(),
                Some(Stmt::Expr(e, _)) => unparse_expr(e),
                _ => String::new(),
            };
            let cond_s = cond.as_ref().map(unparse_expr).unwrap_or_default();
            let step_s = step.as_ref().map(unparse_expr).unwrap_or_default();
            let _ = writeln!(out, "for ({init_s}; {cond_s}; {step_s}) {{");
            for s in body {
                unparse_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

/// Render one expression (fully parenthesized where precedence could
/// bite, conservative but correct).
pub fn unparse_expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v) => v.to_string(),
        Expr::FloatLit(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Expr::StrLit(s) => format!("{:?}", s),
        Expr::Ident(n) => n.clone(),
        Expr::Unary(op, b) => {
            let inner = unparse_expr(b);
            match op {
                UnOp::Neg => format!("-({inner})"),
                UnOp::Not => format!("!({inner})"),
                UnOp::Deref => format!("*{}", paren_if_needed(b)),
                UnOp::Addr => format!("&{}", paren_if_needed(b)),
                UnOp::PreInc => format!("++{}", paren_if_needed(b)),
                UnOp::PreDec => format!("--{}", paren_if_needed(b)),
            }
        }
        Expr::Postfix(op, b) => {
            let sym = match op {
                PostOp::Inc => "++",
                PostOp::Dec => "--",
            };
            format!("{}{sym}", paren_if_needed(b))
        }
        Expr::Binary(op, a, b) => {
            format!("({} {} {})", unparse_expr(a), op.symbol(), unparse_expr(b))
        }
        Expr::Assign(op, l, r) => {
            format!("{} {} {}", unparse_expr(l), op.symbol(), unparse_expr(r))
        }
        Expr::Cond(c, t, f) => format!(
            "({} ? {} : {})",
            unparse_expr(c),
            unparse_expr(t),
            unparse_expr(f)
        ),
        Expr::Call(name, args) => {
            let a: Vec<String> = args.iter().map(unparse_expr).collect();
            format!("{name}({})", a.join(", "))
        }
        Expr::KernelLaunch {
            name,
            grid,
            block,
            shmem,
            stream,
            args,
        } => {
            let a: Vec<String> = args.iter().map(unparse_expr).collect();
            // The launch config prints exactly the arity it was parsed
            // with, so unparsing stays a textual fixpoint.
            let mut cfg = format!("{}, {}", unparse_expr(grid), unparse_expr(block));
            if let Some(sh) = shmem {
                let _ = write!(cfg, ", {}", unparse_expr(sh));
            }
            if let Some(st) = stream {
                let _ = write!(cfg, ", {}", unparse_expr(st));
            }
            format!("{name}<<<{cfg}>>>({})", a.join(", "))
        }
        Expr::Index(b, i) => format!("{}[{}]", paren_if_needed(b), unparse_expr(i)),
        Expr::Member(b, f, arrow) => {
            format!(
                "{}{}{}",
                paren_if_needed(b),
                if *arrow { "->" } else { "." },
                f
            )
        }
        Expr::Cast(t, b) => format!("({t}){}", paren_if_needed(b)),
        Expr::SizeofType(t) => format!("sizeof({t})"),
        Expr::SizeofExpr(b) => format!("sizeof({})", unparse_expr(b)),
    }
}

/// Wrap compound sub-expressions in parentheses where postfix/prefix
/// operators would otherwise rebind.
fn paren_if_needed(e: &Expr) -> String {
    match e {
        Expr::Ident(_)
        | Expr::IntLit(_)
        | Expr::Call(_, _)
        | Expr::Index(_, _)
        | Expr::Member(_, _, _) => unparse_expr(e),
        _ => format!("({})", unparse_expr(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    /// The key property: unparsed output re-parses to the same AST.
    fn roundtrip_program(src: &str) {
        let p1 = parse(src).unwrap();
        let text = unparse(&p1);
        let p2 = parse(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{text}"));
        assert_eq!(p1, p2, "roundtrip changed the AST:\n{text}");
    }

    #[test]
    fn roundtrip_expressions() {
        for src in [
            "a + b * c",
            "*p",
            "p[i + 1]",
            "a->first[0]",
            "s.x",
            "(double)n",
            "sizeof(double)",
            "f(a, b, g(c))",
            "x = y = 3",
            "a += p[2]",
            "++(*p)",
            "p[i]++",
            "a ? b : c",
            "(void**)&p",
            "k<<<n / 256, 256>>>(p, n)",
        ] {
            let e1 = parse_expr(src).unwrap();
            let text = unparse_expr(&e1);
            let e2 = parse_expr(&text)
                .unwrap_or_else(|err| panic!("re-parse of `{text}` failed: {err}"));
            assert_eq!(e1, e2, "roundtrip of `{src}` via `{text}`");
        }
    }

    #[test]
    fn roundtrip_full_program() {
        roundtrip_program(
            r#"
            struct Pair { int* first; int* second; };
            double* g;
            __global__ void init(double* p, int n) {
                int i = threadIdx.x;
                if (i < n) { p[i] = 1.5; } else { p[i] = 0.0; }
            }
            int main() {
                double* p;
                cudaMallocManaged((void**)&p, 100 * sizeof(double));
                for (int i = 0; i < 100; i++) { p[i] = 0.0; }
                init<<<1, 100>>>(p, 100);
                while (p[0] < 10.0) { p[0] += 1.0; }
                return 0;
            }
        "#,
        );
    }

    #[test]
    fn roundtrip_pragmas() {
        roundtrip_program(
            "#pragma xpl replace cudaMalloc\nint trcMalloc(int n);\nint main() {\n#pragma xpl diagnostic trcPrn(out; a, z)\nreturn 0; }",
        );
    }

    #[test]
    fn float_literals_keep_a_decimal_point() {
        // `1.0` must not unparse as `1` (which would re-lex as an int).
        assert_eq!(unparse_expr(&Expr::FloatLit(1.0)), "1.0");
        assert_eq!(unparse_expr(&Expr::FloatLit(2.5)), "2.5");
    }

    #[test]
    fn kernel_launch_spelling() {
        let e = parse_expr("k<<<1, 128>>>(p)").unwrap();
        assert_eq!(unparse_expr(&e), "k<<<1, 128>>>(p)");
    }

    #[test]
    fn struct_definitions_render() {
        let p = parse("struct S { int a; double* b; };").unwrap();
        let text = unparse(&p);
        assert!(text.contains("struct S {"));
        assert!(text.contains("int a;"));
        assert!(text.contains("double* b;"));
    }
}
