//! Random well-typed MiniCU program generation.
//!
//! [`ArbProgram`] is a proptest [`Strategy`] over the `xplacer-lang` AST:
//! it emits programs mixing managed/host/device allocations, init loops,
//! kernel launches, `cudaMemcpy` in every legal direction,
//! `cudaMemAdvise`/`cudaMemPrefetchAsync`, an optional diagnostic pragma,
//! and partial frees — constructed so every run is deterministic,
//! terminating, and free of out-of-bounds accesses. Value expressions are
//! built with the vendored proptest's `prop_recursive`.
//!
//! Invariants the construction guarantees (the conformance oracle relies
//! on them, the interpreter would loudly report violations):
//! * every array has the same element count `n`, so any index of the form
//!   `i` or `(i + c) % n` with `0 <= i < n` is in bounds;
//! * host code only touches managed/host arrays, kernels only managed/
//!   device arrays, matching the simulator's `IllegalAccess` rules;
//! * memcpy direction constants agree with the operand allocation kinds;
//! * advise/prefetch only target managed arrays.

use proptest::{boxed, BoxedStrategy, Just, OneOf, Strategy, StrategyExt, TestRng};
use xplacer_lang::ast::*;

/// Where an array lives, deciding which side may touch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrKind {
    Managed,
    Host,
    Device,
}

impl ArrKind {
    fn host_visible(self) -> bool {
        matches!(self, ArrKind::Managed | ArrKind::Host)
    }
    fn gpu_visible(self) -> bool {
        matches!(self, ArrKind::Managed | ArrKind::Device)
    }
}

#[derive(Debug, Clone)]
struct ArrSpec {
    name: String,
    kind: ArrKind,
}

// ---------------------------------------------------------------------
// Small AST construction helpers.
// ---------------------------------------------------------------------

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary(op, Box::new(l), Box::new(r))
}

fn assign(op: AssignOp, l: Expr, r: Expr) -> Expr {
    Expr::Assign(op, Box::new(l), Box::new(r))
}

fn index(arr: &str, idx: Expr) -> Expr {
    Expr::Index(Box::new(Expr::ident(arr)), Box::new(idx))
}

fn int(v: i64) -> Expr {
    Expr::IntLit(v)
}

/// `n * sizeof(int)` — the byte size of every generated array.
fn bytes_of(n: i64) -> Expr {
    bin(BinOp::Mul, int(n), Expr::SizeofType(Type::Int))
}

fn call_stmt(name: &str, args: Vec<Expr>) -> Stmt {
    Stmt::Expr(Expr::call(name, args), Span::default())
}

/// `for (int i = 0; i < n; i++) body`.
fn for_i(n: i64, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        init: Some(Box::new(Stmt::Decl(VarDecl {
            ty: Type::Int,
            name: "i".into(),
            init: Some(int(0)),
            span: Span::default(),
        }))),
        cond: Some(bin(BinOp::Lt, Expr::ident("i"), int(n))),
        step: Some(Expr::Postfix(PostOp::Inc, Box::new(Expr::ident("i")))),
        body,
        span: Span::default(),
    }
}

// ---------------------------------------------------------------------
// Expression strategies (combinator-built, depth-bounded).
// ---------------------------------------------------------------------

/// An in-bounds index: `i` or `(i + c) % <len>`.
fn index_expr(len: Expr) -> BoxedStrategy<Expr> {
    OneOf::new(vec![
        boxed(Just(Expr::ident("i"))),
        boxed((1i64..8).prop_map(move |c| {
            bin(
                BinOp::Rem,
                bin(BinOp::Add, Expr::ident("i"), int(c)),
                len.clone(),
            )
        })),
    ])
    .boxed()
}

/// Integer-valued expressions over `i`, literals, and reads of `arrays`
/// (each of length `len`). Division is excluded to keep every generated
/// program defined.
fn value_expr(arrays: Vec<String>, len: Expr) -> BoxedStrategy<Expr> {
    let mut leaves: Vec<Box<dyn Strategy<Value = Expr>>> = vec![
        boxed((0i64..16).prop_map(int)),
        boxed(Just(Expr::ident("i"))),
    ];
    for a in arrays {
        let l = len.clone();
        leaves.push(boxed(index_expr(l).prop_map(move |ix| index(&a, ix))));
    }
    let leaf = OneOf::new(leaves).boxed();
    leaf.prop_recursive(2, |inner| {
        const OPS: [BinOp; 3] = [BinOp::Add, BinOp::Sub, BinOp::Mul];
        OneOf::new(vec![
            boxed(inner.clone()),
            boxed((0usize..3, inner.clone(), inner).prop_map(|(k, l, r)| bin(OPS[k], l, r))),
        ])
        .boxed()
    })
}

/// One statement updating `dst[idx]` from a value expression.
fn update_stmt(dst: String, arrays: Vec<String>, len: Expr) -> BoxedStrategy<Stmt> {
    let v = value_expr(arrays, len.clone());
    let ix = index_expr(len);
    (0usize..3, ix, v)
        .prop_map(move |(k, ix, v)| {
            let lhs = index(&dst, ix);
            let op = [AssignOp::Set, AssignOp::Add, AssignOp::Sub][k];
            Stmt::Expr(assign(op, lhs, v), Span::default())
        })
        .boxed()
}

// ---------------------------------------------------------------------
// Program generation.
// ---------------------------------------------------------------------

/// Strategy emitting complete random MiniCU programs.
pub struct ArbProgram;

impl Strategy for ArbProgram {
    type Value = Program;
    fn generate(&self, rng: &mut TestRng) -> Program {
        gen_program(rng)
    }
}

/// Strategy emitting random MiniCU programs that are *checker-clean*:
/// every allocation is initialized before any read (device arrays via an
/// up-front H2D copy), every kernel launch is synchronized before the
/// host touches its data, and every allocation is freed on exit. The
/// `xplacer check` false-positive property quantifies over these.
pub struct CleanProgram;

impl Strategy for CleanProgram {
    type Value = Program;
    fn generate(&self, rng: &mut TestRng) -> Program {
        gen_clean_program(rng)
    }
}

/// `true` iff the program contains a `#pragma xpl diagnostic` (whose
/// `tracePrint` output only exists in instrumented runs, so plain-vs-
/// traced stdout comparison must be skipped).
pub fn has_diagnostic(prog: &Program) -> bool {
    fn stmt_has(s: &Stmt) -> bool {
        match s {
            Stmt::Pragma(XplPragma::Diagnostic { .. }) => true,
            Stmt::Block(b) => b.iter().any(stmt_has),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => then_branch.iter().any(stmt_has) || else_branch.iter().any(stmt_has),
            Stmt::For { body, .. } | Stmt::While { body, .. } => body.iter().any(stmt_has),
            _ => false,
        }
    }
    prog.items.iter().any(|it| match it {
        Item::Pragma(XplPragma::Diagnostic { .. }) => true,
        Item::Func(f) => f
            .body
            .as_ref()
            .map(|b| b.iter().any(stmt_has))
            .unwrap_or(false),
        _ => false,
    })
}

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len() as u64) as usize]
}

fn gen_program(rng: &mut TestRng) -> Program {
    let n = 8 + rng.below(57) as i64; // element count, 8..=64
    let n_arrays = 1 + rng.below(3) as usize; // 1..=3

    // Array 0 is always managed so every program exercises UM paths.
    let mut arrays = Vec::new();
    for k in 0..n_arrays {
        let kind = if k == 0 {
            ArrKind::Managed
        } else {
            *pick(rng, &[ArrKind::Managed, ArrKind::Host, ArrKind::Device])
        };
        arrays.push(ArrSpec {
            name: format!("p{k}"),
            kind,
        });
    }
    let host_arrays: Vec<String> = arrays
        .iter()
        .filter(|a| a.kind.host_visible())
        .map(|a| a.name.clone())
        .collect();
    let gpu_arrays: Vec<String> = arrays
        .iter()
        .filter(|a| a.kind.gpu_visible())
        .map(|a| a.name.clone())
        .collect();

    let mut kernels: Vec<Func> = Vec::new();
    let mut body: Vec<Stmt> = Vec::new();

    // Declarations + allocations.
    for a in &arrays {
        body.push(Stmt::Decl(VarDecl {
            ty: Type::Int.ptr(),
            name: a.name.clone(),
            init: None,
            span: Span::default(),
        }));
        let out_arg = Expr::Cast(
            Type::Void.ptr().ptr(),
            Box::new(Expr::Unary(UnOp::Addr, Box::new(Expr::ident(&a.name)))),
        );
        match a.kind {
            ArrKind::Managed => {
                body.push(call_stmt("cudaMallocManaged", vec![out_arg, bytes_of(n)]));
            }
            ArrKind::Device => {
                body.push(call_stmt("cudaMalloc", vec![out_arg, bytes_of(n)]));
            }
            ArrKind::Host => {
                body.push(Stmt::Expr(
                    assign(
                        AssignOp::Set,
                        Expr::ident(&a.name),
                        Expr::Cast(
                            Type::Int.ptr(),
                            Box::new(Expr::call("malloc", vec![bytes_of(n)])),
                        ),
                    ),
                    Span::default(),
                ));
            }
        }
    }

    // Initialize host-visible arrays.
    for a in &host_arrays {
        let init = value_expr(Vec::new(), int(n)).generate(rng);
        body.push(for_i(
            n,
            vec![Stmt::Expr(
                assign(AssignOp::Set, index(a, Expr::ident("i")), init),
                Span::default(),
            )],
        ));
    }

    // 1..=6 operations.
    let n_ops = 1 + rng.below(6);
    for _ in 0..n_ops {
        match rng.below(8) {
            // Host compute loop (weighted: two arms).
            0..=1 => {
                if host_arrays.is_empty() {
                    continue;
                }
                let dst = pick(rng, &host_arrays).clone();
                let stmt = update_stmt(dst, host_arrays.clone(), int(n)).generate(rng);
                body.push(for_i(n, vec![stmt]));
            }
            // Kernel launch (weighted: three arms).
            2..=4 => {
                if gpu_arrays.is_empty() {
                    continue;
                }
                let ka = pick(rng, &gpu_arrays).clone();
                let kb = pick(rng, &gpu_arrays).clone();
                let name = format!("k{}", kernels.len());
                let n_stmts = 1 + rng.below(2);
                let mut kbody = Vec::new();
                for _ in 0..n_stmts {
                    kbody.push(
                        update_stmt("a".into(), vec!["a".into(), "b".into()], Expr::ident("n"))
                            .generate(rng),
                    );
                }
                kernels.push(Func {
                    qualifiers: vec![Qualifier::Global],
                    ret: Type::Void,
                    name: name.clone(),
                    params: vec![
                        Param {
                            ty: Type::Int.ptr(),
                            name: "a".into(),
                        },
                        Param {
                            ty: Type::Int.ptr(),
                            name: "b".into(),
                        },
                        Param {
                            ty: Type::Int,
                            name: "n".into(),
                        },
                    ],
                    body: Some(vec![
                        Stmt::Decl(VarDecl {
                            ty: Type::Int,
                            name: "i".into(),
                            init: Some(bin(
                                BinOp::Add,
                                Expr::Member(Box::new(Expr::ident("threadIdx")), "x".into(), false),
                                bin(
                                    BinOp::Mul,
                                    Expr::Member(
                                        Box::new(Expr::ident("blockIdx")),
                                        "x".into(),
                                        false,
                                    ),
                                    Expr::Member(
                                        Box::new(Expr::ident("blockDim")),
                                        "x".into(),
                                        false,
                                    ),
                                ),
                            )),
                            span: Span::default(),
                        }),
                        Stmt::If {
                            cond: bin(BinOp::Lt, Expr::ident("i"), Expr::ident("n")),
                            then_branch: kbody,
                            else_branch: vec![],
                            span: Span::default(),
                        },
                    ]),
                });
                body.push(Stmt::Expr(
                    Expr::KernelLaunch {
                        name,
                        grid: Box::new(int((n + 31) / 32)),
                        block: Box::new(int(32)),
                        shmem: None,
                        stream: None,
                        args: vec![Expr::ident(&ka), Expr::ident(&kb), int(n)],
                    },
                    Span::default(),
                ));
                body.push(call_stmt("cudaDeviceSynchronize", vec![]));
            }
            // Memcpy in a direction legal for the operand kinds.
            5 => {
                let mut pairs = Vec::new();
                for d in &arrays {
                    for s in &arrays {
                        if d.name == s.name {
                            continue;
                        }
                        for (code, src_ok, dst_ok) in [
                            (
                                0i64,
                                ArrKind::host_visible as fn(ArrKind) -> bool,
                                ArrKind::host_visible as fn(ArrKind) -> bool,
                            ),
                            (1, ArrKind::host_visible, ArrKind::gpu_visible),
                            (2, ArrKind::gpu_visible, ArrKind::host_visible),
                            (3, ArrKind::gpu_visible, ArrKind::gpu_visible),
                        ] {
                            if src_ok(s.kind) && dst_ok(d.kind) {
                                pairs.push((d.name.clone(), s.name.clone(), code));
                            }
                        }
                    }
                }
                if pairs.is_empty() {
                    continue;
                }
                let (d, s, code) = pick(rng, &pairs).clone();
                body.push(call_stmt(
                    "cudaMemcpy",
                    vec![Expr::ident(&d), Expr::ident(&s), bytes_of(n), int(code)],
                ));
            }
            // Advise on a managed array.
            6 => {
                let managed: Vec<&ArrSpec> = arrays
                    .iter()
                    .filter(|a| a.kind == ArrKind::Managed)
                    .collect();
                let a = pick(rng, &managed);
                let advice = 1 + rng.below(6) as i64;
                let dev = if rng.below(2) == 0 {
                    int(0)
                } else {
                    Expr::Unary(UnOp::Neg, Box::new(int(1)))
                };
                body.push(call_stmt(
                    "cudaMemAdvise",
                    vec![Expr::ident(&a.name), bytes_of(n), int(advice), dev],
                ));
            }
            // Prefetch a managed array.
            _ => {
                let managed: Vec<&ArrSpec> = arrays
                    .iter()
                    .filter(|a| a.kind == ArrKind::Managed)
                    .collect();
                let a = pick(rng, &managed);
                let dev = if rng.below(2) == 0 {
                    int(0)
                } else {
                    Expr::Unary(UnOp::Neg, Box::new(int(1)))
                };
                body.push(call_stmt(
                    "cudaMemPrefetchAsync",
                    vec![Expr::ident(&a.name), bytes_of(n), dev],
                ));
            }
        }
    }

    // Optional diagnostic point (paper Fig. 4): only meaningful traced.
    if rng.below(3) == 0 {
        body.push(Stmt::Pragma(XplPragma::Diagnostic {
            func: "tracePrint".into(),
            verbatim: vec!["out".into()],
            expanded: vec![arrays[0].name.clone()],
        }));
    }

    // Checksum over host-visible arrays; becomes stdout + exit code.
    body.push(Stmt::Decl(VarDecl {
        ty: Type::Int,
        name: "acc".into(),
        init: Some(int(0)),
        span: Span::default(),
    }));
    for a in &host_arrays {
        body.push(for_i(
            n,
            vec![Stmt::Expr(
                assign(
                    AssignOp::Add,
                    Expr::ident("acc"),
                    index(a, Expr::ident("i")),
                ),
                Span::default(),
            )],
        ));
    }
    body.push(call_stmt(
        "printf",
        vec![Expr::StrLit("acc=%d\n".into()), Expr::ident("acc")],
    ));

    // Partial frees: leaving some allocations live exercises the
    // unused/leaked-allocation reporting paths.
    for a in &arrays {
        if rng.below(4) == 0 {
            continue;
        }
        let f = if a.kind == ArrKind::Host {
            "free"
        } else {
            "cudaFree"
        };
        body.push(call_stmt(f, vec![Expr::ident(&a.name)]));
    }

    body.push(Stmt::Return(
        Some(bin(BinOp::Rem, Expr::ident("acc"), int(251))),
        Span::default(),
    ));

    let mut items: Vec<Item> = kernels.into_iter().map(Item::Func).collect();
    items.push(Item::Func(Func {
        qualifiers: vec![],
        ret: Type::Int,
        name: "main".into(),
        params: vec![],
        body: Some(body),
    }));
    Program { items }
}

/// The kernel shape shared by both generators: `a[i] (op)= f(a, b)` under
/// an `i < n` guard.
fn gen_kernel(rng: &mut TestRng, name: &str) -> Func {
    let n_stmts = 1 + rng.below(2);
    let mut kbody = Vec::new();
    for _ in 0..n_stmts {
        kbody.push(
            update_stmt("a".into(), vec!["a".into(), "b".into()], Expr::ident("n")).generate(rng),
        );
    }
    Func {
        qualifiers: vec![Qualifier::Global],
        ret: Type::Void,
        name: name.to_string(),
        params: vec![
            Param {
                ty: Type::Int.ptr(),
                name: "a".into(),
            },
            Param {
                ty: Type::Int.ptr(),
                name: "b".into(),
            },
            Param {
                ty: Type::Int,
                name: "n".into(),
            },
        ],
        body: Some(vec![
            Stmt::Decl(VarDecl {
                ty: Type::Int,
                name: "i".into(),
                init: Some(bin(
                    BinOp::Add,
                    Expr::Member(Box::new(Expr::ident("threadIdx")), "x".into(), false),
                    bin(
                        BinOp::Mul,
                        Expr::Member(Box::new(Expr::ident("blockIdx")), "x".into(), false),
                        Expr::Member(Box::new(Expr::ident("blockDim")), "x".into(), false),
                    ),
                )),
                span: Span::default(),
            }),
            Stmt::If {
                cond: bin(BinOp::Lt, Expr::ident("i"), Expr::ident("n")),
                then_branch: kbody,
                else_branch: vec![],
                span: Span::default(),
            },
        ]),
    }
}

fn gen_clean_program(rng: &mut TestRng) -> Program {
    let n = 8 + rng.below(57) as i64; // element count, 8..=64
    let n_arrays = 1 + rng.below(3) as usize; // 1..=3

    let mut arrays = Vec::new();
    for k in 0..n_arrays {
        let kind = if k == 0 {
            ArrKind::Managed
        } else {
            *pick(rng, &[ArrKind::Managed, ArrKind::Host, ArrKind::Device])
        };
        arrays.push(ArrSpec {
            name: format!("p{k}"),
            kind,
        });
    }
    let host_arrays: Vec<String> = arrays
        .iter()
        .filter(|a| a.kind.host_visible())
        .map(|a| a.name.clone())
        .collect();
    let gpu_arrays: Vec<String> = arrays
        .iter()
        .filter(|a| a.kind.gpu_visible())
        .map(|a| a.name.clone())
        .collect();

    let mut kernels: Vec<Func> = Vec::new();
    let mut body: Vec<Stmt> = Vec::new();

    // Declarations + allocations (same shapes as gen_program).
    for a in &arrays {
        body.push(Stmt::Decl(VarDecl {
            ty: Type::Int.ptr(),
            name: a.name.clone(),
            init: None,
            span: Span::default(),
        }));
        let out_arg = Expr::Cast(
            Type::Void.ptr().ptr(),
            Box::new(Expr::Unary(UnOp::Addr, Box::new(Expr::ident(&a.name)))),
        );
        match a.kind {
            ArrKind::Managed => {
                body.push(call_stmt("cudaMallocManaged", vec![out_arg, bytes_of(n)]));
            }
            ArrKind::Device => {
                body.push(call_stmt("cudaMalloc", vec![out_arg, bytes_of(n)]));
            }
            ArrKind::Host => {
                body.push(Stmt::Expr(
                    assign(
                        AssignOp::Set,
                        Expr::ident(&a.name),
                        Expr::Cast(
                            Type::Int.ptr(),
                            Box::new(Expr::call("malloc", vec![bytes_of(n)])),
                        ),
                    ),
                    Span::default(),
                ));
            }
        }
    }

    // Initialize every host-visible array on the host ...
    for a in &host_arrays {
        let init = value_expr(Vec::new(), int(n)).generate(rng);
        body.push(for_i(
            n,
            vec![Stmt::Expr(
                assign(AssignOp::Set, index(a, Expr::ident("i")), init),
                Span::default(),
            )],
        ));
    }
    // ... and every device array via an up-front H2D copy, so no read
    // anywhere can touch uninitialized bytes (`host_arrays` is never
    // empty: array 0 is always managed).
    for a in &arrays {
        if a.kind == ArrKind::Device {
            let src = pick(rng, &host_arrays).clone();
            body.push(call_stmt(
                "cudaMemcpy",
                vec![
                    Expr::ident(&a.name),
                    Expr::ident(&src),
                    bytes_of(n),
                    int(1), // HostToDevice
                ],
            ));
        }
    }

    // One stream for the async-launch arm, synchronized after every use.
    body.push(Stmt::Decl(VarDecl {
        ty: Type::Int,
        name: "s0".into(),
        init: None,
        span: Span::default(),
    }));
    body.push(call_stmt(
        "cudaStreamCreate",
        vec![Expr::Unary(UnOp::Addr, Box::new(Expr::ident("s0")))],
    ));

    // 1..=6 operations, each leaving the program ordered and initialized.
    let n_ops = 1 + rng.below(6);
    for _ in 0..n_ops {
        match rng.below(8) {
            // Host compute loop.
            0..=1 => {
                let dst = pick(rng, &host_arrays).clone();
                let stmt = update_stmt(dst, host_arrays.clone(), int(n)).generate(rng);
                body.push(for_i(n, vec![stmt]));
            }
            // Synchronous kernel launch + device sync.
            2..=3 => {
                let ka = pick(rng, &gpu_arrays).clone();
                let kb = pick(rng, &gpu_arrays).clone();
                let name = format!("k{}", kernels.len());
                kernels.push(gen_kernel(rng, &name));
                body.push(Stmt::Expr(
                    Expr::KernelLaunch {
                        name,
                        grid: Box::new(int((n + 31) / 32)),
                        block: Box::new(int(32)),
                        shmem: None,
                        stream: None,
                        args: vec![Expr::ident(&ka), Expr::ident(&kb), int(n)],
                    },
                    Span::default(),
                ));
                body.push(call_stmt("cudaDeviceSynchronize", vec![]));
            }
            // Async launch on the stream, synchronized immediately.
            4 => {
                let ka = pick(rng, &gpu_arrays).clone();
                let kb = pick(rng, &gpu_arrays).clone();
                let name = format!("k{}", kernels.len());
                kernels.push(gen_kernel(rng, &name));
                body.push(Stmt::Expr(
                    Expr::KernelLaunch {
                        name,
                        grid: Box::new(int((n + 31) / 32)),
                        block: Box::new(int(32)),
                        shmem: Some(Box::new(int(0))),
                        stream: Some(Box::new(Expr::ident("s0"))),
                        args: vec![Expr::ident(&ka), Expr::ident(&kb), int(n)],
                    },
                    Span::default(),
                ));
                body.push(call_stmt("cudaStreamSynchronize", vec![Expr::ident("s0")]));
            }
            // Memcpy in a direction legal for the operand kinds.
            5 => {
                let mut pairs = Vec::new();
                for d in &arrays {
                    for s in &arrays {
                        if d.name == s.name {
                            continue;
                        }
                        for (code, src_ok, dst_ok) in [
                            (
                                0i64,
                                ArrKind::host_visible as fn(ArrKind) -> bool,
                                ArrKind::host_visible as fn(ArrKind) -> bool,
                            ),
                            (1, ArrKind::host_visible, ArrKind::gpu_visible),
                            (2, ArrKind::gpu_visible, ArrKind::host_visible),
                            (3, ArrKind::gpu_visible, ArrKind::gpu_visible),
                        ] {
                            if src_ok(s.kind) && dst_ok(d.kind) {
                                pairs.push((d.name.clone(), s.name.clone(), code));
                            }
                        }
                    }
                }
                if pairs.is_empty() {
                    continue;
                }
                let (d, s, code) = pick(rng, &pairs).clone();
                body.push(call_stmt(
                    "cudaMemcpy",
                    vec![Expr::ident(&d), Expr::ident(&s), bytes_of(n), int(code)],
                ));
            }
            // Advise on a managed array.
            6 => {
                let managed: Vec<&ArrSpec> = arrays
                    .iter()
                    .filter(|a| a.kind == ArrKind::Managed)
                    .collect();
                let a = pick(rng, &managed);
                let advice = 1 + rng.below(6) as i64;
                let dev = if rng.below(2) == 0 {
                    int(0)
                } else {
                    Expr::Unary(UnOp::Neg, Box::new(int(1)))
                };
                body.push(call_stmt(
                    "cudaMemAdvise",
                    vec![Expr::ident(&a.name), bytes_of(n), int(advice), dev],
                ));
            }
            // Prefetch a managed array.
            _ => {
                let managed: Vec<&ArrSpec> = arrays
                    .iter()
                    .filter(|a| a.kind == ArrKind::Managed)
                    .collect();
                let a = pick(rng, &managed);
                let dev = if rng.below(2) == 0 {
                    int(0)
                } else {
                    Expr::Unary(UnOp::Neg, Box::new(int(1)))
                };
                body.push(call_stmt(
                    "cudaMemPrefetchAsync",
                    vec![Expr::ident(&a.name), bytes_of(n), dev],
                ));
            }
        }
    }

    // Checksum over host-visible arrays; becomes stdout + exit code.
    body.push(Stmt::Decl(VarDecl {
        ty: Type::Int,
        name: "acc".into(),
        init: Some(int(0)),
        span: Span::default(),
    }));
    for a in &host_arrays {
        body.push(for_i(
            n,
            vec![Stmt::Expr(
                assign(
                    AssignOp::Add,
                    Expr::ident("acc"),
                    index(a, Expr::ident("i")),
                ),
                Span::default(),
            )],
        ));
    }
    body.push(call_stmt(
        "printf",
        vec![Expr::StrLit("acc=%d\n".into()), Expr::ident("acc")],
    ));

    // Clean exit: destroy the stream and free *everything*.
    body.push(call_stmt("cudaStreamDestroy", vec![Expr::ident("s0")]));
    for a in &arrays {
        let f = if a.kind == ArrKind::Host {
            "free"
        } else {
            "cudaFree"
        };
        body.push(call_stmt(f, vec![Expr::ident(&a.name)]));
    }

    body.push(Stmt::Return(
        Some(bin(BinOp::Rem, Expr::ident("acc"), int(251))),
        Span::default(),
    ));

    let mut items: Vec<Item> = kernels.into_iter().map(Item::Func).collect();
    items.push(Item::Func(Func {
        qualifiers: vec![],
        ret: Type::Int,
        name: "main".into(),
        params: vec![],
        body: Some(body),
    }));
    Program { items }
}
