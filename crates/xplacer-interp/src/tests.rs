//! Interpreter tests: language semantics, CUDA API behaviour, and the
//! full instrument-then-run pipeline.

use super::*;
use hetsim::platform::intel_pascal;

fn run(src: &str) -> Outcome {
    run_source(src, intel_pascal(), false)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

fn run_instr(src: &str) -> (Outcome, Interp) {
    run_source(src, intel_pascal(), true).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn arithmetic_and_control_flow() {
    let out = run(r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(10); }
    "#);
    assert_eq!(out.exit, 55);
}

#[test]
fn loops_break_continue() {
    let out = run(r#"
        int main() {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) { continue; }
                if (i > 10) { break; }
                s += i;
            }
            return s;
        }
    "#);
    assert_eq!(out.exit, 1 + 3 + 5 + 7 + 9);
}

#[test]
fn while_and_ternary() {
    let out = run(r#"
        int main() {
            int x = 0;
            while (x < 7) { x++; }
            return x == 7 ? 42 : 0;
        }
    "#);
    assert_eq!(out.exit, 42);
}

#[test]
fn doubles_and_casts() {
    let out = run(r#"
        int main() {
            double x = 3.5;
            double y = x * 2.0 + 1.0;
            return (int)y;
        }
    "#);
    assert_eq!(out.exit, 8);
}

#[test]
fn managed_memory_host_access() {
    let out = run(r#"
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 10 * sizeof(double));
            for (int i = 0; i < 10; i++) { p[i] = i * 1.5; }
            double s = 0.0;
            for (int i = 0; i < 10; i++) { s += p[i]; }
            cudaFree(p);
            return (int)s;
        }
    "#);
    assert_eq!(out.exit, 67); // 1.5 * 45 = 67.5
    assert_eq!(out.stats.allocs, 1);
    assert_eq!(out.stats.frees, 1);
}

#[test]
fn kernel_launch_and_thread_indexing() {
    let out = run(r#"
        __global__ void scale(double* p, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { p[i] = p[i] * 2.0; }
        }
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 64 * sizeof(double));
            for (int i = 0; i < 64; i++) { p[i] = 1.0; }
            scale<<<2, 32>>>(p, 64);
            cudaDeviceSynchronize();
            double s = 0.0;
            for (int i = 0; i < 64; i++) { s += p[i]; }
            return (int)s;
        }
    "#);
    assert_eq!(out.exit, 128);
    assert_eq!(out.stats.kernel_launches, 1);
    assert!(out.stats.gpu_writes >= 64);
    // The GPU touch migrated pages; the host read-back migrated back.
    assert!(out.stats.migrations() >= 2);
}

#[test]
fn explicit_device_memory_and_memcpy() {
    let out = run(r#"
        __global__ void inc(int* d, int n) {
            int i = threadIdx.x;
            if (i < n) { d[i] = d[i] + 1; }
        }
        int main() {
            int* h;
            int* d;
            h = (int*)malloc(16 * sizeof(int));
            cudaMalloc((void**)&d, 16 * sizeof(int));
            for (int i = 0; i < 16; i++) { h[i] = i; }
            cudaMemcpy(d, h, 16 * sizeof(int), cudaMemcpyHostToDevice);
            inc<<<1, 16>>>(d, 16);
            cudaMemcpy(h, d, 16 * sizeof(int), cudaMemcpyDeviceToHost);
            int s = 0;
            for (int i = 0; i < 16; i++) { s += h[i]; }
            return s;
        }
    "#);
    assert_eq!(out.exit, (0..16).sum::<i64>() + 16);
    assert_eq!(out.stats.memcpy_h2d, 1);
    assert_eq!(out.stats.memcpy_d2h, 1);
}

#[test]
fn structs_through_pointers() {
    let out = run(r#"
        struct Pair { int* first; int* second; };
        int main() {
            Pair* a;
            cudaMallocManaged((void**)&a, sizeof(Pair));
            int* x;
            int* y;
            cudaMallocManaged((void**)&x, 4 * sizeof(int));
            cudaMallocManaged((void**)&y, 4 * sizeof(int));
            a->first = x;
            a->second = y;
            a->first[0] = 30;
            a->second[1] = 12;
            return a->first[0] + a->second[1];
        }
    "#);
    assert_eq!(out.exit, 42);
}

#[test]
fn pointer_arithmetic() {
    let out = run(r#"
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 8 * sizeof(double));
            double* q = p + 3;
            *q = 5.5;
            return (int)(p[3] * 2.0);
        }
    "#);
    assert_eq!(out.exit, 11);
}

#[test]
fn increments_and_compound_assign() {
    let out = run(r#"
        int main() {
            int* p;
            cudaMallocManaged((void**)&p, 4 * sizeof(int));
            p[0] = 5;
            (p[0])++;
            ++(p[0]);
            p[0] += 10;
            int x = p[0]++;
            return x * 100 + p[0];
        }
    "#);
    assert_eq!(out.exit, 17 * 100 + 18);
}

#[test]
fn new_and_delete_lowering() {
    let out = run(r#"
        int main() {
            int* p = new int(2);
            int v = *p;
            free(p);
            double* arr = new double[5];
            arr[4] = 2.5;
            return v + (int)(arr[4] * 2.0);
        }
    "#);
    assert_eq!(out.exit, 7);
}

#[test]
fn printf_output() {
    let out = run(r#"
        int main() {
            printf("n=%d x=%g s=%s\n", 7, 2.5, "ok");
            return 0;
        }
    "#);
    assert_eq!(out.stdout, "n=7 x=2.5 s=ok\n");
}

#[test]
fn new_stores_its_initializer_as_its_type() {
    let out = run(r#"
        int main() {
            double* d = new double(3.5);
            float* f = new float(2.5);
            int* i = new int(2);
            printf("%f %f %d\n", *d, *f, *i);
            return 0;
        }
    "#);
    assert_eq!(out.stdout, "3.500000 2.500000 2\n");
}

#[test]
fn printf_g_follows_c() {
    let cases = [
        (1.5e-323, "1.4822e-323"),
        (2.8026e-45, "2.8026e-45"),
        (0.00001, "1e-05"),
        (0.0001, "0.0001"),
        (1234567.0, "1.23457e+06"),
        (123456.0, "123456"),
        (100.0, "100"),
        (-0.5, "-0.5"),
        (0.0, "0"),
        (2.5, "2.5"),
        (1536.0, "1536"),
    ];
    for (v, want) in cases {
        let got = format_printf("%g", &[Value::Double(v)]).unwrap();
        assert_eq!(got, want, "%g of {v:e}");
    }
}

#[test]
fn mem_advise_constants_work() {
    let out = run(r#"
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 4096);
            cudaMemAdvise(p, 4096, cudaMemAdviseSetReadMostly, 0);
            p[0] = 1.0;
            return 0;
        }
    "#);
    assert_eq!(out.exit, 0);
}

#[test]
fn runtime_errors_are_reported() {
    let e = run_source(
        "int main() { int x = 1 / 0; return x; }",
        intel_pascal(),
        false,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(e.message.contains("division by zero"));

    let e = run_source("int main() { int* p; return *p; }", intel_pascal(), false)
        .map(|_| ())
        .unwrap_err();
    assert!(e.message.contains("null pointer"), "{e}");

    let e = run_source(
        r#"
        int main() {
            int* p;
            cudaMallocManaged((void**)&p, 4);
            cudaFree(p);
            return p[0];
        }
    "#,
        intel_pascal(),
        false,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(e.message.contains("use after free"), "{e}");

    // A kernel takes exactly its parameters, like any call.
    let e = run_source(
        "__global__ void k(int* p, int n) { } int main() { k<<<1, 1>>>(0); return 0; }",
        intel_pascal(),
        false,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(e.message.contains("`k` expects 2 arguments, got 1"), "{e}");

    // A pointer to a local of a returned call is an error, not a crash.
    let e = run_source(
        "int* f() { int x = 1; return &x; } int main() { int* p = f(); return *p; }",
        intel_pascal(),
        false,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(e.message.contains("returned call"), "{e}");
}

#[test]
fn host_cannot_touch_device_memory() {
    let e = run_source(
        r#"
        int main() {
            int* d;
            cudaMalloc((void**)&d, 64);
            return d[0];
        }
    "#,
        intel_pascal(),
        false,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(e.message.contains("no access path"), "{e}");
}

#[test]
fn prototypes_do_not_hide_definitions() {
    let src = r#"
        int sq(int x);
        __global__ void fill(int* p);
        int main() {
            int* p;
            cudaMallocManaged((void**)&p, 4 * sizeof(int));
            fill<<<1, 4>>>(p);
            return sq(p[3]);
        }
        int sq(int x) { return x * x; }
        __global__ void fill(int* p) { p[threadIdx.x] = threadIdx.x + 1; }
    "#;
    assert_eq!(run(src).exit, 16);
    assert_eq!(run_instr(src).0.exit, 16);
    // A function that is only declared still has no body to call.
    let e = run_source(
        "int f(int x); int main() { return f(1); }",
        intel_pascal(),
        false,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(
        e.message.contains("call to function `f` with no body"),
        "{e}"
    );
}

#[test]
fn out_pointer_takes_the_receiving_variables_declared_type() {
    // Another function's `int* p` must not type main's `double* p`, and
    // a global pointer is typed by its own declaration too.
    let out = run(r#"
        double* g;
        void helper() { int* p; }
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 2 * sizeof(double));
            cudaMallocManaged((void**)&g, 2 * sizeof(double));
            p[0] = 1.5;
            p[1] = p[0] * 2.0;
            g[0] = 2.5;
            g[1] = g[0] * 2.0;
            printf("p0=%f p1=%f g1=%f\n", p[0], p[1], g[1]);
            return 0;
        }
    "#);
    assert_eq!(out.stdout, "p0=1.500000 p1=3.000000 g1=5.000000\n");
}

#[test]
fn scoping_semantics() {
    // Shadowing, a write through `&y` in a callee's frame, and recursion
    // reading its own `n` after the inner call returns.
    let out = run(r#"
        void set(int* q, int v) { *q = v; }
        int fact(int n) {
            int r = n;
            if (n > 1) { r = fact(n - 1) * n; }
            return r;
        }
        int main() {
            int x = 1;
            { int x = 2; x = x + 40; }
            int y = 0;
            set(&y, 7);
            printf("%d %d %d\n", x, y, fact(5));
            return 0;
        }
    "#);
    assert_eq!(out.stdout, "1 7 120\n");

    let fails = |src: &str| {
        run_source(src, intel_pascal(), false)
            .map(|_| ())
            .unwrap_err()
            .message
    };
    // A `for` variable is gone after its loop.
    let e = fails("int main() { for (int i = 0; i < 3; i++) { } return i; }");
    assert!(e.contains("use of undeclared variable `i`"), "{e}");
    // A global initializer sees only the globals declared before it.
    assert_eq!(
        run("int b = 2; int a = b + 1; int main() { return a; }").exit,
        3
    );
    let e = fails("int a = b + 1; int b = 2; int main() { return a; }");
    assert!(e.contains("use of undeclared variable `b`"), "{e}");
    // An undeclared name fails only when it is evaluated.
    assert_eq!(
        run("int unused() { return nope; } int main() { return 3; }").exit,
        3
    );
}

#[test]
fn infinite_loop_hits_step_budget() {
    let src = "int main() {\n    int x = 0;\n    while (1) { }\n    return x;\n}\n";
    let prog = xplacer_lang::parser::parse(src).unwrap();
    let mut i = Interp::new(prog, Machine::new(intel_pascal()));
    i.max_steps = 10_000;
    let e = i.run_main().unwrap_err();
    // The error names the statement being executed: the `while`.
    assert_eq!(e.message, "step budget exceeded at 3:5 (runaway loop?)");
}

// ----------------------------------------------------------------------
// The full pipeline: instrument → run → diagnose
// ----------------------------------------------------------------------

/// The paper's running example shape: managed memory written by the CPU
/// and read by the GPU, diagnosed at the end.
const ALTERNATING_DEMO: &str = r#"
    struct Pair { double* first; double* second; };
    __global__ void consume(Pair* a, int n) {
        int i = threadIdx.x;
        if (i < n) {
            a->second[i] = a->first[i] * 2.0;
        }
    }
    int main() {
        Pair* a;
        cudaMallocManaged((void**)&a, sizeof(Pair));
        double* x;
        double* y;
        cudaMallocManaged((void**)&x, 32 * sizeof(double));
        cudaMallocManaged((void**)&y, 32 * sizeof(double));
        a->first = x;
        a->second = y;
        for (int i = 0; i < 32; i++) { a->first[i] = i; }
        consume<<<1, 32>>>(a, 32);
        cudaDeviceSynchronize();
        double s = a->second[31];
    #pragma xpl diagnostic tracePrint(out; a)
        return (int)s;
    }
"#;

#[test]
fn instrumented_run_matches_uninstrumented_result() {
    let plain = run(ALTERNATING_DEMO);
    let (traced, _) = run_instr(ALTERNATING_DEMO);
    assert_eq!(plain.exit, 62);
    assert_eq!(traced.exit, 62);
}

#[test]
fn instrumented_run_produces_fig4_style_output() {
    let (out, _) = run_instr(ALTERNATING_DEMO);
    assert!(
        out.stdout.contains("named allocations"),
        "diagnostic output missing: {}",
        out.stdout
    );
    assert!(out.stdout.contains("a->first"), "{}", out.stdout);
    assert!(out.stdout.contains("write counts"), "{}", out.stdout);
    assert!(
        out.stdout.contains("elements with alternating accesses"),
        "{}",
        out.stdout
    );
}

#[test]
fn instrumented_run_detects_alternating_antipattern() {
    // Analyze before tracePrint resets: use a version without the pragma.
    let src = ALTERNATING_DEMO.replace("#pragma xpl diagnostic tracePrint(out; a)", "");
    let (_, interp) = run_instr(&src);
    let report =
        xplacer_core::analyze(&interp.tracer.smt, &xplacer_core::AnalysisConfig::default());
    // a->first: CPU-written, GPU-read → alternating. The Pair object
    // itself also alternates (CPU writes the pointers, GPU reads them).
    let alternating: Vec<_> = report
        .of_kind(xplacer_core::FindingKind::Alternating)
        .collect();
    assert!(
        alternating.len() >= 2,
        "expected alternating findings, got: {report}"
    );
}

#[test]
fn uninstrumented_run_records_nothing() {
    let src = ALTERNATING_DEMO.replace("#pragma xpl diagnostic tracePrint(out; a)", "");
    let (out, interp) = run_source(&src, intel_pascal(), false).unwrap();
    assert_eq!(out.exit, 62);
    assert_eq!(interp.tracer.tracked(), 0, "no trc* calls → nothing traced");
}

#[test]
fn tracer_counts_match_program_structure() {
    let src = r#"
        __global__ void touch(double* p, int n) {
            int i = threadIdx.x;
            if (i < n) { p[i] = p[i] + 1.0; }
        }
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 16 * sizeof(double));
            for (int i = 0; i < 16; i++) { p[i] = 0.0; }
            touch<<<1, 16>>>(p, 16);
            return 0;
        }
    "#;
    let (_, interp) = run_instr(src);
    let summaries = xplacer_core::summarize(&interp.tracer.smt, false);
    let p = summaries.iter().find(|s| s.size == 128).expect("p tracked");
    // Every f64 word pair written by CPU (init) and by GPU (kernel), and
    // read by the GPU.
    assert_eq!(p.writes_c, 32);
    assert_eq!(p.writes_g, 32);
    assert_eq!(p.r_cg, 32, "GPU read CPU-written values");
}

#[test]
fn simulated_time_advances() {
    let out = run(r#"
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 4096);
            for (int i = 0; i < 512; i++) { p[i] = 1.0; }
            return 0;
        }
    "#);
    assert!(out.elapsed_ns > 0.0);
}

// ----------------------------------------------------------------------
// Array-sweep fast path (one machine range access)
// ----------------------------------------------------------------------

/// Run `src` twice — bulk fast path on (default) and off — in both plain
/// and instrumented modes, and require identical exit, stdout, stats,
/// simulated time, and shadow memory.
fn assert_bulk_equiv(src: &str) {
    for instrumented in [false, true] {
        let bulk = run_source(src, intel_pascal(), instrumented)
            .unwrap_or_else(|e| panic!("bulk (instr={instrumented}): {e}"));
        let mut m = hetsim::Machine::new(intel_pascal());
        m.set_bulk_enabled(false);
        let word = run_source_on(src, m, instrumented)
            .unwrap_or_else(|e| panic!("per-word (instr={instrumented}): {e}"));
        assert_eq!(bulk.0.exit, word.0.exit, "exit (instr={instrumented})");
        assert_eq!(
            bulk.0.stdout, word.0.stdout,
            "stdout (instr={instrumented})"
        );
        assert_eq!(bulk.0.stats, word.0.stats, "stats (instr={instrumented})");
        assert_eq!(
            bulk.0.elapsed_ns.to_bits(),
            word.0.elapsed_ns.to_bits(),
            "elapsed not bit-identical (instr={instrumented})"
        );
        let dig = |i: &Interp| {
            i.tracer
                .smt
                .iter()
                .map(|e| {
                    let bytes: String = e.shadow.iter().map(|f| format!("{:02x}", f.0)).collect();
                    format!("{:#x}+{} {bytes}", e.base, e.size)
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(dig(&bulk.1), dig(&word.1), "shadow (instr={instrumented})");
    }
}

#[test]
fn sweep_fill_and_reduce_match_per_word() {
    assert_bulk_equiv(
        r#"
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 512 * sizeof(double));
            for (int i = 0; i < 512; i++) { p[i] = 3.0; }
            double s = 0.0;
            for (int i = 0; i < 512; i++) { s = s + p[i]; }
            int* q;
            q = (int*)malloc(100 * sizeof(int));
            for (int i = 0; i < 100; i++) { q[i] = -7; }
            int t = 0;
            for (int i = 0; i < 100; i++) { t += q[i]; }
            printf("%g %d\n", s, t);
            return t + 700;
        }
    "#,
    );
}

#[test]
fn sweep_inside_kernel_matches_per_word() {
    assert_bulk_equiv(
        r#"
        __global__ void fillrows(double* p, int n) {
            for (int i = 0; i < n; i++) { p[i] = 2.5; }
        }
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 256 * sizeof(double));
            fillrows<<<1, 4>>>(p, 256);
            double s = 0.0;
            for (int i = 0; i < 256; i++) { s = s + p[i]; }
            printf("%g\n", s);
            return 0;
        }
    "#,
    );
}

#[test]
fn sweep_fast_path_engages_and_non_sweeps_fall_back() {
    // Variable bound, assignment-style init, existing loop variable.
    assert_bulk_equiv(
        r#"
        int main() {
            int n = 64;
            int i;
            int* p;
            cudaMallocManaged((void**)&p, 64 * sizeof(int));
            for (i = 0; i < n; i++) { p[i] = 5; }
            int s = 0;
            for (i = 0; i < n; i++) { s += p[i]; }
            printf("%d %d\n", i, s);
            return s / 64;
        }
    "#,
    );
    // Non-sweep bodies and empty loops must agree too (generic path).
    assert_bulk_equiv(
        r#"
        int main() {
            int* p;
            cudaMallocManaged((void**)&p, 64 * sizeof(int));
            for (int i = 0; i < 64; i++) { p[i] = i; }
            for (int i = 10; i < 10; i++) { p[i] = 9; }
            int s = 0;
            for (int i = 0; i < 64; i = i + 1) { s = s + p[i]; }
            return s == 2016 ? 1 : 0;
        }
    "#,
    );
}

#[test]
fn sweep_out_of_bounds_errors_match_per_word() {
    // The sweep overruns the allocation: the bulk path must decline and
    // let the generic loop produce the same error and partial state.
    let src = r#"
        int main() {
            int* p;
            cudaMallocManaged((void**)&p, 8 * sizeof(int));
            for (int i = 0; i < 100; i++) { p[i] = 1; }
            return 0;
        }
    "#;
    let bulk = run_source(src, intel_pascal(), false);
    let mut m = hetsim::Machine::new(intel_pascal());
    m.set_bulk_enabled(false);
    let word = run_source_on(src, m, false);
    let be = bulk.err().expect("bulk run should error").message;
    let we = word.err().expect("per-word run should error").message;
    assert_eq!(be, we);
}

#[test]
fn sweep_fast_path_actually_engages() {
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct RangeSpy {
        ranges: u64,
        words: u64,
        debug_writes: u64,
    }
    impl hetsim::MemHook for RangeSpy {
        fn on_access(
            &mut self,
            _: hetsim::Device,
            _: u64,
            _: u32,
            n: u64,
            _: hetsim::AccessKind,
            _: u64,
        ) {
            self.ranges += u64::from(n > 1);
            self.words += n;
        }
        fn on_op(&mut self, op: &hetsim::Op) {
            self.debug_writes += u64::from(matches!(op, hetsim::Op::DebugWrite { .. }));
        }
    }

    let src = r#"
        int main() {
            double* p;
            cudaMallocManaged((void**)&p, 128 * sizeof(double));
            for (int i = 0; i < 128; i++) { p[i] = 1.0; }
            double s = 0.0;
            for (int i = 0; i < 128; i++) { s = s + p[i]; }
            return s == 128.0 ? 0 : 1;
        }
    "#;
    let spy = Rc::new(RefCell::new(RangeSpy::default()));
    let mut m = hetsim::Machine::new(intel_pascal());
    m.add_hook(spy.clone());
    let (out, _) = run_source_on(src, m, false).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.exit, 0);
    let s = spy.borrow();
    assert_eq!(s.ranges, 2, "fill + reduction should each be one range");
    assert_eq!(s.words, 256);
    // The fill's stores are program writes, not harness input setup.
    assert_eq!(s.debug_writes, 0, "a swept fill must not poke memory");
}
