//! Property-based tests over the core invariants of the reproduction,
//! spanning crates: SMT lookup correctness, shadow-flag algebra, the UM
//! driver's coherence invariants, layout equivalence of the optimized
//! workload variants, and instrumentation round-trips.

use proptest::prelude::*;

use hetsim::gpumem::{EvictionPolicy, GpuMemory};
use hetsim::platform::intel_pascal;
use hetsim::unified::UmDriver;
use hetsim::{AllocKind, Device, Machine, Stats};
use xplacer_core::{AccessFlags, Smt};

// ----------------------------------------------------------------------
// SMT
// ----------------------------------------------------------------------

/// Model: the SMT's (linear or binary) lookup must agree with a plain
/// scan over the live ranges, under arbitrary alloc/free interleavings.
fn smt_against_model(ops: Vec<(u64, u64, bool)>, probes: Vec<u64>, threshold: usize) {
    let mut smt = Smt::new();
    smt.linear_threshold = threshold;
    let mut model: Vec<(u64, u64, bool)> = Vec::new(); // (base, size, live)
    let mut next_base = 0x10_0000u64;
    for (size, _, free_one) in ops {
        let size = size % 4096 + 1;
        if free_one && !model.is_empty() {
            // Free the oldest live allocation.
            if let Some(e) = model.iter_mut().find(|e| e.2) {
                e.2 = false;
                assert!(smt.remove_defer(e.0));
            }
        } else {
            smt.insert(next_base, size, AllocKind::Managed);
            model.push((next_base, size, true));
            next_base += size.div_ceil(64) * 64 + 64;
        }
    }
    for p in probes {
        let addr = 0x10_0000 + p % (next_base - 0x10_0000 + 1024);
        let got = smt.lookup(addr).map(|e| e.base);
        // Deferred-free entries stay visible until purge, so the model
        // matches any entry (live or deferred).
        let want = model
            .iter()
            .find(|(b, s, _)| addr >= *b && addr < b + s)
            .map(|(b, _, _)| *b);
        assert_eq!(got, want, "probe 0x{addr:x}");
    }
    // Purge removes exactly the dead entries.
    let live_before = model.iter().filter(|e| e.2).count();
    smt.purge_dead();
    assert_eq!(smt.iter().count(), live_before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn smt_lookup_matches_model_linear(
        ops in proptest::collection::vec((0u64..4096, 0u64..4, any::<bool>()), 1..40),
        probes in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        smt_against_model(ops, probes, usize::MAX);
    }

    #[test]
    fn smt_lookup_matches_model_binary(
        ops in proptest::collection::vec((0u64..4096, 0u64..4, any::<bool>()), 1..40),
        probes in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        smt_against_model(ops, probes, 0);
    }

    // ------------------------------------------------------------------
    // Shadow flag algebra
    // ------------------------------------------------------------------

    /// Under any access sequence: the flags stay in 7 bits, `alternating`
    /// implies both sides touched plus a write, and read categories are
    /// consistent with the most recent writer at read time.
    #[test]
    fn access_flags_invariants(ops in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..64)) {
        let mut f = AccessFlags::new();
        let mut last_writer_gpu = false;
        let mut wrote = false;
        for (is_write, is_gpu) in ops {
            let dev = if is_gpu { Device::GPU0 } else { Device::Cpu };
            if is_write {
                f.record_write(dev);
                last_writer_gpu = is_gpu;
                wrote = true;
            } else {
                f.record_read(dev);
                // The read category must reflect the model's last writer.
                let bit = match (last_writer_gpu, is_gpu) {
                    (false, false) => AccessFlags::R_CC,
                    (false, true) => AccessFlags::R_CG,
                    (true, false) => AccessFlags::R_GC,
                    (true, true) => AccessFlags::R_GG,
                };
                prop_assert!(f.get(bit));
            }
            prop_assert_eq!(f.0 & !AccessFlags::ALL, 0, "stray bits");
            prop_assert_eq!(f.get(AccessFlags::LAST_WRITER_GPU), wrote && last_writer_gpu);
            if f.alternating() {
                prop_assert!(f.cpu_accessed() && f.gpu_accessed() && f.written());
            }
        }
        // Epoch reset clears everything but the origin.
        let origin = f.get(AccessFlags::LAST_WRITER_GPU);
        f.reset_epoch();
        prop_assert!(!f.touched());
        prop_assert_eq!(f.get(AccessFlags::LAST_WRITER_GPU), origin);
    }

    // ------------------------------------------------------------------
    // Unified-memory driver
    // ------------------------------------------------------------------

    /// Coherence invariants under random access sequences: the owner
    /// always holds a copy, copies are never empty, a device never has
    /// both a copy and a mapping, and GPU residency never exceeds
    /// capacity.
    #[test]
    fn um_driver_invariants(
        accesses in proptest::collection::vec((0u64..8, any::<bool>(), any::<bool>()), 1..200),
        read_mostly in any::<bool>(),
        capacity_pages in 1u64..6,
    ) {
        let pf = intel_pascal();
        let mut drv = UmDriver::new(pf.page_size);
        let mut gpus = vec![GpuMemory::with_policy(
            capacity_pages * pf.page_size,
            pf.page_size,
            EvictionPolicy::Fifo,
        )];
        let mut stats = Stats::default();
        let base = hetsim::alloc::HEAP_BASE;
        drv.register_alloc(base, 8 * pf.page_size, true);
        if read_mostly {
            drv.advise(base, 8 * pf.page_size, hetsim::MemAdvise::SetReadMostly);
        }
        let base_page = base / pf.page_size;
        for (page, write, gpu) in accesses {
            let dev = if gpu { Device::GPU0 } else { Device::Cpu };
            let _ = drv.access(&pf, &mut gpus, &mut stats, dev, base_page + page, write);
            for p in 0..8 {
                let st = drv.state(base_page + p);
                prop_assert!(st.copies.contains(st.owner), "owner must hold a copy");
                prop_assert!(!st.copies.is_empty());
                prop_assert!(
                    !(st.copies.contains(Device::GPU0) && st.mapped.contains(Device::GPU0)),
                    "copy and mapping are exclusive"
                );
            }
            prop_assert!(gpus[0].len() <= capacity_pages);
        }
        // Fault accounting: every fault is a migration, duplication, or
        // mapping establishment.
        prop_assert!(
            stats.faults() <= stats.migrations() + stats.duplications + stats.remote_accesses,
        );
    }

    // ------------------------------------------------------------------
    // Workload equivalences
    // ------------------------------------------------------------------

    /// Smith-Waterman: the rotated (diagonal-major) variant computes the
    /// exact same score matrix as the baseline for arbitrary shapes.
    #[test]
    fn sw_rotated_equals_baseline(n in 1usize..24, m in 1usize..24, seed in 0u64..1000) {
        use xplacer_workloads::smith_waterman::*;
        let cfg = SwConfig { n, m, seed };
        let mut m1 = Machine::new(intel_pascal());
        let r1 = run_sw(&mut m1, cfg, SwVariant::Baseline);
        let mut m2 = Machine::new(intel_pascal());
        let r2 = run_sw(&mut m2, cfg, SwVariant::Rotated);
        prop_assert_eq!(r1.check, r2.check);
        // And both match the plain-Rust reference.
        let a = gen_sequence(cfg.n, cfg.seed);
        let b = gen_sequence(cfg.m, cfg.seed ^ 0xABCD);
        prop_assert_eq!(r1.check as i32, cpu_reference(&a, &b));
    }

    /// Pathfinder: both transfer strategies compute the reference DP for
    /// arbitrary shapes.
    #[test]
    fn pathfinder_variants_match_reference(
        cols in 4usize..40,
        rows in 2usize..20,
        pyramid in 1usize..8,
    ) {
        use xplacer_workloads::rodinia::pathfinder::*;
        let cfg = PathfinderConfig::new(cols, rows, pyramid);
        let wall = gen_wall(rows, cols, 7);
        let want: i64 = cpu_reference(&wall, rows, cols).iter().map(|&v| v as i64).sum();
        for v in [PathfinderVariant::Baseline, PathfinderVariant::Overlapped] {
            let mut m = Machine::new(intel_pascal());
            let r = run_pathfinder(&mut m, cfg, v);
            prop_assert_eq!(r.check as i64, want);
        }
    }

    // ------------------------------------------------------------------
    // Instrumentation round-trips
    // ------------------------------------------------------------------

    /// Random straight-line programs over a pointer: instrument →
    /// unparse → parse → instrument is stable, and the traced run
    /// computes the same result as the plain run.
    #[test]
    fn instrumentation_preserves_semantics(ops in proptest::collection::vec((0u8..5, 0usize..8, -4i64..5), 1..20)) {
        let mut body = String::new();
        for (op, idx, val) in ops {
            body.push_str(&match op {
                0 => format!("p[{idx}] = {val};\n"),
                1 => format!("p[{idx}] += {val};\n"),
                2 => format!("(p[{idx}])++;\n"),
                3 => format!("acc = acc + p[{idx}];\n"),
                _ => format!("p[{idx}] = p[{}] + 1;\n", (idx + 1) % 8),
            });
        }
        let src = format!(
            "int main() {{\n int* p;\n cudaMallocManaged((void**)&p, 8 * sizeof(int));\n \
             int acc = 0;\n {body} int s = acc;\n \
             for (int i = 0; i < 8; i++) {{ s += p[i]; }}\n return s; }}"
        );
        let pf = intel_pascal;
        let (plain, _) = xplacer_interp::run_source(&src, pf(), false).unwrap();
        let (traced, _) = xplacer_interp::run_source(&src, pf(), true).unwrap();
        prop_assert_eq!(plain.exit, traced.exit);

        // Pass stability.
        let prog = xplacer_lang::parser::parse(&src).unwrap();
        let once = xplacer_instrument::instrument(&prog).program;
        let text = xplacer_lang::unparse::unparse(&once);
        let reparsed = xplacer_lang::parser::parse(&text).unwrap();
        let twice = xplacer_instrument::instrument(&reparsed).program;
        prop_assert_eq!(once, twice);
    }

    /// Expression unparse/parse round-trip over a generated grammar.
    #[test]
    fn expr_roundtrip(depth_seed in 0u64..10_000) {
        let e = gen_expr(depth_seed, 3);
        let text = xplacer_lang::unparse::unparse_expr(&e);
        let back = xplacer_lang::parser::parse_expr(&text)
            .unwrap_or_else(|err| panic!("`{text}`: {err}"));
        prop_assert_eq!(e, back);
    }
}

/// Tiny deterministic expression generator (structured by a seed).
fn gen_expr(seed: u64, depth: u8) -> xplacer_lang::Expr {
    use xplacer_lang::ast::*;
    let s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    if depth == 0 {
        return match s % 3 {
            0 => Expr::IntLit((s % 100) as i64),
            1 => Expr::ident("x"),
            _ => Expr::ident("p"),
        };
    }
    let a = Box::new(gen_expr(s ^ 0x1111, depth - 1));
    let b = Box::new(gen_expr(s ^ 0x2222, depth - 1));
    match s % 7 {
        0 => Expr::Binary(BinOp::Add, a, b),
        1 => Expr::Binary(BinOp::Mul, a, b),
        2 => Expr::Index(Box::new(Expr::ident("p")), a),
        3 => Expr::Unary(UnOp::Deref, Box::new(Expr::ident("p"))),
        4 => Expr::Cond(a, b, Box::new(Expr::IntLit(0))),
        5 => Expr::Call("f".into(), vec![*a, *b]),
        _ => Expr::Binary(BinOp::Lt, a, b),
    }
}

#[test]
fn density_blocks_partition_the_allocation() {
    // Block densities weighted by block length must equal the whole-
    // allocation density (plain test; the partition is deterministic).
    let mut tracer = xplacer_core::Tracer::new();
    tracer.trace_alloc(0x10_0000, 1000, AllocKind::Managed);
    for w in [0usize, 3, 7, 100, 101, 102, 249] {
        tracer.trace_w(Device::Cpu, 0x10_0000 + (w as u64) * 4, 4);
    }
    let e = tracer.smt.lookup(0x10_0000).unwrap();
    let whole = xplacer_core::antipattern::density::density(e);
    for bs in [1usize, 7, 32, 250, 1000] {
        let blocks = xplacer_core::antipattern::density::block_densities(e, bs);
        let weighted: f64 = blocks
            .iter()
            .map(|(off, d)| d * ((e.words() - off).min(bs) as f64))
            .sum();
        assert!(
            (weighted / e.words() as f64 - whole).abs() < 1e-12,
            "block size {bs}"
        );
    }
}
