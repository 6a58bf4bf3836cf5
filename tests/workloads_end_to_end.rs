//! Workload + tracer + detector end-to-end: each paper workload run
//! traced on the simulator, with its Table II / §IV findings checked
//! through the public APIs only.

use hetsim::{platform, Machine};
use xplacer_core::accessmap::{extract, fill_ratio, MapKind};
use xplacer_core::{analyze, attach_tracer, AnalysisConfig, Finding, FindingKind};
use xplacer_integration_tests::test_machine;
use xplacer_workloads::lulesh::{Lulesh, LuleshConfig, LuleshVariant};
use xplacer_workloads::register_names;
use xplacer_workloads::rodinia::{backprop, gaussian, lud, nn, pathfinder};
use xplacer_workloads::smith_waterman::{SmithWaterman, SwConfig, SwVariant};

#[test]
fn lulesh_domain_flags_alternating_every_steady_step() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let cfg = LuleshConfig::new(4, 3);
    let mut l = Lulesh::setup(&mut m, cfg, LuleshVariant::Baseline);
    register_names(&tracer, &l.names());
    let mut flagged_steps = 0;
    l.run(&mut m, cfg.steps, |_, _| {
        let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
        if report
            .for_alloc("dom")
            .any(|f| f.kind() == FindingKind::Alternating)
        {
            flagged_steps += 1;
        }
        tracer.borrow_mut().end_epoch();
    });
    assert_eq!(flagged_steps, cfg.steps, "dom must alternate every step");
}

#[test]
fn lulesh_dup_domain_clears_the_finding_on_the_gpu_copy() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let cfg = LuleshConfig::new(4, 2);
    let mut l = Lulesh::setup(&mut m, cfg, LuleshVariant::DupDomain);
    register_names(&tracer, &l.names());
    // Skip the setup epoch (initialization writes both domains).
    tracer.borrow_mut().end_epoch();
    l.run(&mut m, cfg.steps, |_, _| {});
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    // The GPU-side domain copy is only read by the GPU in steady state:
    // no alternating accesses on it.
    assert!(
        !report
            .for_alloc("dom_gpu")
            .any(|f| f.kind() == FindingKind::Alternating),
        "dup-domain should not alternate on the GPU copy: {report}"
    );
}

#[test]
fn smith_waterman_interior_initialization_is_wasted() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let cfg = SwConfig::new(24, 12);
    let mut sw = SmithWaterman::setup(&mut m, cfg, SwVariant::Baseline);
    register_names(&tracer, &sw.names());
    sw.run(&mut m, |_, _| {});
    let t = tracer.borrow();
    let e = t.smt.lookup(sw.h.addr).unwrap();
    // CPU wrote everything; the GPU consumed only the boundary.
    assert_eq!(fill_ratio(&extract(e, MapKind::CpuWrite)), 1.0);
    let consumed = fill_ratio(&extract(e, MapKind::GpuReadsCpuWrites));
    assert!(
        consumed < 0.2,
        "only the boundary should be consumed, got {consumed:.2}"
    );
}

#[test]
fn pathfinder_per_iteration_density_matches_iteration_count() {
    // N iterations → 1/N of gpuWall per iteration (the Table II claim,
    // parameterized).
    for (rows, pyramid) in [(41usize, 10usize), (101, 20), (61, 12)] {
        let n_iters = (rows - 1).div_ceil(pyramid);
        let mut m = test_machine();
        let tracer = attach_tracer(&mut m);
        let cfg = pathfinder::PathfinderConfig::new(512, rows, pyramid);
        let mut p =
            pathfinder::Pathfinder::setup(&mut m, cfg, pathfinder::PathfinderVariant::Baseline);
        register_names(&tracer, &p.names());
        tracer.borrow_mut().end_epoch(); // drop the bulk-copy epoch
        let wall = p.gpu_wall.addr;
        let mut densities = Vec::new();
        p.run(&mut m, |_, _| {
            let mut t = tracer.borrow_mut();
            let e = t.smt.lookup(wall).unwrap();
            densities.push(xplacer_core::antipattern::density::density(e));
            t.end_epoch();
        });
        assert_eq!(densities.len(), n_iters);
        let expect = 1.0 / n_iters as f64;
        for d in &densities {
            assert!(
                (d - expect).abs() < 0.6 * expect,
                "rows={rows} pyramid={pyramid}: density {d:.3} vs expected ~{expect:.3}"
            );
        }
    }
}

#[test]
fn backprop_findings_via_public_api() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let mut b = backprop::Backprop::setup(&mut m, backprop::BackpropConfig::new(512));
    register_names(&tracer, &b.names());
    b.run(&mut m);
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    assert!(report
        .for_alloc("output_hidden_cuda")
        .any(|f| matches!(f, Finding::UnusedAllocation { .. })));
    assert!(report
        .for_alloc("input_cuda")
        .any(|f| matches!(f, Finding::RoundTripUnmodified { .. })));
}

#[test]
fn gaussian_transfer_can_be_eliminated() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let mut g = gaussian::Gaussian::setup(&mut m, gaussian::GaussianConfig::new(32));
    register_names(&tracer, &g.names());
    g.run(&mut m);
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    assert!(
        report
            .for_alloc("m_cuda")
            .any(|f| matches!(f, Finding::TransferredOverwritten { .. })),
        "{report}"
    );
}

#[test]
fn lud_first_row_comes_back_unmodified() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let mut l = lud::Lud::setup(&mut m, lud::LudConfig::new(64));
    register_names(&tracer, &l.names());
    l.run(&mut m, |_, _| {});
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    let first_row = report.for_alloc("m_d").find_map(|f| match f {
        Finding::TransferredOutUnmodified {
            off_words,
            len_words,
            ..
        } => Some((*off_words, *len_words)),
        _ => None,
    });
    let (off, len) = first_row.expect("first-row finding");
    assert_eq!(off, 0);
    // 64 doubles = 128 words.
    assert_eq!(len, 128);
}

#[test]
fn nn_is_clean() {
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let mut n = nn::Nn::setup(&mut m, nn::NnConfig::new(1024));
    register_names(&tracer, &n.names());
    n.run(&mut m);
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    assert!(report.is_empty(), "NN should be clean: {report}");
}

#[test]
fn diagnostics_and_maps_are_consistent() {
    // The Fig-4 style counters and the access maps derive from the same
    // shadow: counts must agree.
    let mut m = test_machine();
    let tracer = attach_tracer(&mut m);
    let cfg = SwConfig::new(10, 10);
    let mut sw = SmithWaterman::setup(&mut m, cfg, SwVariant::Baseline);
    register_names(&tracer, &sw.names());
    sw.run(&mut m, |_, _| {});
    let t = tracer.borrow();
    let e = t.smt.lookup(sw.h.addr).unwrap();
    let s = xplacer_core::summarize_entry(e);
    assert_eq!(
        s.writes_g,
        extract(e, MapKind::GpuWrite).iter().filter(|&&b| b).count()
    );
    assert_eq!(
        s.r_cg,
        extract(e, MapKind::GpuReadsCpuWrites)
            .iter()
            .filter(|&&b| b)
            .count()
    );
    assert_eq!(
        s.alternating,
        extract(e, MapKind::Alternating)
            .iter()
            .filter(|&&b| b)
            .count()
    );
}

#[test]
fn oversubscription_shows_up_in_stats_not_results() {
    let cfg = SwConfig::square(200);
    let run = |mem: u64| {
        let mut m = Machine::new(platform::intel_pascal());
        m.set_gpu_mem_bytes(mem);
        xplacer_workloads::smith_waterman::run_sw(&mut m, cfg, SwVariant::Baseline)
    };
    let plenty = run(1 << 30);
    let scarce = run(6 * 64 * 1024); // six pages
    assert_eq!(plenty.check, scarce.check, "results must not change");
    assert_eq!(plenty.stats.evictions, 0);
    assert!(scarce.stats.evictions > 0);
    assert!(scarce.elapsed_ns > plenty.elapsed_ns);
}
