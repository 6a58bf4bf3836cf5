//! Per-access cost of the tracer hook — the microscopic version of the
//! paper's Table III: how much does one traced heap access cost compared
//! to an untraced one, and how does shadow-word granularity matter.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hetsim::{platform, Device, Machine};
use xplacer_core::{attach_tracer, Tracer};

fn bench_machine_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_access");

    // Untraced host store.
    let mut m = Machine::new(platform::intel_pascal());
    let p = m.alloc_managed::<f64>(1024);
    g.bench_function("plain_store", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % 1024;
            m.st(black_box(p), i, 1.0);
        });
    });

    // Traced host store (hook attached → SMT lookup + shadow update).
    let mut m = Machine::new(platform::intel_pascal());
    let _t = attach_tracer(&mut m);
    let p = m.alloc_managed::<f64>(1024);
    g.bench_function("traced_store", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % 1024;
            m.st(black_box(p), i, 1.0);
        });
    });

    g.finish();
}

fn bench_trace_calls(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer");
    // Direct tracer call costs at two table sizes.
    for &allocs in &[1usize, 100] {
        let mut t = Tracer::new();
        for i in 0..allocs as u64 {
            t.trace_alloc(0x10_0000 + i * 0x10000, 0x8000, hetsim::AllocKind::Managed);
        }
        let target = 0x10_0000 + (allocs as u64 / 2) * 0x10000;
        g.bench_function(format!("trace_w/{allocs}_allocs"), |b| {
            let mut off = 0u64;
            b.iter(|| {
                off = (off + 8) % 0x8000;
                t.trace_w(Device::Cpu, black_box(target + off), 8);
            });
        });
    }
    // Missing address (ignored path).
    let mut t = Tracer::new();
    t.trace_alloc(0x10_0000, 4096, hetsim::AllocKind::Managed);
    g.bench_function("trace_w/untracked_address", |b| {
        b.iter(|| t.trace_w(Device::Cpu, black_box(0xDEAD_0000), 8));
    });
    g.finish();
}

fn bench_diagnostic(c: &mut Criterion) {
    // Summarizing a LULESH-sized table (50 allocations).
    let mut t = Tracer::new();
    for i in 0..50u64 {
        t.trace_alloc(
            0x10_0000 + i * 0x100000,
            64 * 1024,
            hetsim::AllocKind::Managed,
        );
        for w in 0..1000u64 {
            t.trace_w(Device::Cpu, 0x10_0000 + i * 0x100000 + w * 8, 8);
        }
    }
    c.bench_function("diagnostic/summarize_50_allocs", |b| {
        b.iter(|| black_box(xplacer_core::summarize(&t.smt, false)));
    });
    c.bench_function("diagnostic/analyze_50_allocs", |b| {
        b.iter(|| {
            black_box(xplacer_core::analyze(
                &t.smt,
                &xplacer_core::AnalysisConfig::default(),
            ))
        });
    });
}

criterion_group!(
    benches,
    bench_machine_access,
    bench_trace_calls,
    bench_diagnostic
);
criterion_main!(benches);
