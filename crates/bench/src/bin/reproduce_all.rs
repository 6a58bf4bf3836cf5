//! Runs every table/figure harness and writes the collected reports to
//! `results/` (one file per experiment) plus everything to stdout.
//!
//! Modes:
//! * default — full sweeps;
//! * `--quick` — reduced sweeps for the slow figures;
//! * `--only <id>` — one experiment (e.g. `fig05_lulesh_maps`), through
//!   the same steps, without the aggregate record or the map images;
//!   combines with `--quick`, not with `--smoke`;
//! * `--smoke` — skip the figure sweeps entirely and only run each
//!   experiment's canonical observed run, writing `BENCH_<name>.json`
//!   per experiment plus the aggregate `BENCH_smoke.json` that
//!   `bench compare` gates CI against.
//!
//! The experiment list is a fixed `Vec`, so execution order, stdout
//! order, and the contents of `results/` are deterministic; the output
//! directory is created idempotently (re-running over an existing
//! `results/` just overwrites the same files).

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use xplacer_bench::bench_json::BenchRecord;
use xplacer_bench::smoke::{self, experiment_names};
use xplacer_bench::{figs, metrics_dump};

fn report_for(name: &str, quick: bool) -> String {
    match name {
        "table1_api" => figs::table1_api::report(),
        "fig04_lulesh_diagnostic" => figs::fig04_lulesh_diagnostic::report(),
        "fig05_lulesh_maps" => figs::fig05_lulesh_maps::report(),
        "fig06_lulesh_speedup" => figs::fig06_lulesh_speedup::report(quick),
        "fig07_sw_init_maps" => figs::fig07_sw_init_maps::report(),
        "fig08_sw_diag_maps" => figs::fig08_sw_diag_maps::report(),
        "fig09_sw_speedup" => figs::fig09_sw_speedup::report(quick),
        "fig10_pathfinder_maps" => figs::fig10_pathfinder_maps::report(),
        "fig11_pathfinder_speedup" => figs::fig11_pathfinder_speedup::report(quick),
        "table2_rodinia_findings" => figs::table2_rodinia::report(),
        "table3_overhead" => figs::table3_overhead::report(quick),
        "ablation_page_size" => figs::ablation_page_size::report(),
        other => unreachable!("unknown experiment {other}"),
    }
}

fn write_or_warn(path: &std::path::Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        eprintln!("reproduce_all: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut names = experiment_names();
    if let Some(i) = args.iter().position(|a| a == "--only") {
        if smoke {
            eprintln!("reproduce_all: --only does not combine with --smoke");
            return ExitCode::from(2);
        }
        match args.get(i + 1).filter(|id| names.contains(&id.as_str())) {
            Some(id) => names.retain(|n| n == id),
            None => {
                eprintln!("reproduce_all: --only expects one of: {}", names.join(", "));
                return ExitCode::from(2);
            }
        }
    }
    let only = names.len() == 1;
    let outdir = std::path::Path::new("results");
    if let Err(e) = fs::create_dir_all(outdir) {
        eprintln!("reproduce_all: cannot create {}: {e}", outdir.display());
        return ExitCode::FAILURE;
    }

    if smoke {
        // Byte-stable fingerprint files (wall time zeroed); the CI
        // regression gate diffs the aggregate BENCH_smoke.json.
        match smoke::run_smoke(outdir) {
            Ok(records) => {
                for r in &records {
                    eprintln!(
                        "[smoke {}: simulated {:.3} ms, {} faults, {} migrations]",
                        r.name,
                        r.simulated_ns / 1e6,
                        r.faults,
                        r.migrations
                    );
                }
                eprintln!(
                    "smoke bench records written to {} (aggregate BENCH_smoke.json)",
                    outdir.display()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("reproduce_all: smoke run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut bench_records: Vec<BenchRecord> = Vec::new();
    for name in names {
        let t0 = Instant::now();
        let report = report_for(name, quick);
        let dt = t0.elapsed().as_secs_f64();
        println!("{report}");
        eprintln!("[{name}: {dt:.1}s]");
        write_or_warn(&outdir.join(format!("{name}.txt")), &report);
        // Machine-readable companions: counters, allocation summaries,
        // findings, event digest, and the BENCH performance fingerprint
        // of the experiment's canonical run.
        if let Some(run) = metrics_dump::experiment_run(name) {
            write_or_warn(
                &outdir.join(format!("{name}.metrics.json")),
                &format!("{}\n", run.metrics.to_string_pretty()),
            );
            write_or_warn(
                &outdir.join(format!("BENCH_{name}.json")),
                &format!("{}\n", run.bench.to_json().to_string_pretty()),
            );
            bench_records.push(run.bench);
        }
    }

    if only {
        return ExitCode::SUCCESS;
    }

    // Aggregate fingerprint: the CI regression gate diffs this one file.
    let smoke_record = BenchRecord::aggregate("smoke", &bench_records);
    write_or_warn(
        &outdir.join("BENCH_smoke.json"),
        &format!("{}\n", smoke_record.to_json().to_string_pretty()),
    );

    // Image (PBM) versions of the access-map figures, like the paper's
    // graphical maps. Convert with e.g. `magick fig05_cpu_writes.pbm x.png`.
    use xplacer_bench::figs::{fig05_lulesh_maps, fig07_sw_init_maps, fig10_pathfinder_maps};
    use xplacer_core::accessmap::to_pbm;
    {
        let (first, second) = fig05_lulesh_maps::measure();
        for (label, bits) in [
            ("fig05_iter1_cpu_writes", &first.cpu_writes),
            ("fig05_iter1_gpu_reads", &first.gpu_reads),
            ("fig05_iter2_cpu_writes", &second.cpu_writes),
            ("fig05_iter2_overlap", &second.overlap),
        ] {
            write_or_warn(&outdir.join(format!("{label}.pbm")), &to_pbm(bits, 64));
        }
        let (writes, consumed, cfg) = fig07_sw_init_maps::measure();
        write_or_warn(
            &outdir.join("fig07_cpu_writes.pbm"),
            &to_pbm(&writes, cfg.m + 1),
        );
        write_or_warn(
            &outdir.join("fig07_consumed.pbm"),
            &to_pbm(&consumed, cfg.m + 1),
        );
        let maps = fig10_pathfinder_maps::measure();
        for (i, bits) in maps.gpu_reads_per_iter.iter().enumerate() {
            write_or_warn(
                &outdir.join(format!("fig10_iter{}_gpu_reads.pbm", i + 1)),
                &to_pbm(bits, 200),
            );
        }
    }
    eprintln!("reports + map images written to {}", outdir.display());
    ExitCode::SUCCESS
}
