//! Runs every table/figure harness and writes the collected reports to
//! `results/` (one file per experiment) plus everything to stdout.
//!
//! Usage: `reproduce_all [--quick] [--only <id>]`.
//! * default — full sweeps;
//! * `--quick` — reduced sweeps for the slow figures;
//! * `--only <id>` — one experiment (e.g. `fig05_lulesh_maps`), through
//!   the same steps, without the map images; combines with `--quick`.
//!
//! Any other argument, or one that is not UTF-8, exits 2 with the usage,
//! before `results/` is touched. Output follows [`xplacer_bench::cli`]: a
//! closed stdout keeps the exit code, any other stdout error exits 2.
//! The experiment list is fixed, so execution order, stdout
//! order, and the contents of `results/` are deterministic; the output
//! directory is created idempotently (re-running over an existing
//! `results/` just overwrites the same files).

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use xplacer_bench::cli::{self, Out};
use xplacer_bench::{figs, metrics_dump, EXPERIMENTS};

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

fn write_or_warn(out: &Out, path: &std::path::Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        out.fail(format_args!("cannot write {}: {e}", path.display()));
    }
}

fn usage() -> String {
    format!(
        "usage: reproduce_all [--quick] [--only <id>]\n--only expects one of: {}",
        EXPERIMENTS.join(", ")
    )
}

/// Parse the command line into (quick, experiments to run), or the
/// message to exit 2 with.
fn parse_args(args: &[String]) -> Result<(bool, Vec<&'static str>), String> {
    let mut quick = false;
    let mut names = EXPERIMENTS.to_vec();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" if !quick => quick = true,
            "--only" if names.len() == EXPERIMENTS.len() => {
                let id = args.next().ok_or_else(usage)?;
                names.retain(|n| n == id);
                if names.is_empty() {
                    return Err(usage());
                }
            }
            _ => return Err(usage()),
        }
    }
    Ok((quick, names))
}

fn main() -> ExitCode {
    let mut out = Out::new("reproduce_all");
    let code = run(&mut out);
    out.finish(code)
}

fn run(out: &mut Out) -> ExitCode {
    let parsed = cli::utf8_args()
        .map_err(|e| format!("{e}\n{}", usage()))
        .and_then(|args| parse_args(&args));
    let (quick, names) = match parsed {
        Ok(parsed) => parsed,
        Err(usage) => {
            out.fail(usage);
            return ExitCode::from(2);
        }
    };
    let only = names.len() == 1;
    let outdir = std::path::Path::new("results");
    if let Err(e) = fs::create_dir_all(outdir) {
        out.fail(format_args!("cannot create {}: {e}", outdir.display()));
        return ExitCode::FAILURE;
    }

    for name in names {
        let t0 = Instant::now();
        let report = report_for(name, quick);
        let dt = t0.elapsed().as_secs_f64();
        out.out(format_args!("{report}\n"));
        out.err(format_args!("[{name}: {dt:.1}s]\n"));
        write_or_warn(out, &outdir.join(format!("{name}.txt")), &report);
        // Machine-readable companion: counters, allocation summaries,
        // findings and event digest of the experiment's canonical run.
        if let Some(metrics) = metrics_dump::experiment_metrics(name) {
            write_or_warn(
                out,
                &outdir.join(format!("{name}.metrics.json")),
                &format!("{}\n", metrics.to_string_pretty()),
            );
        }
    }

    if only {
        return ExitCode::SUCCESS;
    }

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
            write_or_warn(out, &outdir.join(format!("{label}.pbm")), &to_pbm(bits, 64));
        }
        let (writes, consumed, cfg) = fig07_sw_init_maps::measure();
        write_or_warn(
            out,
            &outdir.join("fig07_cpu_writes.pbm"),
            &to_pbm(&writes, cfg.m + 1),
        );
        write_or_warn(
            out,
            &outdir.join("fig07_consumed.pbm"),
            &to_pbm(&consumed, cfg.m + 1),
        );
        let maps = fig10_pathfinder_maps::measure();
        for (i, bits) in maps.gpu_reads_per_iter.iter().enumerate() {
            write_or_warn(
                out,
                &outdir.join(format!("fig10_iter{}_gpu_reads.pbm", i + 1)),
                &to_pbm(bits, 200),
            );
        }
    }
    out.err(format_args!(
        "reports + map images written to {}\n",
        outdir.display()
    ));
    ExitCode::SUCCESS
}
