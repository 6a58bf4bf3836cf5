//! `access_path` — the contiguous-sweep access-path microbenchmark.
//!
//! ```text
//! access_path [--smoke] [--out <path>]
//! ```
//!
//! Measures traced simulator throughput with the bulk fast path off and
//! on, prints the summary, and writes `BENCH_access_path.json` (default
//! `results/BENCH_access_path.json`) for `bench compare-access`. A bad
//! argument exits 2 with the usage; output follows [`xplacer_bench::cli`].

use std::process::ExitCode;

use xplacer_bench::access_path::{run_access_path, AccessPathConfig};
use xplacer_bench::cli::{self, Out};

const USAGE: &str = "usage: access_path [--smoke] [--out <path>]";

fn run(o: &mut Out) -> Result<(), String> {
    let args = cli::utf8_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let mut smoke = false;
    let mut out = "results/BENCH_access_path.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--out needs a path\n{USAGE}"))?
                    .clone();
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let cfg = if smoke {
        AccessPathConfig::smoke()
    } else {
        AccessPathConfig::full()
    };
    let rec = run_access_path(&cfg);
    o.out(format_args!(
        "access_path ({} allocs, {} elems{}):\n",
        rec.allocs,
        rec.elems,
        if smoke { ", smoke" } else { "" }
    ));
    o.out(format_args!(
        "  per-word  {:>14.0} ops/sec\n",
        rec.ops_per_sec_word
    ));
    o.out(format_args!(
        "  bulk      {:>14.0} ops/sec\n",
        rec.ops_per_sec_bulk
    ));
    o.out(format_args!(
        "  telemetry {:>14.0} ops/sec\n",
        rec.ops_per_sec_telemetry
    ));
    o.out(format_args!("  speedup   {:>13.1}x\n", rec.speedup));
    o.out(format_args!(
        "  telemetry {:>13.2}x of bulk\n",
        rec.telemetry_ratio
    ));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{}\n", rec.to_json().to_string_pretty()))
        .map_err(|e| format!("write {out}: {e}"))?;
    o.out(format_args!("  wrote {out}\n"));
    Ok(())
}

fn main() -> ExitCode {
    let mut o = Out::new("access_path");
    let code = match run(&mut o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            o.fail(msg);
            ExitCode::from(2)
        }
    };
    o.finish(code)
}
