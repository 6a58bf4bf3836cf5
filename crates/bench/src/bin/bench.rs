//! `bench` — the access-path throughput gate.
//!
//! ```text
//! bench compare-access <baseline.json> <current.json> [--max-regress 0.20]
//! ```
//!
//! `compare-access` diffs two `BENCH_access_path.json` documents written
//! by the `access_path` microbenchmark: the bulk-vs-per-word speedup
//! ratio may shrink at most `--max-regress` (default 20%) and must stay
//! above the absolute floor; absolute ops/sec is informational.
//!
//! Exits 1 when the gate fails, 2 on usage/IO errors, and writes as
//! [`xplacer_bench::cli`] says.

use std::process::ExitCode;

use xplacer_bench::access_path::{compare_access, render_access_compare, AccessPathRecord};
use xplacer_bench::cli::{self, Out};

fn usage() -> &'static str {
    "usage: bench compare-access <baseline.json> <current.json> [--max-regress 0.20]"
}

fn read_record(path: &str) -> Result<AccessPathRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    AccessPathRecord::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(out: &mut Out) -> Result<bool, String> {
    let args = cli::utf8_args().map_err(|e| format!("{e}\n{}", usage()))?;
    if args.first().map(String::as_str) != Some("compare-access") {
        return Err(usage().to_string());
    }
    let mut paths = Vec::new();
    let mut max_regress = 0.20;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress" => {
                let v = args.get(i + 1).ok_or("--max-regress needs a value")?;
                max_regress = v
                    .parse::<f64>()
                    .map_err(|_| format!("--max-regress expects a number, got `{v}`"))?;
                if !(0.0..=10.0).contains(&max_regress) {
                    return Err(format!("--max-regress {max_regress} out of range [0, 10]"));
                }
                i += 1;
            }
            other if !other.starts_with("--") => paths.push(other),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
        i += 1;
    }
    let [baseline, current] = paths.as_slice() else {
        return Err(usage().to_string());
    };
    let (baseline, current) = (read_record(baseline)?, read_record(current)?);
    let delta = compare_access(&baseline, &current, max_regress);
    out.out(render_access_compare(
        &baseline,
        &current,
        &delta,
        max_regress,
    ));
    Ok(delta.failed())
}

fn main() -> ExitCode {
    let mut out = Out::new("bench");
    let code = match run(&mut out) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            out.fail("performance regression detected");
            ExitCode::FAILURE
        }
        Err(msg) => {
            out.fail(msg);
            ExitCode::from(2)
        }
    };
    out.finish(code)
}
