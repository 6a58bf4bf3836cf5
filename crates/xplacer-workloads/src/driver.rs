//! Uniform setup → hook → run → check driver over all eight built-in
//! workloads.
//!
//! Every consumer that runs a workload by name (CLI `demo`/`profile`/
//! `top`, the optimizer's candidate evaluations) needs the same shape:
//! build the workload on a machine, learn its allocation names, do
//! something *between setup and the compute phase* (register tracer
//! names, apply a placement plan), then run and verify. This module owns
//! that sequencing so the placement point is a single callback instead of
//! eight copies of a match.

use hetsim::{Addr, Machine};

/// Canonical workload names, in the order reports enumerate them.
pub const WORKLOAD_NAMES: [&str; 8] = [
    "lulesh",
    "sw",
    "pathfinder",
    "backprop",
    "gaussian",
    "lud",
    "nn",
    "cfd",
];

/// Run the named workload on `m`. `after_setup` fires once, after the
/// workload has allocated and initialized its data but before any
/// compute — the point where `cudaMemAdvise`/prefetch hints belong —
/// with the machine and the workload's `(address, name)` table. Returns
/// the workload's check value and that table.
pub fn run_workload(
    m: &mut Machine,
    which: &str,
    mut after_setup: impl FnMut(&mut Machine, &[(Addr, String)]),
) -> Result<(f64, Vec<(Addr, String)>), String> {
    use crate as w;
    let names: Vec<(Addr, String)>;
    let check = match which {
        "lulesh" => {
            let cfg = w::lulesh::LuleshConfig::new(8, 3);
            let mut l = w::lulesh::Lulesh::setup(m, cfg, w::lulesh::LuleshVariant::Baseline);
            names = l.names();
            after_setup(m, &names);
            l.run(m, cfg.steps, |_, _| {});
            l.check(m)
        }
        "sw" | "smith-waterman" => {
            let cfg = w::smith_waterman::SwConfig::square(128);
            let mut s = w::smith_waterman::SmithWaterman::setup(
                m,
                cfg,
                w::smith_waterman::SwVariant::Baseline,
            );
            names = s.names();
            after_setup(m, &names);
            s.run(m, |_, _| {});
            s.peek_score(m) as f64
        }
        "pathfinder" => {
            let cfg = w::rodinia::pathfinder::PathfinderConfig::new(512, 101, 20);
            let mut p = w::rodinia::pathfinder::Pathfinder::setup(
                m,
                cfg,
                w::rodinia::pathfinder::PathfinderVariant::Baseline,
            );
            names = p.names();
            after_setup(m, &names);
            p.run(m, |_, _| {});
            p.check(m)
        }
        "backprop" => {
            let mut b = w::rodinia::backprop::Backprop::setup(
                m,
                w::rodinia::backprop::BackpropConfig::new(1024),
            );
            names = b.names();
            after_setup(m, &names);
            b.run(m);
            b.check()
        }
        "gaussian" => {
            let mut g = w::rodinia::gaussian::Gaussian::setup(
                m,
                w::rodinia::gaussian::GaussianConfig::new(48),
            );
            names = g.names();
            after_setup(m, &names);
            g.run(m);
            g.check()
        }
        "lud" => {
            let mut l = w::rodinia::lud::Lud::setup(m, w::rodinia::lud::LudConfig::new(48));
            names = l.names();
            after_setup(m, &names);
            l.run(m, |_, _| {});
            l.check(m)
        }
        "nn" => {
            let mut n = w::rodinia::nn::Nn::setup(m, w::rodinia::nn::NnConfig::new(2048));
            names = n.names();
            after_setup(m, &names);
            n.run(m);
            n.nearest().1 as f64
        }
        "cfd" => {
            let mut c = w::rodinia::cfd::Cfd::setup(m, w::rodinia::cfd::CfdConfig::new(1024, 8));
            names = c.names();
            after_setup(m, &names);
            c.run(m);
            c.check()
        }
        other => {
            let expected = WORKLOAD_NAMES.join("|");
            return Err(format!("unknown workload `{other}` (expected {expected})"));
        }
    };
    Ok((check, names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::platform;

    #[test]
    fn every_canonical_name_runs_and_checks() {
        for which in WORKLOAD_NAMES {
            let mut m = Machine::new(platform::intel_pascal());
            let mut fired = 0;
            let (check, names) = run_workload(&mut m, which, |_, n| {
                fired += 1;
                assert!(!n.is_empty(), "{which} exposes no names");
            })
            .unwrap();
            assert_eq!(fired, 1, "{which} must call after_setup exactly once");
            assert!(check.is_finite(), "{which} check value");
            assert!(!names.is_empty());
        }
    }

    #[test]
    fn unknown_workload_is_a_spanned_error() {
        let mut m = Machine::new(platform::intel_pascal());
        let e = run_workload(&mut m, "nope", |_, _| {}).unwrap_err();
        assert!(e.contains("unknown workload `nope`"), "{e}");
        assert!(e.contains("lulesh"), "{e}");
    }

    #[test]
    fn hints_in_the_callback_do_not_change_the_check_value() {
        // The placement point must be result-neutral: pin every
        // allocation to the GPU and the workload still verifies.
        let baseline = {
            let mut m = Machine::new(platform::intel_pascal());
            run_workload(&mut m, "lulesh", |_, _| {}).unwrap().0
        };
        let mut m = Machine::new(platform::intel_pascal());
        let (hinted, _) = run_workload(&mut m, "lulesh", |m, names| {
            for (addr, _) in names {
                let Ok(a) = m.find_alloc(*addr) else { continue };
                let (base, size) = (a.base, a.size);
                let _ = m.try_mem_advise(
                    base,
                    size,
                    hetsim::MemAdvise::SetPreferredLocation(hetsim::Device::Gpu),
                );
            }
        })
        .unwrap();
        assert_eq!(baseline.to_bits(), hinted.to_bits());
    }
}
