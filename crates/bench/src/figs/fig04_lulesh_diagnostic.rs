//! Fig. 4: partial XPlacer diagnostic output for LULESH 2 after the
//! second iteration — write counts, write>read counts, access density,
//! and the alternating-access element count for the domain object and one
//! array reachable through it.

use hetsim::{platform, Machine};
use xplacer_core::{format_fig4, trace_collect, AllocSummary};
use xplacer_workloads::lulesh::{Lulesh, LuleshConfig, LuleshVariant};
use xplacer_workloads::register_names;

use crate::header;

/// Run two LULESH timesteps traced (diagnostics after each timestep, as
/// the paper describes) and return the summaries of the second iteration.
pub fn measure() -> Vec<AllocSummary> {
    let mut m = Machine::new(platform::intel_pascal());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let mut l = Lulesh::setup(&mut m, LuleshConfig::new(8, 2), LuleshVariant::Baseline);
    register_names(&tracer, &l.names());

    let mut second = Vec::new();
    l.run(&mut m, 2, |step, _| {
        // "#pragma xpl diagnostic" at the end of every timestep.
        let summaries = trace_collect(&mut tracer.borrow_mut(), true);
        if step == 1 {
            second = summaries;
        }
    });
    second
}

/// Render the figure: the `dom` entry, the `(dom)->m_p` entry, and the
/// omission note, exactly like the paper's excerpt.
pub fn report() -> String {
    let all = measure();
    let mut out = header(
        "Fig. 4",
        "LULESH 2: partial XPlacer output after the second iteration",
    );
    let shown: Vec<AllocSummary> = all
        .iter()
        .filter(|s| s.name == "dom" || s.name == "(dom)->m_p")
        .cloned()
        .collect();
    out.push_str(&format!("*** checking {} named allocations\n\n", all.len()));
    // format_fig4 prints its own header line; strip it to keep the count
    // of the full run.
    let body = format_fig4(&shown);
    let body = body.split_once('\n').map_or("", |x| x.1);
    out.push_str(body);
    out.push_str(&format!(
        "[{} more entries omitted]\n",
        all.len() - shown.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_iteration_has_paper_shape() {
        let all = measure();
        // ~47 named allocations (dom + 45 arrays + dt_red), like the
        // paper's 50.
        assert!(all.len() >= 45, "only {} allocations", all.len());

        let dom = all.iter().find(|s| s.name == "dom").unwrap();
        // The domain is CPU-written and CPU-read, with a few GPU reads of
        // CPU-written fields, and a nonzero alternating count.
        assert!(dom.writes_c > 0, "dom should have CPU writes");
        assert_eq!(dom.writes_g, 0, "the GPU never writes the domain");
        assert!(dom.r_cc > 0, "dom is read by the CPU each step");
        assert!(dom.r_cg > 0, "the GPU reads CPU-written domain fields");
        assert!(dom.alternating > 0, "dom alternates (the paper's red flag)");
        // Low access density: only a fraction of the 934 words move.
        assert!(dom.density_pct < 50.0, "density {}", dom.density_pct);

        // m_p: GPU-exclusive, fully dense, no alternating accesses.
        let mp = all.iter().find(|s| s.name == "(dom)->m_p").unwrap();
        assert_eq!(mp.writes_c, 0);
        assert!(mp.writes_g > 0);
        assert_eq!(mp.alternating, 0);
        assert!(mp.density_pct > 99.0);
    }

    #[test]
    fn report_mentions_key_lines() {
        let r = report();
        assert!(r.contains("dom"));
        assert!(r.contains("(dom)->m_p"));
        assert!(r.contains("write counts"));
        assert!(r.contains("access density"));
        assert!(r.contains("elements with alternating accesses"));
        assert!(r.contains("more entries omitted"));
    }

    #[test]
    fn summaries_differ_between_first_and_second_iteration() {
        // Iteration 1 includes initialization (huge CPU write counts);
        // iteration 2 is steady-state.
        let mut m = Machine::new(platform::intel_pascal());
        let tracer = xplacer_core::attach_tracer(&mut m);
        let mut l = Lulesh::setup(&mut m, LuleshConfig::new(4, 2), LuleshVariant::Baseline);
        register_names(&tracer, &l.names());
        // Note: setup writes happened before this first epoch ends.
        let mut per_iter = Vec::new();
        l.run(&mut m, 2, |_, _| {
            per_iter.push(xplacer_core::summarize(&tracer.borrow().smt, true));
            tracer.borrow_mut().end_epoch();
        });
        let e = |v: &Vec<AllocSummary>| v.iter().find(|s| s.name == "(dom)->m_e").unwrap().writes_c;
        // m_e was CPU-initialized before iteration 1, never CPU-written
        // in iteration 2.
        assert!(e(&per_iter[0]) > 0);
        assert_eq!(e(&per_iter[1]), 0);
    }
}
