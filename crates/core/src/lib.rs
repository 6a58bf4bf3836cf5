//! # xplacer-core — the XPlacer runtime library
//!
//! Reproduction of the runtime system of *"XPlacer: Automatic Analysis of
//! Data Access Patterns on Heterogeneous CPU/GPU Systems"* (Pirkelbauer et
//! al., IPDPS 2020): shadow-memory tracing of CPU and GPU heap accesses
//! and automatic detection of three memory-access anti-patterns —
//! alternating CPU/GPU accesses, low access density, and unnecessary data
//! transfers.
//!
//! The crate plugs into the [`hetsim`] simulator through the
//! [`hetsim::MemHook`] seam: attach a [`Tracer`] to a machine and every
//! heap read/write, allocation, copy, and kernel launch is recorded in
//! shadow memory (one flag byte per 32-bit word, indexed by a sorted
//! shadow memory table). Diagnostics then summarize the epoch (Fig. 4 of
//! the paper) and the detectors produce a [`Report`] of findings.
//!
//! ```
//! use hetsim::{Machine, platform};
//! use xplacer_core::{attach_tracer, antipattern::{analyze, AnalysisConfig}};
//!
//! let mut m = Machine::new(platform::intel_pascal());
//! let tracer = attach_tracer(&mut m);
//!
//! let data = m.alloc_managed::<f64>(256);
//! tracer.borrow_mut().name(data.addr, "data");
//! m.st(data, 0, 1.0);                      // CPU writes...
//! m.launch("k", 1, |_, m| { m.ld(data, 0); }); // ...GPU reads: alternating!
//!
//! let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
//! assert!(report.for_alloc("data").count() > 0);
//! ```

pub mod accessmap;
pub mod antipattern;
pub mod diagnostic;
pub mod flags;
pub mod par;
pub mod plan;
pub mod report;
pub mod smt;
pub mod suggest;
pub mod tracer;

pub use antipattern::online::{Episode, EpisodeKind, OnlineAnalyzer, OnlineConfig};
pub use antipattern::{analyze, AnalysisConfig, Finding, FindingKind};
pub use diagnostic::{
    format_fig4, summarize, summarize_entry, to_csv, trace_collect, trace_print, AllocSummary,
};
pub use flags::AccessFlags;
pub use par::{run_ordered, PoolError};
pub use plan::{enumerate_candidates, Plan, PlanAction, PlanItem};
pub use report::Report;
pub use smt::{Smt, SmtEntry, WORD_BYTES};
pub use suggest::{suggest, suggest_for, Action, Suggestion};
pub use tracer::{Tracer, XplAllocData};

use std::cell::RefCell;
use std::rc::Rc;

/// Convenience: create a tracer and attach it to a machine in one call,
/// returning the shared handle used to read the trace back.
pub fn attach_tracer(machine: &mut hetsim::Machine) -> Rc<RefCell<Tracer>> {
    let tracer = Rc::new(RefCell::new(Tracer::new()));
    machine.add_hook(tracer.clone());
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{platform, Machine};

    #[test]
    fn attach_tracer_wires_the_hook() {
        let mut m = Machine::new(platform::intel_pascal());
        let t = attach_tracer(&mut m);
        let p = m.alloc_managed::<f64>(8);
        m.st(p, 0, 1.0);
        assert_eq!(t.borrow().tracked(), 1);
        let s = summarize(&t.borrow().smt, false);
        assert_eq!(s[0].writes_c, 2); // one f64 = two 32-bit words
    }
}
