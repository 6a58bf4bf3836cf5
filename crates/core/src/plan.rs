//! Placement *plans*: concrete, applicable bundles of placement actions
//! derived from an epoch's shadow state.
//!
//! [`crate::suggest`] answers "what would a human do about this
//! allocation?"; this module turns those answers (plus prefetch points
//! the advisor doesn't model) into an enumerable candidate space the
//! optimizer can search over. A [`Plan`] is a canonically-ordered set of
//! per-allocation actions with a stable [`Plan::key`], so two plans built
//! from the same actions in any order compare, hash, and render
//! identically — the property the byte-deterministic optimizer report
//! rests on.

use hetsim::{AllocKind, Device, MemAdvise, Platform};

use crate::smt::Smt;
use crate::suggest::{self, Action};

/// One placement action aimed at one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Apply this `cudaMemAdvise` to the whole allocation.
    Advise(MemAdvise),
    /// Prefetch the whole allocation to `Device` before the compute
    /// phase (after setup for workloads, after the malloc for MiniCU).
    Prefetch(Device),
    /// Duplicate the object: keep the managed copy for the host, give
    /// kernels a device-only copy with explicit staging copies (the
    /// paper's LULESH remedy). Only applicable to MiniCU programs,
    /// where the source rewrite is mechanical.
    Split,
}

impl PlanAction {
    /// Rank used for canonical in-plan ordering (after base address).
    fn rank(&self) -> u8 {
        match self {
            PlanAction::Advise(_) => 0,
            PlanAction::Prefetch(_) => 1,
            PlanAction::Split => 2,
        }
    }
}

impl std::fmt::Display for PlanAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanAction::Advise(a) => write!(f, "advise {a:?}"),
            PlanAction::Prefetch(d) => write!(f, "prefetch to {d}"),
            PlanAction::Split => write!(f, "split object"),
        }
    }
}

/// A [`PlanAction`] bound to a specific allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanItem {
    /// Allocation display name (label if registered).
    pub name: String,
    /// Base address observed in the baseline trace.
    pub base: hetsim::Addr,
    /// Allocation size in bytes.
    pub size: u64,
    /// What to do.
    pub action: PlanAction,
    /// Why this candidate exists (from the advisor heuristics).
    pub rationale: String,
}

impl std::fmt::Display for PlanItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.action)
    }
}

/// A canonically-ordered set of placement actions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    items: Vec<PlanItem>,
}

impl Plan {
    /// The empty (baseline) plan.
    pub fn empty() -> Self {
        Plan::default()
    }

    /// The actions, in canonical `(base, action-rank)` order.
    pub fn items(&self) -> &[PlanItem] {
        &self.items
    }

    /// True for the baseline plan.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `item` may be added: at most one action of each kind per
    /// allocation, and `Split` is exclusive — a duplicated object has no
    /// managed pages left for hints or prefetches to act on.
    pub fn allows(&self, item: &PlanItem) -> bool {
        self.items.iter().all(|have| {
            have.base != item.base
                || (have.action.rank() != item.action.rank()
                    && have.action != PlanAction::Split
                    && item.action != PlanAction::Split)
        })
    }

    /// A new plan with `item` added, re-canonicalized.
    pub fn with(&self, item: PlanItem) -> Plan {
        let mut items = self.items.clone();
        items.push(item);
        items.sort_by_key(|a| (a.base, a.action.rank()));
        Plan { items }
    }

    /// Stable identity: equal plans (any insertion order) share a key.
    pub fn key(&self) -> String {
        if self.items.is_empty() {
            return "baseline".to_string();
        }
        let parts: Vec<String> = self
            .items
            .iter()
            .map(|i| format!("0x{:x}/{}", i.base, i.action))
            .collect();
        parts.join(";")
    }

    /// Human-facing one-liner.
    pub fn describe(&self) -> String {
        if self.items.is_empty() {
            return "baseline (no hints)".to_string();
        }
        let parts: Vec<String> = self.items.iter().map(|i| i.to_string()).collect();
        parts.join(" + ")
    }
}

/// Enumerate single-action candidates from the baseline trace.
///
/// Sources, per live managed allocation:
/// * the advisor's verdict ([`suggest::suggest_for`]) — `Advise` and
///   `Split` become candidates, `LeaveAlone` does not;
/// * a `Prefetch(GPU0)` whenever the GPU touches data the CPU wrote —
///   the hint the advisor can't express: it fixes *when* pages move, not
///   where they live.
///
/// Output order is deterministic (SMT address order, advise before
/// prefetch). `Split` candidates only make sense where a source rewrite
/// is possible; callers targeting built-in workloads filter them out.
pub fn enumerate_candidates(smt: &Smt, platform: &Platform) -> Vec<PlanItem> {
    let mut out = Vec::new();
    let advised = suggest::suggest_for(smt, platform);
    for e in smt.iter() {
        if e.kind != AllocKind::Managed || !e.live {
            continue;
        }
        let p = suggest::profile(e);
        if p.touched == 0 {
            continue;
        }
        if let Some(s) = advised.iter().find(|s| s.base == e.base) {
            match &s.action {
                Action::Advise(a) => out.push(PlanItem {
                    name: s.name.clone(),
                    base: s.base,
                    size: s.size,
                    action: PlanAction::Advise(*a),
                    rationale: s.rationale.clone(),
                }),
                Action::SplitObject => out.push(PlanItem {
                    name: s.name.clone(),
                    base: s.base,
                    size: s.size,
                    action: PlanAction::Split,
                    rationale: s.rationale.clone(),
                }),
                Action::LeaveAlone => {}
            }
        }
        let gpu_touches = p.gpu_reads + p.gpu_writes;
        if p.cpu_writes > 0 && gpu_touches > 0 {
            out.push(PlanItem {
                name: e.display_name(),
                base: e.base,
                size: e.size,
                action: PlanAction::Prefetch(Device::GPU0),
                rationale: format!(
                    "CPU writes {} words the GPU then touches ({}); move the \
                     pages ahead of the kernel instead of faulting them over",
                    p.cpu_writes, gpu_touches
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    const GPU: Device = Device::GPU0;

    fn item(base: u64, action: PlanAction) -> PlanItem {
        PlanItem {
            name: format!("a{base:x}"),
            base,
            size: 64,
            action,
            rationale: String::new(),
        }
    }

    #[test]
    fn plan_key_ignores_insertion_order() {
        let a = item(0x1000, PlanAction::Advise(MemAdvise::SetReadMostly));
        let b = item(0x2000, PlanAction::Prefetch(GPU));
        let p1 = Plan::empty().with(a.clone()).with(b.clone());
        let p2 = Plan::empty().with(b).with(a);
        assert_eq!(p1.key(), p2.key());
        assert_eq!(p1, p2);
        assert_eq!(Plan::empty().key(), "baseline");
    }

    #[test]
    fn one_action_of_each_kind_per_allocation() {
        let adv = item(0x1000, PlanAction::Advise(MemAdvise::SetReadMostly));
        let pre = item(0x1000, PlanAction::Prefetch(GPU));
        let split = item(0x1000, PlanAction::Split);
        let p = Plan::empty().with(adv.clone());
        assert!(!p.allows(&adv)); // second advise on the same base
        assert!(p.allows(&pre)); // advise + prefetch combine
        assert!(!p.allows(&split)); // split is exclusive
        let ps = Plan::empty().with(split);
        assert!(!ps.allows(&adv));
        assert!(!ps.allows(&pre));
        // Different allocation is always fine.
        assert!(p.allows(&item(0x2000, PlanAction::Advise(MemAdvise::SetReadMostly))));
    }

    #[test]
    fn enumeration_covers_advice_and_prefetch() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Managed);
        // CPU init, GPU consume: preferred-location-or-readmostly + prefetch.
        t.write(Device::Cpu, 0x10_0000, 4);
        for i in 0..16u64 {
            t.read(GPU, 0x10_0000 + i * 4, 4);
        }
        let c = enumerate_candidates(&t.smt, &hetsim::platform::intel_pascal());
        assert_eq!(c.len(), 2, "{c:?}");
        assert_eq!(c[0].action, PlanAction::Advise(MemAdvise::SetReadMostly));
        assert_eq!(c[1].action, PlanAction::Prefetch(GPU));
    }

    #[test]
    fn enumeration_skips_dead_device_and_untouched() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Managed); // untouched
        t.trace_alloc(0x20_0000, 64, AllocKind::Device(0)); // wrong kind
        t.trace_alloc(0x30_0000, 64, AllocKind::Managed); // freed below
        t.write(GPU, 0x20_0000, 4);
        t.write(GPU, 0x30_0000, 4);
        t.trace_free(0x30_0000);
        assert!(enumerate_candidates(&t.smt, &hetsim::platform::intel_pascal()).is_empty());
    }

    #[test]
    fn gpu_only_data_gets_no_prefetch_candidate() {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Managed);
        for i in 0..16u64 {
            t.write(GPU, 0x10_0000 + i * 4, 4);
        }
        let c = enumerate_candidates(&t.smt, &hetsim::platform::intel_pascal());
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(
            c[0].action,
            PlanAction::Advise(MemAdvise::SetPreferredLocation(GPU))
        );
    }
}
