//! Folded-stacks export for flamegraph tooling.
//!
//! Each line is `platform;kernel;alloc;event-kind cost_ns` — the format
//! `flamegraph.pl` / `inferno` consume directly. A kernel's compute
//! remainder (span time not attributed to driver events) is emitted as a
//! three-frame `platform;kernel;compute` leaf so the rendered graph's
//! widths sum to the run's simulated time.

use std::collections::BTreeMap;

use hetsim::{Event, EventLog};

use crate::cells::{entry, kind_slot, label_of, Cells, Kernels, KINDS, KIND_NAMES};
use crate::profile::HOST_KERNEL;

/// Index of the frame `text` into `sums`, adding a zero sum for a new one.
fn frame(frames: &mut BTreeMap<String, usize>, sums: &mut Vec<f64>, text: String) -> usize {
    let next = sums.len();
    *frames.entry(text).or_insert_with(|| {
        sums.push(0.0);
        next
    })
}

/// Fold `log` into flamegraph stacks, using `names` for allocation
/// labels. Lines are aggregated and sorted; the output is deterministic
/// and empty (but valid) for an empty log.
pub fn folded_stacks(platform: &str, log: &EventLog, names: &[(u64, String)]) -> String {
    let mut kernels = Kernels::new();
    let mut cells = Cells::new();
    // Frame text -> index into `sums`. A (cell, kind slot) pair is
    // formatted once and then summed by index; frames are merged by text,
    // so two allocations with one label add into one frame in event order.
    let mut frames: BTreeMap<String, usize> = BTreeMap::new();
    let mut sums: Vec<f64> = Vec::new();
    let mut frame_of: Vec<usize> = Vec::new(); // by cell * KINDS + kind slot
                                               // Per kernel id: span total (once an end marker was seen) and
                                               // attributed total, to derive compute.
    let mut span_ns: Vec<Option<f64>> = Vec::new();
    let mut attributed_ns: Vec<f64> = Vec::new();
    let host = kernels.id(HOST_KERNEL);

    for te in log.events() {
        let kernel = kernels.of(&te.ctx);
        match &te.event {
            Event::KernelBegin { .. } => {}
            Event::KernelEnd(_) => {
                *entry(&mut span_ns, kernel).get_or_insert(0.0) += te.cost_ns;
            }
            ev => {
                if te.cost_ns > 0.0 {
                    let key = cells.id(kernel, te.ctx.alloc) * KINDS + kind_slot(ev);
                    frame_of.resize(cells.len() * KINDS, usize::MAX);
                    if frame_of[key] == usize::MAX {
                        let (k, alloc) = cells.keys()[key / KINDS];
                        let text = format!(
                            "{platform};{};{};{}",
                            kernels.name(k),
                            label_of(names, alloc),
                            KIND_NAMES[key % KINDS]
                        );
                        frame_of[key] = frame(&mut frames, &mut sums, text);
                    }
                    sums[frame_of[key]] += te.cost_ns;
                }
                if kernel != host {
                    *entry(&mut attributed_ns, kernel) += te.cost_ns;
                }
            }
        }
    }

    for (k, span) in span_ns.iter().enumerate() {
        let Some(span) = span else { continue };
        let compute = span - attributed_ns.get(k).copied().unwrap_or(0.0);
        if compute > 0.0 {
            let text = format!("{platform};{};compute", kernels.name(k as u32));
            let f = frame(&mut frames, &mut sums, text);
            sums[f] += compute;
        }
    }

    let mut out = String::new();
    for (text, &f) in &frames {
        let cost = sums[f].round() as u64;
        if cost > 0 {
            out.push_str(&format!("{text} {cost}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{platform, EventLog, Machine};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run_log() -> EventLog {
        let mut m = Machine::new(platform::intel_pascal());
        let log = Rc::new(RefCell::new(EventLog::with_capacity(1 << 20)));
        m.add_hook(log.clone());
        let p = m.alloc_managed::<f64>(8192);
        for i in 0..p.len {
            m.st(p, i, 1.0);
        }
        m.launch("touch", p.len, |t, m| {
            let _ = m.ld(p, t);
        });
        m.free(p);
        let log = log.borrow().clone();
        log
    }

    #[test]
    fn folded_lines_are_well_formed_and_sorted() {
        let log = run_log();
        let text = folded_stacks("intel_pascal", &log, &[]);
        assert!(!text.is_empty());
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "deterministic lexicographic order");
        for line in &lines {
            let (frame, cost) = line.rsplit_once(' ').expect("frame cost");
            assert!(cost.parse::<u64>().is_ok(), "integer cost: {line}");
            assert!(
                frame.starts_with("intel_pascal;"),
                "platform root frame: {line}"
            );
        }
        assert!(
            text.contains("intel_pascal;touch;compute"),
            "kernel compute leaf present"
        );
        assert!(text.contains(";page_fault "), "fault frames present");
    }

    #[test]
    fn empty_log_folds_to_empty_output() {
        let log = EventLog::new();
        assert_eq!(folded_stacks("intel_pascal", &log, &[]), "");
    }

    #[test]
    fn names_appear_in_frames() {
        let log = run_log();
        let base = log
            .events()
            .find_map(|e| match e.event {
                Event::Alloc { base, .. } => Some(base),
                _ => None,
            })
            .unwrap();
        let text = folded_stacks("intel_pascal", &log, &[(base, "domain".into())]);
        assert!(text.contains(";domain;"));
    }
}
