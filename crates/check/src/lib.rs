//! `xplacer check`: a memory sanitizer and cross-stream race detector
//! for MiniCU programs and the built-in workloads.
//!
//! The checker is a [`MemHook`](hetsim::MemHook) riding the same seam the
//! XPlacer tracer uses (`crates/hetsim/src/hook.rs`): every allocation,
//! access, copy, launch, and synchronization the machine performs also
//! drives a per-byte shadow heap ([`shadow`]) and a happens-before vector
//! clock model ([`race`]). Defects surface two ways:
//!
//! - **Non-fatal findings** (uninitialized reads, unordered cross-stream
//!   conflicts, leaks at exit) accumulate while the program runs.
//! - **Fatal faults** (out-of-bounds, use-after-free, double free, bad
//!   copy directions, ...) abort the run inside the machine; the driver
//!   classifies the structured [`SimError`] and attributes it with the
//!   hook's last-seen source site, kernel context, and nearest-allocation
//!   lookup — at most one fatal diagnostic per run, always last.
//!
//! Reports render as a table or as the `xplacer-check/1` JSON document;
//! both are byte-deterministic for a given input.

pub mod checker;
pub mod race;
pub mod report;
pub mod shadow;

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{Machine, Platform, SimError};

pub use checker::CheckHook;
pub use report::{AllocInfo, CheckReport, DefectClass, Diagnostic, SCHEMA};

/// Knobs for one `check` run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Use the machine's bulk range fast path (`false` forces the
    /// per-word fallback; findings must be identical either way).
    pub bulk: bool,
    /// Keep at most this many findings (0 = all).
    pub max_errors: usize,
    pub platform: Platform,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            bulk: true,
            max_errors: 0,
            platform: hetsim::platform::intel_pascal(),
        }
    }
}

/// Everything one check run produced.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    pub report: CheckReport,
    /// The checked program's own stdout (empty when it trapped).
    pub stdout: String,
    /// The program's exit value, when it ran to completion.
    pub program_exit: Option<i64>,
    /// Parity oracle: digest of the final shadow state.
    pub shadow_digest: u64,
    /// Cost counter: shadow bytes held at exit (never released, so also
    /// the peak).
    pub shadow_bytes: u64,
    /// Cost counter: race-table slots allocated over the run.
    pub race_slots: u64,
}

/// Check a MiniCU source. Leaked allocations at exit are findings here
/// (the program owns its heap); workload harnesses use
/// [`check_workload`], which skips the leak pass.
pub fn check_source(target: &str, src: &str, opts: &CheckOptions) -> Result<CheckOutcome, String> {
    let mut machine = Machine::new(opts.platform.clone());
    machine.set_bulk_enabled(opts.bulk);
    let hook = Rc::new(RefCell::new(CheckHook::new()));
    machine.add_hook(hook.clone());
    let run = xplacer_interp::run_source_on(src, machine, false);
    let mut h = hook.borrow_mut();
    let (stdout, program_exit) = match run {
        Ok((outcome, _interp)) => {
            h.finish_leaks();
            (outcome.stdout, Some(outcome.exit))
        }
        Err(e) => match &e.sim {
            Some(sim) => {
                let d = classify_fatal(sim, &h);
                h.push_finding(d);
                (String::new(), None)
            }
            // Not a program defect (parse error, unsupported construct):
            // a usage-level failure, not a finding.
            None => return Err(e.message),
        },
    };
    let mut report = h.into_report(target);
    report.truncate(opts.max_errors);
    Ok(CheckOutcome {
        report,
        stdout,
        program_exit,
        shadow_digest: h.shadow_digest(),
        shadow_bytes: h.shadow().bytes(),
        race_slots: h.race_slots(),
    })
}

/// Check a built-in workload by name. The workload's allocation-name
/// table labels the shadow records, so findings carry `gpuWall`-style
/// names instead of `alloc#N`.
pub fn check_workload(target: &str, opts: &CheckOptions) -> Result<CheckOutcome, String> {
    let mut machine = Machine::new(opts.platform.clone());
    machine.set_bulk_enabled(opts.bulk);
    let hook = Rc::new(RefCell::new(CheckHook::new()));
    machine.add_hook(hook.clone());
    let (check, _names) =
        xplacer_workloads::driver::run_workload(&mut machine, target, |m, names| {
            let names: Vec<(hetsim::Addr, String)> = names.to_vec();
            for (addr, name) in &names {
                m.note_alloc_label(*addr, name);
            }
        })?;
    let mut h = hook.borrow_mut();
    let mut report = h.into_report(target);
    report.truncate(opts.max_errors);
    Ok(CheckOutcome {
        report,
        stdout: format!("check value: {check}\n"),
        program_exit: Some(0),
        shadow_digest: h.shadow_digest(),
        shadow_bytes: h.shadow().bytes(),
        race_slots: h.race_slots(),
    })
}

/// Map a machine trap to its defect class, attributed with the hook's
/// execution context and shadow heap.
fn classify_fatal(sim: &SimError, h: &CheckHook) -> Diagnostic {
    let shadow = h.shadow();
    let info = |addr| {
        shadow.attribute(addr).map(|r| AllocInfo {
            name: r.name(),
            base: r.base,
            size: r.size,
            kind: r.kind_str(),
        })
    };
    let site_str = |s: Option<shadow::Site>| match s {
        Some((l, c)) => format!(" at {l}:{c}"),
        None => String::new(),
    };
    let (class, message, alloc) = match sim {
        SimError::Unallocated { addr } => {
            let alloc = shadow.attribute(*addr);
            let msg = match alloc {
                Some(r) if *addr >= r.end() => format!(
                    "access at 0x{addr:x} lands {} bytes past the end of {} ({} bytes)",
                    addr - r.end() + 1,
                    r.name(),
                    r.size
                ),
                Some(r) if *addr < r.base => format!(
                    "access at 0x{addr:x} lands {} bytes before the start of {}",
                    r.base - addr,
                    r.name()
                ),
                _ => format!("access to unallocated address 0x{addr:x}"),
            };
            (DefectClass::OutOfBounds, msg, info(*addr))
        }
        SimError::OutOfBounds { addr, size } => {
            let msg = match shadow.attribute(*addr) {
                Some(r) => format!(
                    "access of {size} bytes at {}+{} runs past the end of the \
                     {}-byte allocation",
                    r.name(),
                    addr.saturating_sub(r.base),
                    r.size
                ),
                None => format!("access of {size} bytes at 0x{addr:x} runs out of bounds"),
            };
            (DefectClass::OutOfBounds, msg, info(*addr))
        }
        SimError::UseAfterFree { addr } => {
            let msg = match shadow.find_dead(*addr) {
                Some(r) => format!(
                    "use of {}+{} after free{}",
                    r.name(),
                    addr - r.base,
                    site_str(r.free_site)
                ),
                None => format!("use after free at 0x{addr:x}"),
            };
            (DefectClass::UseAfterFree, msg, info(*addr))
        }
        SimError::DoubleFree { base } => {
            let msg = match shadow.find_dead_base(*base) {
                Some(r) => format!(
                    "double free of {} (first freed{})",
                    r.name(),
                    site_str(r.free_site)
                ),
                None => format!("double free of 0x{base:x}"),
            };
            (DefectClass::DoubleFree, msg, info(*base))
        }
        SimError::BadFree { addr } => {
            let msg = match shadow.attribute(*addr) {
                Some(r) if r.contains(*addr) => format!(
                    "free of {}+{}, which is not the allocation base",
                    r.name(),
                    addr - r.base
                ),
                _ => format!("free of 0x{addr:x}, which is not an allocation base"),
            };
            (DefectClass::BadFree, msg, info(*addr))
        }
        SimError::BadCopyDirection { dst, src } => {
            let name = |a| {
                shadow
                    .attribute(a)
                    .map(|r| format!("{} ({})", r.name(), r.kind_str()))
                    .unwrap_or_else(|| format!("0x{a:x}"))
            };
            (
                DefectClass::BadCopyDirection,
                format!(
                    "memcpy direction does not match its operands: dst {}, src {}",
                    name(*dst),
                    name(*src)
                ),
                info(*dst),
            )
        }
        SimError::IllegalAccess { device, addr } => (
            DefectClass::Other,
            format!("{device} has no access path to 0x{addr:x}"),
            info(*addr),
        ),
        SimError::AdviseOnUnmanaged { addr } => (
            DefectClass::Other,
            format!("cudaMemAdvise on non-managed memory at 0x{addr:x}"),
            info(*addr),
        ),
        SimError::OutOfMemory { requested } => (
            DefectClass::Other,
            format!("simulated address space exhausted ({requested} bytes requested)"),
            None,
        ),
    };
    let kernel = h.kernel_ctx();
    Diagnostic {
        class,
        message,
        site: h.cur_site(),
        kernel: kernel.as_ref().map(|(n, _, _)| n.clone()),
        launch_seq: kernel.as_ref().map(|(_, s, _)| *s),
        stream: kernel.as_ref().map(|(_, _, s)| *s),
        alloc,
        fatal: true,
    }
}
