//! Differential conformance harness (DESIGN.md §13).
//!
//! Three oracles adversarially cross-check the layers against each other:
//!
//! * **Generated programs** — random well-typed MiniCU programs must
//!   round-trip through parse/unparse and behave identically whether the
//!   instrumentation runs as an AST pass or through its unparsed text.
//! * **Reference UM model** — a naive page-map model checks every driver
//!   decision, both on random operation sequences against `UmDriver`
//!   directly and in lockstep with full workload runs via `MemHook`.
//! * **Golden snapshots** — canonical reports/profiles for the 8
//!   workloads and the `examples/mini` programs, the counters of the
//!   oversubscribed lulesh and sw runs that evict, and digests of every
//!   exporter of the event stream are committed under `tests/golden/`;
//!   regenerate with `XPLACER_BLESS=1`.
//!
//! Case counts honour `XPLACER_CONFORMANCE_CASES` (CI smoke sets 64).

use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use hetsim::gpumem::{EvictionPolicy, GpuMemory};
use hetsim::unified::UmDriver;
use hetsim::{platform, Device, EventLog, Machine, MemAdvise, Stats};
use proptest::{Strategy, TestRng};
use xplacer_conformance::generator::ArbProgram;
use xplacer_conformance::refmodel::{diff_page, RefGpuMemory, RefUmModel};
use xplacer_conformance::{check_program, conformance_cases, golden, mutate, snapshot};
use xplacer_core::OnlineConfig;
use xplacer_lang::parser::parse;
use xplacer_lang::unparse::unparse;
use xplacer_obs::events::{events_json, EventTrace};
use xplacer_obs::profile::ProfileReport;
use xplacer_obs::timeseries::TelemetryConfig;
use xplacer_obs::{replay, BlameReport, DashOpts, Json, RunDigest};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn golden_path(name: &str) -> PathBuf {
    repo_path(&format!("golden/{name}"))
}

// =====================================================================
// Oracle 1: generated programs.
// =====================================================================

#[test]
fn generated_programs_conform() {
    let cases = conformance_cases();
    for i in 0..cases {
        let mut rng = TestRng::deterministic(&format!("xplacer-conformance-case-{i}"));
        let prog = ArbProgram.generate(&mut rng);
        if let Err(e) = check_program(&prog) {
            panic!(
                "generated program case {i} violated conformance: {e}\n\
                 ---- program ----\n{}",
                unparse(&prog)
            );
        }
    }
}

/// The committed generator seed corpus must stay conformant: these are
/// pinned samples of the generator's output (bless regenerates them from
/// the named seeds), so generator changes show up as corpus diffs.
#[test]
fn corpus_valid_programs_conform() {
    let dir = repo_path("corpus/valid");
    if snapshot::blessing() {
        fs::create_dir_all(&dir).unwrap();
        for i in 0..8 {
            let mut rng = TestRng::deterministic(&format!("xplacer-corpus-seed-{i}"));
            let prog = ArbProgram.generate(&mut rng);
            fs::write(dir.join(format!("gen_{i:02}.cu")), unparse(&prog)).unwrap();
        }
    }
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("tests/corpus/valid missing; regenerate with XPLACER_BLESS=1")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(entries.len() >= 8, "expected >= 8 corpus programs");
    for path in entries {
        let src = fs::read_to_string(&path).unwrap();
        let prog = parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(e) = check_program(&prog) {
            panic!(
                "corpus program {} violated conformance: {e}",
                path.display()
            );
        }
    }
}

// =====================================================================
// Negative paths: malformed inputs error with spans, never panic.
// =====================================================================

fn mini_sources() -> Vec<(String, String)> {
    [
        "alternating.cu",
        "pathfinder.cu",
        "smith_waterman.cu",
        "unnecessary_transfer.cu",
    ]
    .iter()
    .map(|n| {
        let p = repo_path(&format!("../examples/mini/{n}"));
        (n.to_string(), fs::read_to_string(&p).unwrap())
    })
    .collect()
}

#[test]
fn invalid_corpus_errors_are_spanned() {
    let dir = repo_path("corpus/invalid");
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("tests/corpus/invalid missing")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(entries.len() >= 8, "expected >= 8 invalid corpus inputs");
    for path in entries {
        let src = fs::read_to_string(&path).unwrap();
        match parse(&src) {
            Ok(_) => panic!("{} unexpectedly parsed", path.display()),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("line "),
                    "{}: error lacks a source span: {msg}",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn mutated_inputs_never_panic() {
    // Mutate both the committed mini programs and generated programs.
    let mut seeds: Vec<String> = mini_sources().into_iter().map(|(_, s)| s).collect();
    for i in 0..4 {
        let mut rng = TestRng::deterministic(&format!("xplacer-mutation-base-{i}"));
        seeds.push(unparse(&ArbProgram.generate(&mut rng)));
    }
    let rounds = (conformance_cases() / 4).max(16);
    let mut rng = TestRng::deterministic("xplacer-mutations");
    let mut parsed_ok = 0u32;
    let mut errored = 0u32;
    for round in 0..rounds {
        let base = &seeds[(round % seeds.len() as u64) as usize];
        let mutated = mutate::mutate_some(base, &mut rng);
        let result = std::panic::catch_unwind(|| parse(&mutated));
        match result {
            Err(_) => panic!("parse panicked on mutated input:\n---- input ----\n{mutated}"),
            Ok(Err(e)) => {
                errored += 1;
                let msg = e.to_string();
                assert!(
                    msg.contains("line "),
                    "mutated input error lacks a span: {msg}\n---- input ----\n{mutated}"
                );
            }
            Ok(Ok(prog)) => {
                parsed_ok += 1;
                // Still-valid mutants must unparse/reparse cleanly.
                let text = unparse(&prog);
                if let Err(e) = parse(&text) {
                    panic!(
                        "unparse of a parsed mutant no longer parses: {e}\n\
                         ---- mutant ----\n{mutated}\n---- unparsed ----\n{text}"
                    );
                }
            }
        }
    }
    // The mutator must actually exercise the error paths.
    assert!(errored > 0, "no mutated input errored ({parsed_ok} parsed)");
}

/// The memory checker consumes the same hostile inputs: mutated programs
/// may be rejected (parse/semantic errors) or produce findings, but
/// `check_source` must never panic.
#[test]
fn checker_never_panics_on_mutated_inputs() {
    let mut seeds: Vec<String> = mini_sources().into_iter().map(|(_, s)| s).collect();
    for i in 0..4 {
        let mut rng = TestRng::deterministic(&format!("xplacer-mutation-base-{i}"));
        seeds.push(unparse(&ArbProgram.generate(&mut rng)));
    }
    let rounds = (conformance_cases() / 4).max(16);
    let mut rng = TestRng::deterministic("xplacer-check-mutations");
    let mut rejected = 0u32;
    for round in 0..rounds {
        let base = &seeds[(round % seeds.len() as u64) as usize];
        let mutated = mutate::mutate_some(base, &mut rng);
        let result = std::panic::catch_unwind(|| {
            xplacer_check::check_source(
                "mutant.cu",
                &mutated,
                &xplacer_check::CheckOptions::default(),
            )
        });
        match result {
            Err(_) => panic!("checker panicked on mutated input:\n---- input ----\n{mutated}"),
            Ok(Err(e)) => {
                rejected += 1;
                assert!(
                    !e.is_empty(),
                    "checker rejected a mutant with an empty message:\n{mutated}"
                );
            }
            Ok(Ok(_)) => {}
        }
    }
    assert!(rejected > 0, "no mutated input was rejected by the checker");
}

/// A pathfinder run recorded the way `--events-out` and `profile --json`
/// write it: the events trace and the profile report, both pretty JSON.
fn pathfinder_documents() -> (String, String) {
    let mut m = Machine::new(platform::intel_pascal());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    xplacer_workloads::driver::run_workload(&mut m, "pathfinder", |_, names| {
        xplacer_workloads::register_names(&tracer, names)
    })
    .expect("pathfinder runs");
    // `elapsed_ns` syncs the device, which notifies the hooks: read it
    // before borrowing the log.
    let elapsed = m.elapsed_ns();
    let allocs = xplacer_core::summarize(&tracer.borrow().smt, false);
    let events =
        events_json(&log.borrow(), "pathfinder", elapsed, m.platform(), &allocs).to_string_pretty();
    let trace = EventTrace::parse(&events).expect("recorded trace parses");
    let profile = ProfileReport::from_trace(&trace)
        .to_json()
        .to_string_pretty();
    (events, profile)
}

/// The replay readers, in the order [`read_replay_document`] reports them.
const REPLAY_READERS: [&str; 3] = ["Json::parse", "RunDigest::from_json", "EventTrace::parse"];

/// Feed one document to every replay reader: `Json::parse` and
/// `RunDigest::from_json` (`diff`; the digest counts as `Ok` when the JSON
/// does not parse), and `EventTrace::parse` (`blame --replay`, `top
/// --replay`) followed, when the trace parses, by the blame and dashboard
/// folds.
fn read_replay_document(text: &str) -> [Result<(), String>; 3] {
    let json = Json::parse(text).map_err(|e| e.message);
    let digest = match &json {
        Ok(doc) => RunDigest::from_json(doc, "mutant.json").map(drop),
        Err(_) => Ok(()),
    };
    let trace = EventTrace::parse(text).map(|trace| {
        BlameReport::build(&trace).render(10);
        replay(
            &trace,
            TelemetryConfig::default(),
            OnlineConfig::default(),
            3,
            &DashOpts::default(),
        );
    });
    [json.map(drop), digest, trace]
}

/// The replay readers get the same treatment as the frontend: mutants
/// of a recorded events trace and of a profile report must make every
/// reader return `Ok` or an `Err` that says something — never panic.
#[test]
fn replay_readers_never_panic_on_mutated_documents() {
    let (events, profile) = pathfinder_documents();
    let rounds = (conformance_cases() * 4).max(256);
    let mut rng = TestRng::deterministic("xplacer-replay-mutations");
    let mut refused = [0u64; 3];
    for round in 0..rounds {
        let base = if round % 2 == 0 { &events } else { &profile };
        let mutated = mutate::mutate_json_some(base, &mut rng);
        let Ok(results) = std::panic::catch_unwind(|| read_replay_document(&mutated)) else {
            panic!("a replay reader panicked on mutated input:\n{mutated}");
        };
        for ((reader, result), n) in REPLAY_READERS.iter().zip(&results).zip(&mut refused) {
            if let Err(e) = result {
                assert!(
                    !e.is_empty(),
                    "{reader} gave an empty error for:\n{mutated}"
                );
                *n += 1;
            }
        }
    }
    // The mutator must reach every reader's error path, and some mutated
    // traces must still parse and go through blame and the dashboard.
    assert!(
        refused.iter().all(|&n| n > 0),
        "refusals per reader: {refused:?}"
    );
    assert!(refused[2] < rounds, "no mutated trace survived to replay");
}

/// Semantically invalid programs that *parse* must surface interpreter
/// errors, not panics.
#[test]
fn semantic_errors_reported_not_panicked() {
    let bad = [
        // Call to an undefined function.
        "int main() { frobnicate(1); return 0; }",
        // Memcpy with an illegal direction for the operand kinds.
        "int main() { int* d; cudaMalloc((void**)&d, 64); int* h; h = (int*)malloc(64); \
         cudaMemcpy(d, h, 64, 2); return 0; }",
        // Advise on unmanaged memory.
        "int main() { int* h; h = (int*)malloc(64); cudaMemAdvise(h, 64, 1, 0); return 0; }",
        // Out-of-bounds store.
        "int main() { int* p; cudaMallocManaged((void**)&p, 4 * sizeof(int)); p[9] = 1; \
         return 0; }",
    ];
    for src in bad {
        for instrumented in [false, true] {
            let r = std::panic::catch_unwind(|| {
                xplacer_interp::run_source(src, platform::intel_pascal(), instrumented)
            });
            match r {
                Err(_) => panic!("interpreter panicked (instrumented={instrumented}):\n{src}"),
                Ok(Ok(_)) => panic!("expected an error (instrumented={instrumented}):\n{src}"),
                Ok(Err(_)) => {}
            }
        }
    }
}

// =====================================================================
// Oracle 2: reference UM model.
// =====================================================================

/// Drive `UmDriver` and `RefUmModel` with identical random operation
/// sequences (accesses, advice and prefetches by the CPU and the GPU, on
/// both NVLink flavors) and require identical outcomes, counters, and page
/// states.
#[test]
fn ref_um_model_matches_driver_on_random_sequences() {
    let cases = conformance_cases().max(64);
    for case in 0..cases {
        let mut rng = TestRng::deterministic(&format!("xplacer-refum-{case}"));
        let mut pf = platform::intel_pascal();
        let nvlink = rng.below(2) == 1;
        pf.cpu_direct_access_gpu = nvlink;
        let page_size = pf.page_size;
        let base = hetsim::alloc::HEAP_BASE;
        let pages = 4 + rng.below(8); // 4..=11 managed pages
        let size = pages * page_size;

        let mut drv = UmDriver::new(page_size);
        let mut gpu = GpuMemory::with_policy(1 << 40, page_size, EvictionPolicy::Fifo);
        let mut stats = Stats::default();
        let mut model = RefUmModel::new(page_size, nvlink);
        drv.register_alloc(base, size, true);
        model.register_alloc(base, size, true);

        let first_page = base / page_size;
        let devices = [Device::Cpu, Device::Gpu];
        for step in 0..120 {
            match rng.below(10) {
                // Mostly accesses.
                0..=6 => {
                    let dev = devices[rng.below(2) as usize];
                    let page = first_page + rng.below(pages);
                    let write = rng.below(2) == 1;
                    let out = drv.access(&pf, &mut gpu, &mut stats, dev, page, write);
                    let exp = model.access(dev, page, write);
                    assert_eq!(
                        (
                            out.fault,
                            out.duplicated,
                            out.migrated,
                            out.remote,
                            out.invalidations
                        ),
                        (
                            exp.fault,
                            exp.duplicated,
                            exp.migrated,
                            exp.remote,
                            exp.invalidations
                        ),
                        "case {case} step {step}: outcome diverged for {dev:?} \
                         page {page:#x} write={write}"
                    );
                    assert_eq!(out.evictions, 0, "unexpected eviction with ample capacity");
                }
                7 => {
                    let advice = match rng.below(6) {
                        0 => MemAdvise::SetReadMostly,
                        1 => MemAdvise::UnsetReadMostly,
                        2 => MemAdvise::SetPreferredLocation(devices[rng.below(2) as usize]),
                        3 => MemAdvise::UnsetPreferredLocation,
                        4 => MemAdvise::SetAccessedBy(devices[rng.below(2) as usize]),
                        _ => MemAdvise::UnsetAccessedBy(devices[rng.below(2) as usize]),
                    };
                    drv.advise(base, size, advice);
                    model.advise(base, size, advice);
                }
                8 => {
                    let dst = devices[rng.below(2) as usize];
                    let out = drv.prefetch(&pf, &mut gpu, &mut stats, base, size, dst);
                    let (p, b) = model.prefetch(base, size, dst);
                    assert_eq!(
                        (out.pages, out.bytes_moved),
                        (p, b),
                        "case {case} step {step}: prefetch to {dst:?} diverged"
                    );
                }
                // Sub-range prefetch.
                _ => {
                    let dst = devices[rng.below(2) as usize];
                    let off = rng.below(pages) * page_size;
                    let len = (rng.below(3) + 1) * page_size;
                    let len = len.min(size - off);
                    let out = drv.prefetch(&pf, &mut gpu, &mut stats, base + off, len, dst);
                    let (p, b) = model.prefetch(base + off, len, dst);
                    assert_eq!((out.pages, out.bytes_moved), (p, b));
                }
            }
            // Counter lockstep on every step.
            let s = &model.stats;
            assert_eq!(
                (
                    stats.cpu_faults,
                    stats.gpu_faults,
                    stats.migrations_h2d,
                    stats.migrations_d2h
                ),
                (
                    s.cpu_faults,
                    s.gpu_faults,
                    s.migrations_h2d,
                    s.migrations_d2h
                ),
                "case {case} step {step}: fault/migration counters diverged"
            );
            assert_eq!(
                (
                    stats.bytes_migrated,
                    stats.duplications,
                    stats.invalidations,
                    stats.remote_accesses
                ),
                (
                    s.bytes_migrated,
                    s.duplications,
                    s.invalidations,
                    s.remote_accesses
                ),
                "case {case} step {step}: byte/coherence counters diverged"
            );
            assert_eq!(stats.evictions, 0);
        }
        // Full page-state agreement at the end.
        for page in first_page..first_page + pages {
            let diffs = diff_page(&model.page(page), drv.state(page));
            assert!(
                diffs.is_empty(),
                "case {case}: final state diverged on page {page:#x}: {}",
                diffs.join(", ")
            );
        }
    }
}

/// Eviction/writeback conservation with a tight FIFO GPU memory: every
/// evicted dirty page writes back exactly one page of bytes and counts as
/// one D2H migration; residency never exceeds capacity.
#[test]
fn eviction_writeback_conservation() {
    let pf = platform::intel_pascal();
    let page_size = pf.page_size;
    let base = hetsim::alloc::HEAP_BASE;
    let pages = 16u64;
    let capacity = 4u64;
    for case in 0..32 {
        let mut rng = TestRng::deterministic(&format!("xplacer-evict-{case}"));
        let mut drv = UmDriver::new(page_size);
        let mut gpu = GpuMemory::with_policy(capacity * page_size, page_size, EvictionPolicy::Fifo);
        let mut stats = Stats::default();
        drv.register_alloc(base, pages * page_size, true);
        let first_page = base / page_size;
        let mut last = stats.clone();
        for step in 0..200 {
            let dev = if rng.below(4) == 0 {
                Device::Cpu
            } else {
                Device::Gpu
            };
            let page = first_page + rng.below(pages);
            let write = rng.below(2) == 1;
            let out = drv.access(&pf, &mut gpu, &mut stats, dev, page, write);

            assert!(gpu.len() <= capacity, "residency exceeded capacity");
            let d_evict = stats.evictions - last.evictions;
            let d_bytes_evicted = stats.bytes_evicted - last.bytes_evicted;
            assert_eq!(d_evict, out.evictions as u64, "step {step}: eviction count");
            assert_eq!(
                d_bytes_evicted,
                out.writeback_pages as u64 * page_size,
                "step {step}: writeback bytes not conserved"
            );
            assert_eq!(out.evicted_bytes, out.writeback_pages as u64 * page_size);
            assert!(out.writeback_pages <= out.evictions);
            // Every writeback is accounted as a D2H migration.
            let d_d2h = stats.migrations_d2h - last.migrations_d2h;
            let own_migration = u64::from(out.migrated && dev == Device::Cpu);
            assert_eq!(
                d_d2h,
                own_migration + out.writeback_pages as u64,
                "step {step}: writebacks not counted as D2H migrations"
            );
            last = stats.clone();
        }
        assert!(
            stats.evictions > 0,
            "case {case}: eviction path never exercised"
        );
    }
}

/// Deterministic FIFO scenario: a monotone GPU write sweep over more
/// pages than fit evicts in insertion order, each eviction writing back
/// its dirty page.
#[test]
fn fifo_eviction_order_is_exact() {
    let pf = platform::intel_pascal();
    let page_size = pf.page_size;
    let base = hetsim::alloc::HEAP_BASE;
    let capacity = 4u64;
    let total = 10u64;
    let mut drv = UmDriver::new(page_size);
    let mut gpu = GpuMemory::with_policy(capacity * page_size, page_size, EvictionPolicy::Fifo);
    let mut stats = Stats::default();
    drv.register_alloc(base, total * page_size, true);
    let first_page = base / page_size;
    for k in 0..total {
        let out = drv.access(&pf, &mut gpu, &mut stats, Device::Gpu, first_page + k, true);
        assert!(out.migrated);
        if k < capacity {
            assert_eq!(out.evictions, 0);
        } else {
            assert_eq!(out.evictions, 1);
            assert_eq!(out.writeback_pages, 1);
            // FIFO: the victim is the oldest inserted page.
            let victim = first_page + (k - capacity);
            assert!(!gpu.resident(victim), "page {victim:#x} should be evicted");
            let st = drv.state(victim);
            assert_eq!(st.owner, Device::Cpu, "written-back page returns to CPU");
        }
    }
    assert_eq!(stats.evictions, total - capacity);
    assert_eq!(stats.bytes_evicted, (total - capacity) * page_size);
    assert_eq!(stats.migrations_d2h, total - capacity);
    // h2d: one per on-demand migration.
    assert_eq!(stats.migrations_h2d, total);
}

/// Drive `GpuMemory` and `RefGpuMemory`, its original hash-map form, with
/// the same random insert/release/clear sequences under both policies, at
/// capacities of 1–6 pages over low pages and over sparse pages below
/// 2^16: every insert must evict the same pages in the same order, and
/// after every step both must agree on the count and on every page's
/// residency.
#[test]
fn gpu_memory_matches_the_hashmap_reference() {
    let page_size = 64;
    for case in 0..conformance_cases().max(64) {
        let mut rng = TestRng::deterministic(&format!("xplacer-gpumem-{case}"));
        let policy = if case % 2 == 0 {
            EvictionPolicy::Random
        } else {
            EvictionPolicy::Fifo
        };
        let capacity = 1 + rng.below(6);
        let count = capacity + 1 + rng.below(8);
        let pages: Vec<u64> = if case % 4 < 2 {
            (0..count).collect()
        } else {
            (0..count).map(|_| rng.below(1 << 16)).collect()
        };
        let mut dense = GpuMemory::with_policy(capacity * page_size, page_size, policy);
        let mut reference = RefGpuMemory::with_policy(capacity * page_size, page_size, policy);
        for step in 0..400 {
            let page = pages[rng.below(count) as usize];
            match rng.below(64) {
                0..=43 => assert_eq!(
                    dense.insert(page),
                    reference.insert(page),
                    "case {case} step {step}: pages evicted by inserting {page}"
                ),
                44..=62 => {
                    dense.release(page);
                    reference.release(page);
                }
                _ => {
                    dense.clear();
                    reference.clear();
                }
            }
            assert_eq!(dense.len(), reference.len(), "case {case} step {step}");
            assert_eq!(dense.is_empty(), reference.is_empty());
            let probe = rng.below(1 << 17);
            for p in pages.iter().copied().chain([probe]) {
                assert_eq!(
                    dense.resident(p),
                    reference.resident(p),
                    "case {case} step {step}: page {p}"
                );
            }
        }
    }
}

/// The model in lockstep with the full machine across every workload.
/// Only lulesh and smith_waterman allocate managed memory (the rodinia
/// ports use explicit device memory + memcpy), so only those two must
/// produce checked managed accesses; for the rest the hook verifies that
/// no unified-memory driver activity appears at all.
#[test]
fn ref_um_model_lockstep_all_workloads() {
    const UM_WORKLOADS: [&str; 2] = ["lulesh", "smith_waterman"];
    for name in golden::WORKLOADS {
        let res = golden::lockstep_workload(name);
        assert!(
            res.divergences.is_empty(),
            "{name}: {} divergences, first: {}",
            res.divergences.len(),
            res.divergences.first().map(String::as_str).unwrap_or("")
        );
        if UM_WORKLOADS.contains(&name) {
            assert!(
                res.checked_accesses > 0,
                "{name}: no managed accesses checked"
            );
            assert!(res.checked_events > 0, "{name}: no driver events checked");
        }
    }
}

/// The bulk fast path is invisible: every workload produces a bit-exact
/// fingerprint (elapsed time, stats, timed event stream, shadow flags,
/// rendered report) whether a range reaches the hooks as one `on_access`
/// or decomposes into the per-word scalar protocol.
#[test]
fn bulk_fast_path_matches_per_word_on_all_workloads() {
    for name in golden::WORKLOADS {
        let fast = golden::workload_bulk_fingerprint(name, true);
        let slow = golden::workload_bulk_fingerprint(name, false);
        if fast != slow {
            let diff = fast
                .lines()
                .zip(slow.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b);
            panic!(
                "{name}: bulk and per-word fingerprints differ; first \
                 differing line: {diff:?}"
            );
        }
    }
}

/// The reference UM model verifies the ranged hook seam too: with bulk on
/// the UM workloads drive multi-element `on_access` calls
/// (checked_ranges > 0), with bulk off the same workloads decompose
/// per-word — and the model stays in lockstep on both paths.
#[test]
fn ref_um_model_lockstep_both_bulk_paths() {
    for name in ["lulesh", "smith_waterman"] {
        let fast = golden::lockstep_workload_with(name, true);
        let slow = golden::lockstep_workload_with(name, false);
        for (label, res) in [("bulk", &fast), ("per-word", &slow)] {
            assert!(
                res.divergences.is_empty(),
                "{name} ({label}): {} divergences, first: {}",
                res.divergences.len(),
                res.divergences.first().map(String::as_str).unwrap_or("")
            );
        }
        assert!(
            fast.checked_ranges > 0,
            "{name}: bulk run never exercised a range access"
        );
        assert_eq!(slow.checked_ranges, 0, "{name}: per-word run saw ranges");
        assert_eq!(
            fast.checked_accesses, slow.checked_accesses,
            "{name}: paths checked different managed access counts"
        );
    }
}

/// Lockstep also holds for interpreted mini-CUDA programs (instrumented
/// runs on a hook-equipped machine).
#[test]
fn ref_um_model_lockstep_mini_programs() {
    for (name, src) in mini_sources() {
        let pf = platform::intel_pascal();
        let mut m = hetsim::Machine::new(pf.clone());
        let hook = Rc::new(RefCell::new(
            xplacer_conformance::refmodel::LockstepHook::new(
                pf.page_size,
                pf.cpu_direct_access_gpu,
            ),
        ));
        m.add_hook(hook.clone());
        let (_, _interp) =
            xplacer_interp::run_source_on(&src, m, true).unwrap_or_else(|e| panic!("{name}: {e}"));
        let h = hook.borrow();
        assert!(
            h.divergences.is_empty(),
            "{name}: {}",
            h.divergences.join("\n")
        );
        // Only the managed-memory examples have UM traffic to check.
        if ["alternating.cu", "smith_waterman.cu"].contains(&name.as_str()) {
            assert!(h.checked_accesses > 0, "{name}: nothing checked");
        }
    }
}

// =====================================================================
// Oracle 3: golden snapshots.
// =====================================================================

#[test]
fn golden_workload_reports() {
    let mut failures = Vec::new();
    for name in golden::WORKLOADS {
        let doc = golden::workload_doc(name);
        if let Err(e) = snapshot::check_or_bless(&golden_path(&format!("{name}.golden")), &doc) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn golden_eviction_runs() {
    let doc = golden::eviction_doc();
    assert!(!doc.contains("evict=0 "), "every run must evict");
    snapshot::check_or_bless(&golden_path("eviction.golden"), &doc)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Every exporter of the event stream, digested over runs that raise all
/// twelve event kinds: a change to how events are built, stored or read
/// must leave every byte of every export as it was.
#[test]
fn golden_event_exports() {
    let gen_00 = fs::read_to_string(repo_path("corpus/valid/gen_00.cu")).expect("gen_00.cu");
    let doc = golden::event_exports_doc(&gen_00);
    for kind in [
        "alloc",
        "free",
        "page_fault",
        "migration",
        "read_dup",
        "invalidate",
        "evict",
        "memcpy",
        "advise",
        "prefetch",
        "kernel_begin",
        "kernel_end",
    ] {
        assert!(doc.contains(&format!(" {kind}=")), "no run raised `{kind}`");
    }
    assert!(
        !doc.contains(": false"),
        "a parsed trace differs from its recording"
    );
    snapshot::check_or_bless(&golden_path("event_exports.golden"), &doc)
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn golden_mini_program_reports() {
    let mut failures = Vec::new();
    for (name, src) in mini_sources() {
        let doc = golden::mini_doc(&format!("examples/mini/{name}"), &src)
            .unwrap_or_else(|e| panic!("{e}"));
        let stem = name.trim_end_matches(".cu");
        if let Err(e) = snapshot::check_or_bless(&golden_path(&format!("mini_{stem}.golden")), &doc)
        {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
