//! Model-based property tests: the simulated address space and machine
//! behave like a reference HashMap memory under arbitrary operation
//! sequences, and simulated time/counters are monotone.

use std::collections::HashMap;

use proptest::prelude::*;

use hetsim::{platform, AllocKind, Machine, TPtr};

#[derive(Debug, Clone)]
enum Op {
    Alloc(u16),
    Free(u8),
    Write(u8, u16, i64),
    Read(u8, u16),
    KernelWrite(u8, u16, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u16..200).prop_map(Op::Alloc),
        any::<u8>().prop_map(Op::Free),
        (any::<u8>(), any::<u16>(), any::<i64>()).prop_map(|(a, i, v)| Op::Write(a, i, v)),
        (any::<u8>(), any::<u16>()).prop_map(|(a, i)| Op::Read(a, i)),
        (any::<u8>(), any::<u16>(), any::<i64>()).prop_map(|(a, i, v)| Op::KernelWrite(a, i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every value read back equals what the model says; time and the
    /// access counters never decrease.
    #[test]
    fn machine_matches_reference_memory(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut m = Machine::new(platform::intel_pascal());
        // Model: per-allocation value maps.
        let mut live: Vec<(TPtr<i64>, HashMap<usize, i64>)> = Vec::new();
        let mut freed: Vec<TPtr<i64>> = Vec::new();
        let mut last_time = 0.0f64;
        for op in ops {
            match op {
                Op::Alloc(len) => {
                    let p = m.alloc_managed::<i64>(len as usize);
                    live.push((p, HashMap::new()));
                }
                Op::Free(which) => {
                    if !live.is_empty() {
                        let (p, _) = live.remove(which as usize % live.len());
                        m.free(p);
                        freed.push(p);
                    }
                }
                Op::Write(which, idx, v) => {
                    if !live.is_empty() {
                        let sel = which as usize % live.len();
                        let (p, model) = &mut live[sel];
                        let i = idx as usize % p.len;
                        m.st(*p, i, v);
                        model.insert(i, v);
                    }
                }
                Op::KernelWrite(which, idx, v) => {
                    if !live.is_empty() {
                        let sel = which as usize % live.len();
                        let (p, model) = &mut live[sel];
                        let i = idx as usize % p.len;
                        let p = *p;
                        m.launch("w", 1, |_, m| m.st(p, i, v));
                        model.insert(i, v);
                    }
                }
                Op::Read(which, idx) => {
                    if !live.is_empty() {
                        let sel = which as usize % live.len();
                        let (p, model) = &live[sel];
                        let i = idx as usize % p.len;
                        let got = m.ld(*p, i);
                        let want = model.get(&i).copied().unwrap_or(0);
                        prop_assert_eq!(got, want, "mismatch at {:?}[{}]", p, i);
                    }
                }
            }
            let now = m.elapsed_ns();
            prop_assert!(now >= last_time, "time went backwards");
            last_time = now;
        }
        // Freed memory faults on access.
        for p in freed {
            prop_assert!(m.try_read_scalar::<i64>(p.addr).is_err());
        }
        // Counter sanity.
        let s = &m.stats;
        prop_assert_eq!(s.migrations_h2d + s.migrations_d2h, s.migrations());
        prop_assert!(s.allocs >= s.frees);
    }

    /// Kind restrictions hold under random kinds: the host can touch
    /// Managed and Host memory only; the GPU Managed and Device only.
    #[test]
    fn access_paths_respect_allocation_kind(kind_sel in 0u8..3, from_gpu in any::<bool>()) {
        let kind = match kind_sel {
            0 => AllocKind::Managed,
            1 => AllocKind::Device,
            _ => AllocKind::Host,
        };
        let mut m = Machine::new(platform::intel_pascal());
        let base = m.try_malloc(64, kind).unwrap();
        let result = if from_gpu {
            let mut r = Ok(0.0);
            m.launch("probe", 1, |_, m| {
                r = m.try_read_scalar::<f64>(base);
            });
            r
        } else {
            m.try_read_scalar::<f64>(base)
        };
        let should_work = matches!(
            (kind, from_gpu),
            (AllocKind::Managed, _) | (AllocKind::Host, false) | (AllocKind::Device, true)
        );
        prop_assert_eq!(result.is_ok(), should_work, "kind {:?} gpu={}", kind, from_gpu);
    }
}
