//! LULESH 2 proxy: a structurally faithful port of the RAJA/CUDA LULESH
//! configuration the paper analyzes (§II-C, §III-D, §IV-A).
//!
//! What matters for the reproduction is the *data-flow shape*, which this
//! port preserves exactly:
//!
//! * a singleton `Domain` object in managed memory holding pointers to
//!   ~45 dynamically allocated data arrays (also managed) plus scalars;
//! * per timestep, ~30 GPU kernels; before each launch the *CPU* reads
//!   domain fields (the RAJA lambda captures), and inside each kernel the
//!   *GPU* dereferences the same domain object — so the domain page
//!   alternates between processors;
//! * two kernels need temporary storage: the CPU allocates managed
//!   memory, stores the pointer into the domain object (a CPU *write* to
//!   the shared page), launches, and frees afterwards — twice per step;
//! * a time-constraint reduction written by the GPU and read by the CPU
//!   each step;
//! * a disjoint set of CPU-only arrays (the non-MPI version's host work).
//!
//! The five variants are the paper's §IV-A experiments: the unmodified
//! baseline plus the four remedies of Fig. 6.

use hetsim::{Addr, Device, Machine, MemAdvise, TPtr};

use crate::result::RunResult;

/// Which side of the machine uses an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Sized by node count, used by GPU kernels.
    Node,
    /// Sized by element count, used by GPU kernels.
    Elem,
    /// Host-only data (symmetry/region lists).
    Cpu,
}

/// The 45 persistent data arrays of the domain, in field order.
pub const ARRAYS: &[(&str, Space)] = &[
    ("m_x", Space::Node),
    ("m_y", Space::Node),
    ("m_z", Space::Node),
    ("m_xd", Space::Node),
    ("m_yd", Space::Node),
    ("m_zd", Space::Node),
    ("m_xdd", Space::Node),
    ("m_ydd", Space::Node),
    ("m_zdd", Space::Node),
    ("m_fx", Space::Node),
    ("m_fy", Space::Node),
    ("m_fz", Space::Node),
    ("m_nodalMass", Space::Node),
    ("m_e", Space::Elem),
    ("m_p", Space::Elem),
    ("m_q", Space::Elem),
    ("m_ql", Space::Elem),
    ("m_qq", Space::Elem),
    ("m_v", Space::Elem),
    ("m_volo", Space::Elem),
    ("m_vnew", Space::Elem),
    ("m_delv", Space::Elem),
    ("m_vdov", Space::Elem),
    ("m_arealg", Space::Elem),
    ("m_ss", Space::Elem),
    ("m_elemMass", Space::Elem),
    ("m_dxx", Space::Elem),
    ("m_dyy", Space::Elem),
    ("m_dzz", Space::Elem),
    ("m_delv_xi", Space::Elem),
    ("m_delv_eta", Space::Elem),
    ("m_delv_zeta", Space::Elem),
    ("m_delx_xi", Space::Elem),
    ("m_delx_eta", Space::Elem),
    ("m_delx_zeta", Space::Elem),
    ("m_p_old", Space::Elem),
    ("m_q_old", Space::Elem),
    ("m_compression", Space::Elem),
    ("m_compHalfStep", Space::Elem),
    ("m_work", Space::Elem),
    ("m_regElemSize", Space::Cpu),
    ("m_regElemList", Space::Cpu),
    ("m_symmX", Space::Cpu),
    ("m_symmY", Space::Cpu),
    ("m_symmZ", Space::Cpu),
];

/// Domain field indices. Fields are `u64` slots: array pointers first,
/// then temp-storage pointers and scalars, padded to the 3736-byte object
/// size the paper reports for the domain (Fig. 5 caption).
pub const F_TMP0: usize = ARRAYS.len();
pub const F_TMP1: usize = ARRAYS.len() + 1;
pub const F_NUMELEM: usize = ARRAYS.len() + 2;
pub const F_NUMNODE: usize = ARRAYS.len() + 3;
pub const F_TIME: usize = ARRAYS.len() + 4;
pub const F_DT: usize = ARRAYS.len() + 5;
pub const F_CYCLE: usize = ARRAYS.len() + 6;
/// 467 u64 fields = 3736 bytes, matching the paper.
pub const DOM_FIELDS: usize = 467;

/// One GPU kernel of the timestep: which arrays it reads/writes (indices
/// into [`ARRAYS`]) and whether it needs freshly allocated temp storage.
struct KernelSpec {
    name: &'static str,
    reads: [usize; 2],
    write: usize,
    /// `Some(slot)`: the CPU allocates temp memory into domain field
    /// `F_TMP0 + slot` right before this kernel and frees it after.
    temp: Option<usize>,
}

const fn k(name: &'static str, r0: usize, r1: usize, w: usize) -> KernelSpec {
    KernelSpec {
        name,
        reads: [r0, r1],
        write: w,
        temp: None,
    }
}

const fn kt(name: &'static str, r0: usize, r1: usize, w: usize, slot: usize) -> KernelSpec {
    KernelSpec {
        name,
        reads: [r0, r1],
        write: w,
        temp: Some(slot),
    }
}

/// The ~30 kernels of one LULESH timestep, named after the real phases.
/// `CalcVolumeForceForElems` and `CalcFBHourglassForceForElems` are the
/// two kernels that need temporary storage (§II-C).
const KERNELS: &[KernelSpec] = &[
    k("InitStressTermsForElems", 14, 15, 39),
    kt("CalcVolumeForceForElems", 18, 19, 9, 0),
    kt("CalcFBHourglassForceForElems", 12, 9, 10, 1),
    k("SumElemStressesToNodeForces", 9, 10, 11),
    k("CalcForceForNodes", 9, 10, 11),
    k("CalcAccelerationForNodes", 9, 12, 6),
    k("CalcAccelYForNodes", 10, 12, 7),
    k("CalcAccelZForNodes", 11, 12, 8),
    k("CalcVelocityForNodes", 6, 3, 3),
    k("CalcVelYForNodes", 7, 4, 4),
    k("CalcVelZForNodes", 8, 5, 5),
    k("CalcPositionForNodes", 3, 0, 0),
    k("CalcPosYForNodes", 4, 1, 1),
    k("CalcPosZForNodes", 5, 2, 2),
    k("CalcKinematicsForElems", 0, 1, 20),
    k("CalcElemVolumeDerivative", 20, 19, 21),
    k("CalcLagrangeElements", 21, 18, 22),
    k("CalcShapeFunctionDerivs", 2, 20, 23),
    k("CalcMonotonicQGradientsForElems", 29, 30, 31),
    k("CalcMonotonicQGradX", 32, 33, 34),
    k("CalcMonotonicQRegionForElems", 31, 34, 16),
    k("CalcQForElems", 16, 17, 15),
    k("EvalCopyPOld", 14, 13, 35),
    k("EvalCopyQOld", 15, 13, 36),
    k("CalcCompression", 18, 20, 37),
    k("CalcCompressionHalfStep", 37, 21, 38),
    k("CalcEnergyForElems", 35, 36, 13),
    k("CalcPressureForElems", 13, 37, 14),
    k("CalcSoundSpeedForElems", 14, 13, 24),
    k("UpdateVolumesForElems", 20, 22, 18),
];

/// The four remedies of Fig. 6 plus the unmodified baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuleshVariant {
    /// Managed memory without hints: the version that page-faults.
    Baseline,
    /// `cudaMemAdviseSetReadMostly` on the domain object (the paper's
    /// one-line change).
    ReadMostly,
    /// `cudaMemAdviseSetPreferredLocation(cpu)` on the domain object.
    PreferredCpu,
    /// `cudaMemAdviseSetAccessedBy` GPU and CPU on the domain object.
    AccessedBy,
    /// Two identical domain objects, each exclusively accessed by one
    /// processor; temp pointers passed outside the domain object.
    DupDomain,
}

impl LuleshVariant {
    pub const ALL: [LuleshVariant; 5] = [
        LuleshVariant::Baseline,
        LuleshVariant::ReadMostly,
        LuleshVariant::PreferredCpu,
        LuleshVariant::AccessedBy,
        LuleshVariant::DupDomain,
    ];

    pub fn label(self) -> &'static str {
        match self {
            LuleshVariant::Baseline => "baseline",
            LuleshVariant::ReadMostly => "read-mostly",
            LuleshVariant::PreferredCpu => "preferred-cpu",
            LuleshVariant::AccessedBy => "accessed-by",
            LuleshVariant::DupDomain => "dup-domain",
        }
    }
}

/// Problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct LuleshConfig {
    /// Edge length of the cubic mesh (the paper sweeps 8–48, plus 96 for
    /// the overhead table).
    pub size: usize,
    /// Timesteps to run.
    pub steps: usize,
}

impl LuleshConfig {
    pub fn new(size: usize, steps: usize) -> Self {
        LuleshConfig { size, steps }
    }

    /// Number of elements (size³).
    pub fn elems(&self) -> usize {
        self.size * self.size * self.size
    }

    /// Number of nodes ((size+1)³).
    pub fn nodes(&self) -> usize {
        (self.size + 1).pow(3)
    }
}

/// A set-up LULESH problem, ready to step.
pub struct Lulesh {
    pub cfg: LuleshConfig,
    pub variant: LuleshVariant,
    /// The domain object (the CPU's copy under `DupDomain`).
    pub dom: TPtr<u64>,
    /// GPU-side duplicate domain (== `dom` except under `DupDomain`).
    pub dom_gpu: TPtr<u64>,
    /// Data arrays, same order as [`ARRAYS`].
    pub arrays: Vec<TPtr<f64>>,
    /// The GPU-written, CPU-read time-constraint reduction target.
    pub dt_red: TPtr<f64>,
    cycle: usize,
}

impl Lulesh {
    /// Allocate and initialize the problem on `m`.
    pub fn setup(m: &mut Machine, cfg: LuleshConfig, variant: LuleshVariant) -> Self {
        let dom = m.alloc_managed::<u64>(DOM_FIELDS);
        let dom_gpu = if variant == LuleshVariant::DupDomain {
            m.alloc_managed::<u64>(DOM_FIELDS)
        } else {
            dom
        };
        let dt_red = m.alloc_managed::<f64>(2);

        let mut arrays = Vec::with_capacity(ARRAYS.len());
        for &(_, space) in ARRAYS {
            let len = match space {
                Space::Node | Space::Cpu => cfg.nodes(),
                Space::Elem => cfg.elems(),
            };
            arrays.push(m.alloc_managed::<f64>(len));
        }

        // CPU initializes the domain object and all data (the paper's
        // "GPU utilizes data initialized by the CPU" in iteration 1).
        let ptrs: Vec<u64> = arrays.iter().map(|a| a.addr).collect();
        m.st_range(dom, 0, &ptrs);
        m.st(dom, F_TMP0, 0);
        m.st(dom, F_TMP1, 0);
        m.st(dom, F_NUMELEM, cfg.elems() as u64);
        m.st(dom, F_NUMNODE, cfg.nodes() as u64);
        m.st(dom, F_TIME, 0f64.to_bits());
        m.st(dom, F_DT, (1e-7f64).to_bits());
        m.st(dom, F_CYCLE, 0);
        if variant == LuleshVariant::DupDomain {
            let fields = m.ld_range(dom, 0, DOM_FIELDS);
            m.st_range(dom_gpu, 0, &fields);
        }
        for (ai, a) in arrays.iter().enumerate() {
            let vals: Vec<f64> = (0..a.len)
                .map(|i| 1.0 + (ai as f64) * 1e-3 + (i % 97) as f64 * 1e-4)
                .collect();
            m.st_range(*a, 0, &vals);
        }

        // Apply the variant's advice to the shared domain page.
        match variant {
            LuleshVariant::Baseline | LuleshVariant::DupDomain => {}
            LuleshVariant::ReadMostly => m.mem_advise(dom, MemAdvise::SetReadMostly),
            LuleshVariant::PreferredCpu => {
                m.mem_advise(dom, MemAdvise::SetPreferredLocation(Device::Cpu));
            }
            LuleshVariant::AccessedBy => {
                m.mem_advise(dom, MemAdvise::SetAccessedBy(Device::Gpu));
                m.mem_advise(dom, MemAdvise::SetAccessedBy(Device::Cpu));
            }
        }

        Lulesh {
            cfg,
            variant,
            dom,
            dom_gpu,
            arrays,
            dt_red,
            cycle: 0,
        }
    }

    /// `(address, "(dom)->name", elem_size)` descriptions for the tracer —
    /// what the expansion of `#pragma xpl diagnostic trcPrn(cout; domain)`
    /// produces (50 named allocations in the paper's run).
    pub fn names(&self) -> Vec<(Addr, String)> {
        let mut v = vec![(self.dom.addr, "dom".to_string())];
        if self.variant == LuleshVariant::DupDomain {
            v.push((self.dom_gpu.addr, "dom_gpu".to_string()));
        }
        for (i, &(name, _)) in ARRAYS.iter().enumerate() {
            v.push((self.arrays[i].addr, format!("(dom)->{name}")));
        }
        v.push((self.dt_red.addr, "dt_red".to_string()));
        v
    }

    /// Length of the array behind field `fi` (the CPU knows this from the
    /// domain scalars).
    fn field_len(&self, fi: usize) -> usize {
        match ARRAYS[fi].1 {
            Space::Node | Space::Cpu => self.cfg.nodes(),
            Space::Elem => self.cfg.elems(),
        }
    }

    /// Run one timestep.
    pub fn step(&mut self, m: &mut Machine) {
        let dom = self.dom;
        let dom_gpu = self.dom_gpu;
        let pass_temp_outside = self.variant == LuleshVariant::DupDomain;
        let temp_len = (self.cfg.elems() / 8).max(16);

        for spec in KERNELS {
            // --- CPU-side launch setup: the RAJA lambda captures read
            // the domain object on the host.
            let _n_elem = m.ld(dom, F_NUMELEM);
            let _dt = f64::from_bits(m.ld(dom, F_DT));
            let r0 = TPtr::<f64>::new(m.ld(dom, spec.reads[0]), self.field_len(spec.reads[0]));
            let r1 = TPtr::<f64>::new(m.ld(dom, spec.reads[1]), self.field_len(spec.reads[1]));
            let w = TPtr::<f64>::new(m.ld(dom, spec.write), self.field_len(spec.write));

            // --- Temp storage: CPU allocates managed memory and stores
            // the pointer into the (shared!) domain object.
            let temp = spec.temp.map(|slot| {
                let t = m.alloc_managed::<f64>(temp_len);
                if !pass_temp_outside {
                    m.st(dom, F_TMP0 + slot, t.addr);
                }
                (slot, t)
            });

            let n = w.len;
            let fields = [spec.reads[0], spec.reads[1], spec.write];
            let temp_slot = temp.as_ref().map(|(slot, t)| (*slot, *t));
            m.launch(spec.name, n, |i, m| {
                if i == 0 {
                    // The kernel dereferences the domain object on the
                    // GPU (pointer loads, served from L2 afterwards).
                    for f in fields {
                        let _ = m.ld(dom_gpu, f);
                    }
                    if let Some((slot, t)) = temp_slot {
                        if pass_temp_outside {
                            let _ = t; // pointer arrived as a kernel argument
                        } else {
                            let _ = m.ld(dom_gpu, F_TMP0 + slot);
                        }
                    }
                }
                // Hydro kernels gather several neighbours per element.
                let a = m.ld(r0, i % r0.len);
                let a2 = m.ld(r0, (i + 1) % r0.len);
                let b = m.ld(r1, (i + 1) % r1.len);
                let b2 = m.ld(r1, (i + 17) % r1.len);
                let old = m.ld(w, i);
                let mut val = 0.5 * old + 0.2 * a + 0.1 * a2 + 0.15 * b + 0.05 * b2 + 1e-6;
                if let Some((_, t)) = temp_slot {
                    // The temp kernels stage intermediate values.
                    let ti = i % t.len;
                    m.st(t, ti, val);
                    val = m.ld(t, ti) * 0.999;
                }
                m.st(w, i, val);
                m.compute(24);
            });

            // --- Free the temp storage right after the kernel.
            if let Some((slot, t)) = temp {
                m.free(t);
                if !pass_temp_outside {
                    m.st(dom, F_TMP0 + slot, 0);
                }
            }
        }

        // --- Time-constraint reduction: GPU writes, CPU reads.
        let dt_red = self.dt_red;
        let e_ptr = TPtr::<f64>::new(m.ld(dom, 13), self.cfg.elems());
        m.launch(
            "CalcTimeConstraintsForElems",
            64.min(self.cfg.elems()),
            |i, m| {
                let v = m.ld(e_ptr, i);
                m.compute(4);
                if i == 0 {
                    m.st(dt_red, 0, 1e-7 + v * 1e-20);
                    m.st(dt_red, 1, 2e-7 + v * 1e-20);
                }
            },
        );
        let dtcourant = m.ld(dt_red, 0);
        let dthydro = m.ld(dt_red, 1);
        let newdt = dtcourant.min(dthydro);
        m.st(dom, F_DT, newdt.to_bits());
        let t = f64::from_bits(m.ld(dom, F_TIME)) + newdt;
        m.st(dom, F_TIME, t.to_bits());
        m.rmw(dom, F_CYCLE, |c: u64| c + 1);

        // --- Host-side work on the CPU-only arrays (disjoint data set).
        for (fi, &(_, space)) in ARRAYS.iter().enumerate() {
            if space == Space::Cpu {
                let a = self.arrays[fi];
                let stride = 16;
                let mut i = self.cycle % stride;
                while i < a.len {
                    let v = m.ld(a, i);
                    m.st(a, i, v * 1.0000001);
                    i += stride;
                }
            }
        }

        self.cycle += 1;
    }

    /// Run `steps` timesteps, invoking `per_step(step_index, machine)`
    /// after each (where harnesses place their diagnostics, like the
    /// paper's `#pragma xpl diagnostic` at the end of each timestep).
    pub fn run(
        &mut self,
        m: &mut Machine,
        steps: usize,
        mut per_step: impl FnMut(usize, &mut Machine),
    ) {
        for s in 0..steps {
            self.step(m);
            per_step(s, m);
        }
    }

    /// Verification scalar: the "energy" field plus final simulated time.
    /// Identical across variants by construction (uses `peek`, which does
    /// not perturb the trace or the clock).
    pub fn check(&self, m: &mut Machine) -> f64 {
        let e = self.arrays[13];
        let mut sum = 0.0;
        for i in 0..e.len {
            sum += m.peek(e, i);
        }
        sum + f64::from_bits(m.peek(self.dom, F_TIME)) * 1e9
    }
}

/// Set up, run, and summarize one LULESH configuration.
pub fn run_lulesh(m: &mut Machine, cfg: LuleshConfig, variant: LuleshVariant) -> RunResult {
    let mut l = Lulesh::setup(m, cfg, variant);
    // One untimed warmup step: real LULESH runs thousands of steps, so
    // first-touch migration of the data arrays is not part of the
    // steady-state per-step cost the paper's speedups compare.
    l.run(m, 1, |_, _| {});
    m.reset_metrics();
    l.run(m, cfg.steps, |_, _| {});
    let elapsed_ns = m.elapsed_ns();
    let check = l.check(m);
    RunResult {
        name: format!("lulesh/{}", variant.label()),
        elapsed_ns,
        stats: m.stats.clone(),
        check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::platform::{intel_pascal, power9_volta};

    fn small() -> LuleshConfig {
        LuleshConfig::new(4, 3)
    }

    #[test]
    fn config_counts() {
        let c = LuleshConfig::new(8, 1);
        assert_eq!(c.elems(), 512);
        assert_eq!(c.nodes(), 729);
    }

    #[test]
    fn domain_matches_paper_size() {
        assert_eq!(DOM_FIELDS * 8, 3736);
    }

    #[test]
    fn kernel_table_has_thirty_kernels_two_with_temps() {
        assert_eq!(KERNELS.len(), 30);
        assert_eq!(KERNELS.iter().filter(|k| k.temp.is_some()).count(), 2);
    }

    #[test]
    fn all_variants_compute_identical_results() {
        let mut checks = Vec::new();
        for v in LuleshVariant::ALL {
            let mut m = Machine::new(intel_pascal());
            let r = run_lulesh(&mut m, small(), v);
            checks.push(r.check);
        }
        for c in &checks[1..] {
            assert_eq!(*c, checks[0], "variant diverged: {checks:?}");
        }
    }

    #[test]
    fn baseline_ping_pongs_the_domain_on_pcie() {
        let mut m = Machine::new(intel_pascal());
        let r = run_lulesh(&mut m, small(), LuleshVariant::Baseline);
        // Dozens of kernels × steps, each bouncing the domain page.
        assert!(
            r.stats.migrations() > 50,
            "expected ping-pong, got {} migrations",
            r.stats.migrations()
        );
    }

    #[test]
    fn read_mostly_beats_baseline_on_pcie() {
        let mut mb = Machine::new(intel_pascal());
        let base = run_lulesh(&mut mb, small(), LuleshVariant::Baseline);
        let mut mr = Machine::new(intel_pascal());
        let rm = run_lulesh(&mut mr, small(), LuleshVariant::ReadMostly);
        assert!(
            base.elapsed_ns > 1.5 * rm.elapsed_ns,
            "baseline {} vs read-mostly {}",
            base.elapsed_ns,
            rm.elapsed_ns
        );
        assert!(rm.stats.faults() < base.stats.faults());
    }

    #[test]
    fn dup_domain_beats_baseline_on_pcie() {
        let mut mb = Machine::new(intel_pascal());
        let base = run_lulesh(&mut mb, small(), LuleshVariant::Baseline);
        let mut md = Machine::new(intel_pascal());
        let dup = run_lulesh(&mut md, small(), LuleshVariant::DupDomain);
        assert!(base.elapsed_ns > 1.5 * dup.elapsed_ns);
    }

    #[test]
    fn remedies_do_little_on_nvlink() {
        // The paper's IBM+Volta result: duplication ~1.03x, ReadMostly
        // ~0.8x (slower).
        let mut mb = Machine::new(power9_volta());
        let base = run_lulesh(&mut mb, small(), LuleshVariant::Baseline);
        let mut md = Machine::new(power9_volta());
        let dup = run_lulesh(&mut md, small(), LuleshVariant::DupDomain);
        let speedup = base.elapsed_ns / dup.elapsed_ns;
        assert!(
            (0.8..1.4).contains(&speedup),
            "NVLink dup speedup should be marginal, got {speedup:.2}"
        );
    }

    #[test]
    fn names_cover_dom_and_arrays() {
        let mut m = Machine::new(intel_pascal());
        let l = Lulesh::setup(&mut m, small(), LuleshVariant::Baseline);
        let names = l.names();
        assert_eq!(names.len(), 1 + ARRAYS.len() + 1); // dom + arrays + dt_red
        assert!(names.iter().any(|(_, n)| n == "(dom)->m_p"));
    }

    #[test]
    fn step_advances_cycle_and_time() {
        let mut m = Machine::new(intel_pascal());
        let mut l = Lulesh::setup(&mut m, small(), LuleshVariant::Baseline);
        l.step(&mut m);
        l.step(&mut m);
        assert_eq!(m.peek(l.dom, F_CYCLE), 2);
        assert!(f64::from_bits(m.peek(l.dom, F_TIME)) > 0.0);
    }
}
