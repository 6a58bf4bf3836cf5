//! Common result type returned by every workload run.

use hetsim::Stats;

/// Outcome of one workload execution on the simulator.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload + variant label, e.g. `lulesh/baseline`.
    pub name: String,
    /// Simulated wall time in nanoseconds.
    pub elapsed_ns: f64,
    /// Simulator counters accumulated over the run.
    pub stats: Stats,
    /// Verification scalar (energy / score / checksum). Equal across
    /// variants of the same workload and configuration.
    pub check: f64,
}

impl RunResult {
    /// Simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed_ns * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let r = RunResult {
            name: "x".into(),
            elapsed_ns: 2_500_000.0,
            stats: Stats::default(),
            check: 0.0,
        };
        assert!((r.seconds() - 0.0025).abs() < 1e-12);
    }
}
