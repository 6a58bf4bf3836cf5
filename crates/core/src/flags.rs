//! The per-word shadow byte: seven bits of access history (paper §III-C).
//!
//! The paper's runtime stores, per 32-bit word of traced memory, one byte
//! recording which processor wrote, which processor last wrote, and which
//! reader/origin combinations occurred. The four read bits correspond
//! exactly to the `C>C  C>G  G>C  G>G` columns of the diagnostic output
//! (Fig. 4), where the notation is *writer* `>` *reader*.

use hetsim::Device;

/// Shadow flags for one 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessFlags(pub u8);

impl AccessFlags {
    /// The CPU wrote this word.
    pub const CPU_WROTE: u8 = 1 << 0;
    /// A GPU wrote this word.
    pub const GPU_WROTE: u8 = 1 << 1;
    /// The most recent write came from a GPU (meaningful only if a write
    /// bit is set; 0 otherwise).
    pub const LAST_WRITER_GPU: u8 = 1 << 2;
    /// CPU-written value was read by the CPU (`C>C`).
    pub const R_CC: u8 = 1 << 3;
    /// CPU-written value was read by a GPU (`C>G`).
    pub const R_CG: u8 = 1 << 4;
    /// GPU-written value was read by the CPU (`G>C`).
    pub const R_GC: u8 = 1 << 5;
    /// GPU-written value was read by a GPU (`G>G`).
    pub const R_GG: u8 = 1 << 6;

    /// All seven meaningful bits.
    pub const ALL: u8 = 0x7F;

    /// Fresh, untouched word.
    pub fn new() -> Self {
        AccessFlags(0)
    }

    #[inline]
    pub fn get(self, bit: u8) -> bool {
        self.0 & bit != 0
    }

    /// Record a write by `dev`.
    #[inline]
    pub fn record_write(&mut self, dev: Device) {
        match dev {
            Device::Cpu => {
                self.0 |= Self::CPU_WROTE;
                self.0 &= !Self::LAST_WRITER_GPU;
            }
            Device::Gpu => {
                self.0 |= Self::GPU_WROTE | Self::LAST_WRITER_GPU;
            }
        }
    }

    /// Record a read by `dev`. The value's origin is the last writer; a
    /// never-written word reads its allocation-time contents, which the
    /// host populated, so its origin counts as CPU.
    #[inline]
    pub fn record_read(&mut self, dev: Device) {
        let origin_gpu = self.get(Self::LAST_WRITER_GPU);
        let bit = match (origin_gpu, dev) {
            (false, Device::Cpu) => Self::R_CC,
            (false, Device::Gpu) => Self::R_CG,
            (true, Device::Cpu) => Self::R_GC,
            (true, Device::Gpu) => Self::R_GG,
        };
        self.0 |= bit;
    }

    /// Whether a read by `dev` would change nothing: the read bit for
    /// the current origin/reader pair is already set. Used by the bulk
    /// tracer to skip spans whose flags are saturated.
    #[inline]
    pub fn read_saturated(self, dev: Device) -> bool {
        let origin_gpu = self.get(Self::LAST_WRITER_GPU);
        let bit = match (origin_gpu, dev) {
            (false, Device::Cpu) => Self::R_CC,
            (false, Device::Gpu) => Self::R_CG,
            (true, Device::Cpu) => Self::R_GC,
            (true, Device::Gpu) => Self::R_GG,
        };
        self.get(bit)
    }

    /// Whether a write by `dev` would change nothing: `dev`'s side wrote
    /// before and is still the last writer.
    #[inline]
    pub fn write_saturated(self, dev: Device) -> bool {
        match dev {
            Device::Cpu => self.get(Self::CPU_WROTE) && !self.get(Self::LAST_WRITER_GPU),
            Device::Gpu => self.get(Self::GPU_WROTE) && self.get(Self::LAST_WRITER_GPU),
        }
    }

    /// Whether a read-then-write by `dev` would change nothing.
    #[inline]
    pub fn rw_saturated(self, dev: Device) -> bool {
        self.write_saturated(dev) && self.read_saturated(dev)
    }

    /// Whether the word was accessed at all this epoch. The last-writer
    /// bit does not count: it may be carried over from an earlier epoch
    /// (see [`reset_epoch`](Self::reset_epoch)).
    #[inline]
    pub fn touched(self) -> bool {
        self.0 & !Self::LAST_WRITER_GPU != 0
    }

    /// Whether the CPU accessed the word (read or write).
    #[inline]
    pub fn cpu_accessed(self) -> bool {
        self.0 & (Self::CPU_WROTE | Self::R_CC | Self::R_GC) != 0
    }

    /// Whether a GPU accessed the word (read or write).
    #[inline]
    pub fn gpu_accessed(self) -> bool {
        self.0 & (Self::GPU_WROTE | Self::R_CG | Self::R_GG) != 0
    }

    /// Whether any processor wrote the word.
    #[inline]
    pub fn written(self) -> bool {
        self.0 & (Self::CPU_WROTE | Self::GPU_WROTE) != 0
    }

    /// Whether a GPU read or wrote the word — the "did the GPU consume the
    /// transfer" predicate of the unnecessary-transfer detector.
    #[inline]
    pub fn gpu_touched(self) -> bool {
        self.gpu_accessed()
    }

    /// The alternating-access anti-pattern predicate (paper §III-C):
    /// both processors accessed the word and at least one access was a
    /// write.
    #[inline]
    pub fn alternating(self) -> bool {
        self.cpu_accessed() && self.gpu_accessed() && self.written()
    }

    /// Reset for a new diagnostic epoch. Per-epoch access bits are
    /// cleared, but the last-writer bit survives: the paper defines a
    /// read's origin as "the last write to that address regardless if it
    /// occurred in the same iteration or earlier (e.g., at start up)"
    /// (§III-D).
    #[inline]
    pub fn reset_epoch(&mut self) {
        self.0 &= Self::LAST_WRITER_GPU;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPU: Device = Device::Gpu;

    #[test]
    fn write_sets_writer_and_last_writer() {
        let mut f = AccessFlags::new();
        f.record_write(Device::Cpu);
        assert!(f.get(AccessFlags::CPU_WROTE));
        assert!(!f.get(AccessFlags::LAST_WRITER_GPU));
        f.record_write(GPU);
        assert!(f.get(AccessFlags::GPU_WROTE));
        assert!(f.get(AccessFlags::LAST_WRITER_GPU));
        // CPU write flips last-writer back without erasing GPU_WROTE.
        f.record_write(Device::Cpu);
        assert!(f.get(AccessFlags::GPU_WROTE));
        assert!(!f.get(AccessFlags::LAST_WRITER_GPU));
    }

    #[test]
    fn read_categories_follow_writer_then_reader() {
        // C>G: CPU writes, GPU reads.
        let mut f = AccessFlags::new();
        f.record_write(Device::Cpu);
        f.record_read(GPU);
        assert!(f.get(AccessFlags::R_CG));
        assert!(!f.get(AccessFlags::R_GG));

        // G>C: GPU writes, CPU reads.
        let mut f = AccessFlags::new();
        f.record_write(GPU);
        f.record_read(Device::Cpu);
        assert!(f.get(AccessFlags::R_GC));
        assert!(!f.get(AccessFlags::R_CC));
    }

    #[test]
    fn unwritten_read_counts_as_cpu_origin() {
        let mut f = AccessFlags::new();
        f.record_read(GPU);
        assert!(f.get(AccessFlags::R_CG));
        let mut f = AccessFlags::new();
        f.record_read(Device::Cpu);
        assert!(f.get(AccessFlags::R_CC));
    }

    #[test]
    fn origin_tracks_most_recent_writer() {
        let mut f = AccessFlags::new();
        f.record_write(GPU);
        f.record_write(Device::Cpu);
        f.record_read(GPU);
        // Last writer was the CPU, so this is C>G even though the GPU also
        // wrote earlier.
        assert!(f.get(AccessFlags::R_CG));
        assert!(!f.get(AccessFlags::R_GG));
    }

    #[test]
    fn alternating_requires_both_sides_and_a_write() {
        // Read-only sharing is not alternating.
        let mut f = AccessFlags::new();
        f.record_read(Device::Cpu);
        f.record_read(GPU);
        assert!(!f.alternating());

        // CPU write + GPU read is alternating.
        let mut f = AccessFlags::new();
        f.record_write(Device::Cpu);
        f.record_read(GPU);
        assert!(f.alternating());

        // GPU-only traffic is not alternating.
        let mut f = AccessFlags::new();
        f.record_write(GPU);
        f.record_read(GPU);
        assert!(!f.alternating());
    }

    #[test]
    fn accessed_predicates() {
        let mut f = AccessFlags::new();
        assert!(!f.touched());
        f.record_write(GPU);
        assert!(f.touched());
        assert!(f.gpu_accessed());
        assert!(!f.cpu_accessed());
        f.record_read(Device::Cpu);
        assert!(f.cpu_accessed());
    }

    #[test]
    fn reset_epoch_preserves_origin_only() {
        let mut f = AccessFlags::new();
        f.record_write(GPU);
        f.record_read(Device::Cpu);
        f.reset_epoch();
        assert!(!f.touched());
        // A read in the new epoch still sees GPU origin: G>C.
        f.record_read(Device::Cpu);
        assert!(f.get(AccessFlags::R_GC));
        assert!(!f.get(AccessFlags::R_CC));

        let mut f = AccessFlags::new();
        f.record_write(Device::Cpu);
        f.reset_epoch();
        f.record_read(GPU);
        assert!(f.get(AccessFlags::R_CG));
    }

    #[test]
    fn fits_in_seven_bits() {
        let mut f = AccessFlags::new();
        f.record_write(Device::Cpu);
        f.record_write(GPU);
        f.record_read(Device::Cpu);
        f.record_read(GPU);
        f.record_write(Device::Cpu);
        f.record_read(Device::Cpu);
        f.record_read(GPU);
        assert_eq!(f.0 & !AccessFlags::ALL, 0);
    }
}
