//! Access maps: the per-word bitmaps behind the paper's Figs. 5, 7, 8
//! and 10 (graphical representations of which words each processor read
//! or wrote), rendered as ASCII grids or CSV.

use crate::flags::AccessFlags;
use crate::smt::SmtEntry;

/// Which access relation to map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Words the CPU wrote.
    CpuWrite,
    /// Words the CPU read (either origin).
    CpuRead,
    /// Words a GPU wrote.
    GpuWrite,
    /// Words a GPU read (either origin).
    GpuRead,
    /// Words the GPU read whose value came from the CPU (`C>G`) — the
    /// overlap maps of Fig. 5e/5f and Fig. 10.
    GpuReadsCpuWrites,
    /// Words the CPU read whose value came from the GPU (`G>C`).
    CpuReadsGpuWrites,
    /// Words matching the alternating anti-pattern.
    Alternating,
    /// Words touched by anything.
    AnyAccess,
}

impl MapKind {
    /// Title used above rendered maps.
    pub fn title(self) -> &'static str {
        match self {
            MapKind::CpuWrite => "CPU writes",
            MapKind::CpuRead => "CPU reads",
            MapKind::GpuWrite => "GPU writes",
            MapKind::GpuRead => "GPU reads",
            MapKind::GpuReadsCpuWrites => "GPU reads of CPU writes",
            MapKind::CpuReadsGpuWrites => "CPU reads of GPU writes",
            MapKind::Alternating => "alternating accesses",
            MapKind::AnyAccess => "any access",
        }
    }

    #[inline]
    fn matches(self, w: AccessFlags) -> bool {
        match self {
            MapKind::CpuWrite => w.get(AccessFlags::CPU_WROTE),
            MapKind::CpuRead => w.get(AccessFlags::R_CC) || w.get(AccessFlags::R_GC),
            MapKind::GpuWrite => w.get(AccessFlags::GPU_WROTE),
            MapKind::GpuRead => w.get(AccessFlags::R_CG) || w.get(AccessFlags::R_GG),
            MapKind::GpuReadsCpuWrites => w.get(AccessFlags::R_CG),
            MapKind::CpuReadsGpuWrites => w.get(AccessFlags::R_GC),
            MapKind::Alternating => w.alternating(),
            MapKind::AnyAccess => w.touched(),
        }
    }
}

/// Extract the bitmap of `kind` for allocation `e` (one bool per 32-bit
/// word).
pub fn extract(e: &SmtEntry, kind: MapKind) -> Vec<bool> {
    e.shadow.iter().map(|&w| kind.matches(w)).collect()
}

/// Intersection of two maps (e.g. "GPU accesses overlapping CPU writes").
pub fn overlap(a: &[bool], b: &[bool]) -> Vec<bool> {
    assert_eq!(a.len(), b.len(), "overlapping maps of different lengths");
    a.iter().zip(b).map(|(&x, &y)| x && y).collect()
}

/// Fraction of set bits.
pub fn fill_ratio(bits: &[bool]) -> f64 {
    if bits.is_empty() {
        return 0.0;
    }
    bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
}

/// Render a bitmap as rows of `width` characters: `#` for touched, `.`
/// for untouched.
pub fn render_ascii(bits: &[bool], width: usize) -> String {
    assert!(width > 0);
    let mut out = String::with_capacity(bits.len() + bits.len() / width + 1);
    for row in bits.chunks(width) {
        for &b in row {
            out.push(if b { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

/// Render a bitmap that represents a row-major `rows x cols` matrix, one
/// matrix row per line. Each *element* may span several words (e.g. an
/// f64 element is two 32-bit words); `words_per_elem` collapses them (an
/// element is set if any of its words is).
pub fn render_matrix(bits: &[bool], rows: usize, cols: usize, words_per_elem: usize) -> String {
    assert!(words_per_elem > 0);
    let mut out = String::new();
    for r in 0..rows {
        for c in 0..cols {
            let w0 = (r * cols + c) * words_per_elem;
            let set = (w0..w0 + words_per_elem).any(|w| bits.get(w).copied().unwrap_or(false));
            out.push(if set { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

/// Render a bitmap as a portable bitmap image (PBM P1, one pixel per
/// word) — the image form of the paper's Figs. 5/7/8/10. Viewable with
/// any image tool or convertible with `magick map.pbm map.png`.
pub fn to_pbm(bits: &[bool], width: usize) -> String {
    assert!(width > 0);
    let height = bits.len().div_ceil(width);
    let mut out = format!(
        "P1
# XPlacer access map
{width} {height}
"
    );
    for row in 0..height {
        for col in 0..width {
            let idx = row * width + col;
            let b = bits.get(idx).copied().unwrap_or(false);
            out.push(if b { '1' } else { '0' });
            out.push(if col + 1 == width { '\n' } else { ' ' });
        }
    }
    out
}

/// One CSV line per word: `index,0|1`.
pub fn to_csv(bits: &[bool]) -> String {
    let mut out = String::from("word,accessed\n");
    for (i, &b) in bits.iter().enumerate() {
        out.push_str(&format!("{},{}\n", i, b as u8));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use hetsim::{AllocKind, Device};

    const GPU: Device = Device::GPU0;

    fn traced() -> Tracer {
        let mut t = Tracer::new();
        t.trace_alloc(0x10_0000, 64, AllocKind::Managed); // 16 words
        t.trace_w(Device::Cpu, 0x10_0000, 16); // words 0..3
        t.trace_r(GPU, 0x10_0008, 8); // words 2..3: C>G
        t.trace_w(GPU, 0x10_0020, 8); // words 8..9
        t
    }

    #[test]
    fn extract_matches_semantics() {
        let t = traced();
        let e = t.smt.lookup(0x10_0000).unwrap();
        let cw = extract(e, MapKind::CpuWrite);
        assert_eq!(&cw[..5], &[true, true, true, true, false]);
        let gr = extract(e, MapKind::GpuRead);
        assert_eq!(&gr[..5], &[false, false, true, true, false]);
        let gw = extract(e, MapKind::GpuWrite);
        assert!(gw[8] && gw[9] && !gw[7]);
        let alt = extract(e, MapKind::Alternating);
        assert_eq!(alt.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn overlap_is_intersection() {
        let t = traced();
        let e = t.smt.lookup(0x10_0000).unwrap();
        let o = overlap(
            &extract(e, MapKind::CpuWrite),
            &extract(e, MapKind::GpuRead),
        );
        assert_eq!(o, extract(e, MapKind::GpuReadsCpuWrites));
    }

    #[test]
    fn ascii_rendering_shape() {
        let bits = vec![true, false, true, false, true, false];
        let s = render_ascii(&bits, 3);
        assert_eq!(s, "#.#\n.#.\n"); // 2 rows of 3
        assert_eq!(s.lines().count(), 2);
        assert_eq!(s.lines().next().unwrap(), "#.#");
    }

    #[test]
    fn matrix_rendering_collapses_words_per_element() {
        // 2x2 matrix of f64 (2 words each): element (0,0) and (1,1) set.
        let mut bits = vec![false; 8];
        bits[1] = true; // second word of element 0
        bits[6] = true; // first word of element 3
        let s = render_matrix(&bits, 2, 2, 2);
        assert_eq!(s, "#.\n.#\n");
    }

    #[test]
    fn fill_ratio_counts() {
        assert_eq!(fill_ratio(&[]), 0.0);
        assert_eq!(fill_ratio(&[true, false, true, false]), 0.5);
    }

    #[test]
    fn pbm_is_well_formed() {
        let bits = vec![true, false, true, false, true];
        let pbm = to_pbm(&bits, 2);
        let mut lines = pbm.lines();
        assert_eq!(lines.next(), Some("P1"));
        assert!(lines.next().unwrap().starts_with('#'));
        assert_eq!(lines.next(), Some("2 3"));
        assert_eq!(lines.next(), Some("1 0"));
        assert_eq!(lines.next(), Some("1 0"));
        // Final row padded with zeros.
        assert_eq!(lines.next(), Some("1 0"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_rows() {
        let s = to_csv(&[true, false]);
        assert_eq!(s, "word,accessed\n0,1\n1,0\n");
    }

    #[test]
    fn titles_exist_for_all_kinds() {
        for k in [
            MapKind::CpuWrite,
            MapKind::CpuRead,
            MapKind::GpuWrite,
            MapKind::GpuRead,
            MapKind::GpuReadsCpuWrites,
            MapKind::CpuReadsGpuWrites,
            MapKind::Alternating,
            MapKind::AnyAccess,
        ] {
            assert!(!k.title().is_empty());
        }
    }
}
