//! DRAM contents: the MCU's high-level uncore state (Table 1).

use nestsim_proto::addr::{LineAddr, PAddr, LINE_BYTES};

/// Words (u64) per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / 8) as usize;

use crate::paged::PagedMap;

// nestlint: allow(no-nondeterminism) -- audited: overlay line maps are
// accessed point-wise by line address; the only iterations are
// diff_lines (sorts keys first) and apply_to (one independent write per
// key, order commutes), so hash order never reaches results.
type LineMap = std::collections::HashMap<u64, [u64; WORDS_PER_LINE]>;

/// Sparse main-memory contents, line-granular.
///
/// The paper models 4 GB of DRAM per controller; applications touch only
/// megabytes, so contents are stored sparsely. Unbacked lines read as
/// zero (the modeled DRAM is initialized to zero at "boot").
///
/// Lines live in copy-on-write pages ([`PagedMap`]): cloning — every
/// snapshot-ladder rung and injection restore — copies page pointers,
/// and a write copies only the page it lands in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramContents {
    lines: PagedMap<[u64; WORDS_PER_LINE]>,
}

impl DramContents {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        DramContents::default()
    }

    /// Reads a full cache line.
    pub fn read_line(&self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        self.lines.get(line.raw()).unwrap_or([0; WORDS_PER_LINE])
    }

    /// Writes a full cache line.
    pub fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        if data == [0; WORDS_PER_LINE] {
            // Keep the map sparse: an all-zero line equals unbacked.
            self.lines.remove(line.raw());
        } else {
            self.lines.insert(line.raw(), data);
        }
    }

    /// Reads the aligned 8-byte word containing `addr`.
    pub fn read_word(&self, addr: PAddr) -> u64 {
        let line = self.read_line(addr.line());
        line[(addr.line_offset() / 8) as usize]
    }

    /// Writes the aligned 8-byte word containing `addr`.
    pub fn write_word(&mut self, addr: PAddr, value: u64) {
        let la = addr.line();
        let mut line = self.read_line(la);
        line[(addr.line_offset() / 8) as usize] = value;
        self.write_line(la, line);
    }

    /// Number of backed (non-zero) lines.
    pub fn backed_lines(&self) -> usize {
        self.lines.len()
    }
}

/// A copy-on-write overlay over base DRAM contents.
///
/// During co-simulation, both the *target* (error-injected) and the
/// *golden* component write through their own overlays over the shared
/// base memory. Diffing the two overlays at the end of co-simulation
/// yields exactly the set of memory lines the soft error corrupted —
/// the quantity Sec. 5.2's rollback-distance analysis is built on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramOverlay {
    writes: LineMap,
}

impl DramOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        DramOverlay::default()
    }

    /// Reads a line, preferring overlay contents over `base`.
    pub fn read_line(&self, base: &DramContents, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        self.writes
            .get(&line.raw())
            .copied()
            .unwrap_or_else(|| base.read_line(line))
    }

    /// Writes a line into the overlay (base is untouched).
    pub fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        self.writes.insert(line.raw(), data);
    }

    /// Number of lines written through this overlay.
    pub fn written_lines(&self) -> usize {
        self.writes.len()
    }

    /// Lines whose effective contents differ between `self` and `other`
    /// (both over the same `base`).
    pub fn diff_lines(&self, other: &DramOverlay, base: &DramContents) -> Vec<LineAddr> {
        let mut keys: Vec<u64> = self
            .writes
            .keys() // nestlint: allow(determinism-taint) -- sorted and deduped below, hasher order washes out
            .chain(other.writes.keys()) // nestlint: allow(determinism-taint) -- sorted and deduped below, hasher order washes out
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .filter(|&k| {
                self.read_line(base, LineAddr::new(k)) != other.read_line(base, LineAddr::new(k))
            })
            .map(LineAddr::new)
            .collect()
    }

    /// Applies all overlay writes to `base` (end-of-co-simulation state
    /// transfer back to the high-level model, Fig. 2 step 10).
    pub fn apply_to(&self, base: &mut DramContents) {
        // nestlint: allow(determinism-taint) -- one write per distinct line key, so application order cannot change the final contents
        for (&k, &v) in &self.writes {
            base.write_line(LineAddr::new(k), v);
        }
    }
}

/// A line-granular memory backend.
///
/// Abstracts "where fills come from and writebacks go to" so the same
/// architectural cache code serves both the accelerated mode (backed by
/// [`DramContents`] directly) and co-simulation (backed by a
/// [`DramOverlay`] so golden/target writes stay separable).
pub trait LineBackend {
    /// Reads a full line.
    fn read_line(&mut self, line: LineAddr) -> [u64; WORDS_PER_LINE];
    /// Writes a full line.
    fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]);
}

impl LineBackend for DramContents {
    fn read_line(&mut self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        DramContents::read_line(self, line)
    }
    fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        DramContents::write_line(self, line, data)
    }
}

/// Borrowed (base, overlay) pair implementing [`LineBackend`]: reads see
/// base-plus-overlay, writes land in the overlay only.
#[derive(Debug)]
pub struct OverlayBackend<'a> {
    base: &'a DramContents,
    overlay: &'a mut DramOverlay,
}

impl<'a> OverlayBackend<'a> {
    /// Creates a backend over `base` writing through `overlay`.
    pub fn new(base: &'a DramContents, overlay: &'a mut DramOverlay) -> Self {
        OverlayBackend { base, overlay }
    }
}

impl LineBackend for OverlayBackend<'_> {
    fn read_line(&mut self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        self.overlay.read_line(self.base, line)
    }
    fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        self.overlay.write_line(line, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbacked_reads_zero() {
        let m = DramContents::new();
        assert_eq!(m.read_word(PAddr::new(0xdead_b000)), 0);
        assert_eq!(m.read_line(LineAddr::new(77)), [0; WORDS_PER_LINE]);
    }

    #[test]
    fn word_read_write_round_trip() {
        let mut m = DramContents::new();
        m.write_word(PAddr::new(0x100), 7);
        m.write_word(PAddr::new(0x108), 8);
        assert_eq!(m.read_word(PAddr::new(0x100)), 7);
        assert_eq!(m.read_word(PAddr::new(0x108)), 8);
        // Same line.
        assert_eq!(m.backed_lines(), 1);
    }

    #[test]
    fn zero_line_stays_sparse() {
        let mut m = DramContents::new();
        m.write_word(PAddr::new(0x100), 7);
        m.write_word(PAddr::new(0x100), 0);
        assert_eq!(m.backed_lines(), 0);
    }

    #[test]
    fn overlay_shadows_base() {
        let mut base = DramContents::new();
        base.write_word(PAddr::new(0x40), 1);
        let mut ov = DramOverlay::new();
        assert_eq!(ov.read_line(&base, LineAddr::new(1))[0], 1);
        ov.write_line(LineAddr::new(1), [9; WORDS_PER_LINE]);
        assert_eq!(ov.read_line(&base, LineAddr::new(1))[0], 9);
        assert_eq!(base.read_word(PAddr::new(0x40)), 1); // base untouched
    }

    #[test]
    fn overlay_diff_finds_corruption() {
        let base = DramContents::new();
        let mut t = DramOverlay::new();
        let mut g = DramOverlay::new();
        // Same write → no diff.
        t.write_line(LineAddr::new(5), [1; WORDS_PER_LINE]);
        g.write_line(LineAddr::new(5), [1; WORDS_PER_LINE]);
        // Corrupted write by the target only.
        t.write_line(LineAddr::new(9), [2; WORDS_PER_LINE]);
        let d = t.diff_lines(&g, &base);
        assert_eq!(d, vec![LineAddr::new(9)]);
    }

    #[test]
    fn overlay_apply_merges() {
        let mut base = DramContents::new();
        let mut ov = DramOverlay::new();
        ov.write_line(LineAddr::new(3), [4; WORDS_PER_LINE]);
        ov.apply_to(&mut base);
        assert_eq!(base.read_line(LineAddr::new(3)), [4; WORDS_PER_LINE]);
    }

    #[test]
    fn overlay_golden_write_missing_in_target_is_diff() {
        let base = DramContents::new();
        let t = DramOverlay::new();
        let mut g = DramOverlay::new();
        g.write_line(LineAddr::new(2), [5; WORDS_PER_LINE]);
        // Target dropped a write the golden performed → divergence.
        assert_eq!(t.diff_lines(&g, &base), vec![LineAddr::new(2)]);
    }
}
