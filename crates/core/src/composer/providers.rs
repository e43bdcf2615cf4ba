//! Generated history providers (paper Section IV-B3).
//!
//! The composer generates a *global* history provider (a speculatively
//! updated shift register whose snapshots are stored in the history file
//! for repair) and a *local* history provider (a PC-indexed table of
//! per-address histories, speculatively updated and repaired by the
//! forwards-walk mechanism).

use crate::types::StorageReport;
use cobra_sim::{
    bits, ContainerError, HistoryRegister, HistorySnapshot, PortKind, Snapshot, SramModel,
    StateReader, StateWriter,
};

/// The speculative global-history register.
///
/// Updated with the predicted directions of in-flight branches; repaired by
/// restoring a snapshot stored in the history file ("our initial simple
/// implementation corrects mispredictions by storing snapshots of the
/// global history register in the history files").
#[derive(Debug, Clone)]
pub struct GlobalHistoryProvider {
    spec: HistoryRegister,
}

impl GlobalHistoryProvider {
    /// Creates a provider with a `width`-bit register.
    pub fn new(width: u32) -> Self {
        Self {
            spec: HistoryRegister::new(width.max(1)),
        }
    }

    /// The current speculative history (what a query reads at Fetch-1).
    pub fn current(&self) -> &HistoryRegister {
        &self.spec
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.spec.width()
    }

    /// Takes a snapshot for the history file.
    pub fn snapshot(&self) -> HistorySnapshot {
        self.spec.snapshot()
    }

    /// Takes a snapshot into `out`, reusing its buffer when possible (see
    /// [`HistoryRegister::snapshot_into`](cobra_sim::HistoryRegister::snapshot_into)).
    pub fn snapshot_into(&self, out: &mut HistorySnapshot) {
        self.spec.snapshot_into(out);
    }

    /// Speculatively pushes predicted branch outcomes (oldest first).
    pub fn speculate(&mut self, outcomes: impl IntoIterator<Item = bool>) {
        self.spec.push_all(outcomes);
    }

    /// Restores a snapshot (repair), then pushes corrected outcomes.
    pub fn rewind_to(&mut self, snap: &HistorySnapshot, corrected: impl IntoIterator<Item = bool>) {
        self.spec.restore(snap);
        self.spec.push_all(corrected);
    }

    /// Clears all history (machine reset).
    pub fn reset(&mut self) {
        self.spec.clear();
    }

    /// Storage declaration: the register itself plus one snapshot port's
    /// worth of wiring (snapshot *storage* is accounted to the history
    /// file, which holds the copies).
    pub fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_flops(self.spec.width() as u64);
        r
    }
}

impl Snapshot for GlobalHistoryProvider {
    fn save_state(&self, w: &mut StateWriter) {
        self.spec.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.spec.load_state(r)
    }
}

/// The PC-indexed local-history provider.
///
/// Each entry is a per-address history of the last `bits` outcomes of
/// branches mapping to it. Entries are speculatively updated when a packet
/// is accepted and restored (from the pre-update value stored in the
/// history file) when that packet squashes — the provider's share of the
/// forwards-walk repair mechanism.
#[derive(Debug)]
pub struct LocalHistoryProvider {
    table: SramModel<u64>,
    bits: u32,
}

impl LocalHistoryProvider {
    /// Creates a provider with `entries` histories of `bits` bits each.
    ///
    /// A `bits` of zero builds a disabled provider that reads as zero and
    /// ignores updates (for designs without local components).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, or `bits > 64`.
    pub fn new(entries: u64, bits: u32) -> Self {
        assert!(
            cobra_sim::bits::is_pow2(entries),
            "entries must be a power of two"
        );
        assert!(bits <= 64, "local history limited to 64 bits");
        Self {
            table: SramModel::new(entries, bits as u64, PortKind::DualPort, 0u64),
            bits,
        }
    }

    /// `true` when the provider stores no history (disabled).
    pub fn is_disabled(&self) -> bool {
        self.bits == 0
    }

    /// History bits per entry.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of entries.
    pub fn entries(&self) -> u64 {
        self.table.len()
    }

    fn index(&self, pc: u64) -> u64 {
        bits::mix64(pc >> 1) & bits::mask(bits::clog2(self.table.len()))
    }

    /// Reads the local history for a fetch PC (at Fetch-1).
    pub fn read(&mut self, cycle: u64, pc: u64) -> u64 {
        if self.is_disabled() {
            return 0;
        }
        self.table.begin_cycle(cycle);
        *self.table.read(self.index(pc))
    }

    /// Speculatively shifts `outcomes` (oldest first) into the history for
    /// `pc`, returning the pre-update value for the history file.
    pub fn speculate(&mut self, pc: u64, outcomes: impl IntoIterator<Item = bool>) -> u64 {
        if self.is_disabled() {
            return 0;
        }
        let idx = self.index(pc);
        let old = *self.table.peek(idx);
        let mut h = old;
        for t in outcomes {
            h = ((h << 1) | t as u64) & bits::mask(self.bits);
        }
        self.table.begin_cycle(0);
        self.table.write(idx, h);
        old
    }

    /// Restores the pre-update value saved by [`speculate`](Self::speculate)
    /// (squash repair), optionally re-applying corrected outcomes.
    pub fn repair(&mut self, pc: u64, old: u64, corrected: impl IntoIterator<Item = bool>) {
        if self.is_disabled() {
            return;
        }
        let idx = self.index(pc);
        let mut h = old;
        for t in corrected {
            h = ((h << 1) | t as u64) & bits::mask(self.bits);
        }
        self.table.poke(idx, h);
    }

    /// Storage declaration — "the local history provider generates a large
    /// PC-indexed table of histories" that Fig 8 charges to Meta.
    pub fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        if !self.is_disabled() {
            r.add_sram("local-history-table", self.table.spec());
        }
        r
    }
}

impl Snapshot for LocalHistoryProvider {
    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w, |w, &h| w.write_u64(h));
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        let mask = bits::mask(self.bits);
        self.table.load_state(r, |r| {
            let h = r.read_u64("local history")?;
            if h & !mask != 0 {
                return Err(ContainerError::BadValue {
                    what: "local history",
                    got: h,
                });
            }
            Ok(h)
        })
    }
}

/// The path-history provider — the history-provider variant the paper
/// notes "can also be implemented" (Section IV-B3, citing Nair's
/// path-based correlation).
///
/// Maintains a hash of the targets of recent taken control-flow
/// redirections. Components receive it through
/// [`HistoryView::phist`](crate::HistoryView); repair uses per-packet
/// snapshots exactly like the global history register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHistoryProvider {
    value: u64,
    bits: u32,
}

impl PathHistoryProvider {
    /// Creates a provider folding targets into `bits` bits (≤ 48).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 48`.
    pub fn new(bits: u32) -> Self {
        assert!(bits <= 48, "path history limited to 48 bits");
        Self { value: 0, bits }
    }

    /// The current speculative path history.
    pub fn current(&self) -> u64 {
        self.value
    }

    /// Pushes the target of a taken redirection.
    pub fn speculate(&mut self, target: u64) {
        if self.bits == 0 {
            return;
        }
        self.value =
            ((self.value << 3) ^ cobra_sim::bits::mix64(target >> 1)) & bits::mask(self.bits);
    }

    /// Restores a snapshot (a plain copy of [`current`](Self::current)).
    pub fn restore(&mut self, snapshot: u64) {
        self.value = snapshot & bits::mask(self.bits.clamp(1, 48));
    }

    /// Register width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Storage declaration (a small register).
    pub fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_flops(self.bits as u64);
        r
    }
}

impl Snapshot for PathHistoryProvider {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.value);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        let v = r.read_u64("path history")?;
        if v & !bits::mask(self.bits) != 0 {
            return Err(ContainerError::BadValue {
                what: "path history",
                got: v,
            });
        }
        self.value = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghist_speculate_and_rewind() {
        let mut g = GlobalHistoryProvider::new(16);
        g.speculate([true, false]);
        let snap = g.snapshot();
        g.speculate([true, true, true]);
        assert_eq!(g.current().low_bits(3), 0b111);
        g.rewind_to(&snap, [false]);
        // Register now holds (newest first): false, false, true.
        assert_eq!(g.current().low_bits(3), 0b100);
    }

    #[test]
    fn ghist_reset_clears() {
        let mut g = GlobalHistoryProvider::new(8);
        g.speculate([true; 8]);
        g.reset();
        assert_eq!(g.current().low_bits(8), 0);
    }

    #[test]
    fn lhist_tracks_per_pc() {
        let mut l = LocalHistoryProvider::new(256, 10);
        l.speculate(0x1000, [true, true]);
        l.speculate(0x2340, [false]);
        // Updates to one PC's history must not leak into the other's.
        assert_eq!(l.read(0, 0x1000), 0b11);
        assert_eq!(l.read(0, 0x2340), 0b0);
    }

    #[test]
    fn lhist_speculate_returns_pre_value_and_repairs() {
        let mut l = LocalHistoryProvider::new(64, 8);
        l.speculate(0x40, [true]);
        let old = l.speculate(0x40, [true, true]);
        assert_eq!(old, 0b1);
        assert_eq!(l.read(0, 0x40), 0b111);
        l.repair(0x40, old, [false]);
        assert_eq!(l.read(0, 0x40), 0b10);
    }

    #[test]
    fn disabled_provider_is_inert() {
        let mut l = LocalHistoryProvider::new(1, 0);
        assert!(l.is_disabled());
        assert_eq!(l.speculate(0x40, [true]), 0);
        assert_eq!(l.read(0, 0x40), 0);
        assert_eq!(l.storage().total_bits(), 0);
    }

    #[test]
    fn lhist_width_truncates() {
        let mut l = LocalHistoryProvider::new(64, 4);
        l.speculate(0x80, [true; 8]);
        assert_eq!(l.read(0, 0x80), 0b1111);
    }

    #[test]
    fn path_history_folds_targets() {
        let mut p = PathHistoryProvider::new(16);
        p.speculate(0x4000);
        let one = p.current();
        p.speculate(0x8000);
        let two = p.current();
        assert_ne!(one, two);
        assert!(two <= 0xffff);
        p.restore(one);
        assert_eq!(p.current(), one);
    }

    #[test]
    fn disabled_path_history_is_inert() {
        let mut p = PathHistoryProvider::new(0);
        p.speculate(0x4000);
        assert_eq!(p.current(), 0);
        assert_eq!(p.storage().total_bits(), 0);
    }

    #[test]
    fn storage_shapes() {
        let g = GlobalHistoryProvider::new(64);
        assert_eq!(g.storage().total_bits(), 64);
        let l = LocalHistoryProvider::new(256, 32);
        assert_eq!(l.storage().total_bits(), 256 * 32);
    }
}
