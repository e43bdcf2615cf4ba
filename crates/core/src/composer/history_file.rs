//! The generated history file (paper Section IV-B1).
//!
//! "The generated history file is a circular buffer which tracks the state
//! of predictions in the pipeline." An entry is allocated when a fetch
//! packet queries the predictor, accumulates the packet's history
//! snapshots and per-component metadata, receives branch resolutions from
//! the backend, and is dequeued in program order as the core commits.

use crate::iface::SlotResolution;
use crate::obs::PacketAttribution;
use crate::types::{Meta, PredictionBundle, StorageReport, MAX_FETCH_WIDTH};
use cobra_sim::{
    CircularBuffer, ContainerError, HistorySnapshot, PortKind, SramSpec, StateReader, StateWriter,
};

/// Lifecycle phase of a history-file entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryPhase {
    /// Still in the fetch pipeline; prediction not yet final.
    Fetching,
    /// Accepted into the core; awaiting resolution and commit.
    Accepted,
}

/// One in-flight fetch packet's predictor state.
#[derive(Debug, Clone)]
pub struct HistoryFileEntry {
    /// Fetch-packet start address.
    pub pc: u64,
    /// Lifecycle phase.
    pub phase: EntryPhase,
    /// Global-history snapshot at query time (what the packet's
    /// predictions were formed with).
    pub ghist: HistorySnapshot,
    /// Local history read at query time (for index regeneration).
    pub lhist_query: u64,
    /// Pre-update local history at accept time (for squash repair).
    pub lhist_old: u64,
    /// Path history at query time.
    pub phist: u64,
    /// Per-component metadata, in pipeline node order.
    pub metas: Vec<Meta>,
    /// The final prediction this packet acted on (updated on revision).
    pub pred: PredictionBundle,
    /// The global-history bits this packet currently contributes, as
    /// `(bits, count)` with the oldest outcome in the LSB.
    pub spec_bits: (u8, u8),
    /// Backend resolutions received so far, in slot order.
    pub resolutions: Vec<SlotResolution>,
    /// The slot that mispredicted, if any.
    pub mispredicted_slot: Option<u8>,
    /// Set once this entry's packet has been truncated at a mispredicted
    /// slot: resolutions past it are stale wrong-path reports.
    pub truncated_at: Option<u8>,
    /// Value-flow provenance of the packet's final prediction, used to
    /// charge mispredict blame to the providing component. Observability
    /// state only — it declares no storage.
    pub attr: PacketAttribution,
}

impl HistoryFileEntry {
    /// Iterates the packet's current speculative history bits, oldest
    /// first.
    pub fn spec_bit_iter(&self) -> impl Iterator<Item = bool> + '_ {
        let (bits, count) = self.spec_bits;
        (0..count).map(move |i| (bits >> i) & 1 == 1)
    }

    /// Records a resolution, keeping slot order and replacing a stale
    /// duplicate for the same slot.
    pub fn record_resolution(&mut self, res: SlotResolution) {
        match self.resolutions.binary_search_by_key(&res.slot, |r| r.slot) {
            Ok(i) => self.resolutions[i] = res,
            Err(i) => self.resolutions.insert(i, res),
        }
    }

    /// Serializes the entry into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.pc);
        w.write_u64(match self.phase {
            EntryPhase::Fetching => 0,
            EntryPhase::Accepted => 1,
        });
        self.ghist.save_state(w);
        w.write_u64(self.lhist_query);
        w.write_u64(self.lhist_old);
        w.write_u64(self.phist);
        w.write_u64(self.metas.len() as u64);
        for m in &self.metas {
            w.write_u64(m.0);
        }
        self.pred.save_state(w);
        w.write_u64(u64::from(self.spec_bits.0));
        w.write_u64(u64::from(self.spec_bits.1));
        w.write_u64(self.resolutions.len() as u64);
        for res in &self.resolutions {
            res.save_state(w);
        }
        w.write_u64(encode_opt_u8(self.mispredicted_slot));
        w.write_u64(encode_opt_u8(self.truncated_at));
        self.attr.save_state(w);
    }

    /// Decodes an entry written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let pc = r.read_u64("entry pc")?;
        let phase = match r.read_u64_capped("entry phase", 1)? {
            0 => EntryPhase::Fetching,
            _ => EntryPhase::Accepted,
        };
        let ghist = HistorySnapshot::load_state(r)?;
        let lhist_query = r.read_u64("entry lhist query")?;
        let lhist_old = r.read_u64("entry lhist old")?;
        let phist = r.read_u64("entry phist")?;
        let n_metas = r.read_u64_capped("entry meta count", 256)?;
        let mut metas = Vec::with_capacity(n_metas as usize);
        for _ in 0..n_metas {
            metas.push(Meta(r.read_u64("entry meta")?));
        }
        let pred = PredictionBundle::load_state(r)?;
        let spec_bits = (
            r.read_u64_capped("entry spec bits", 0xff)? as u8,
            r.read_u64_capped("entry spec count", 8)? as u8,
        );
        let n_res = r.read_u64_capped("entry resolution count", MAX_FETCH_WIDTH as u64)?;
        let mut resolutions = Vec::with_capacity(n_res as usize);
        for _ in 0..n_res {
            resolutions.push(SlotResolution::load_state(r)?);
        }
        let mispredicted_slot = decode_opt_u8(r, "entry mispredicted slot")?;
        let truncated_at = decode_opt_u8(r, "entry truncated slot")?;
        let attr = PacketAttribution::load_state(r)?;
        Ok(HistoryFileEntry {
            pc,
            phase,
            ghist,
            lhist_query,
            lhist_old,
            phist,
            metas,
            pred,
            spec_bits,
            resolutions,
            mispredicted_slot,
            truncated_at,
            attr,
        })
    }
}

/// Biased `Option<u8>` codec shared by the entry fields: 0 encodes `None`,
/// `v + 1` encodes `Some(v)`.
fn encode_opt_u8(v: Option<u8>) -> u64 {
    match v {
        None => 0,
        Some(s) => u64::from(s) + 1,
    }
}

fn decode_opt_u8(
    r: &mut StateReader<'_>,
    what: &'static str,
) -> Result<Option<u8>, ContainerError> {
    match r.read_u64_capped(what, 0x100)? {
        0 => Ok(None),
        v => Ok(Some((v - 1) as u8)),
    }
}

/// Packs outcome bits (oldest first) into the `(bits, count)` form stored
/// per entry.
pub(crate) fn pack_bits(outcomes: impl IntoIterator<Item = bool>) -> (u8, u8) {
    let mut bits = 0u8;
    let mut count = 0u8;
    for t in outcomes {
        assert!(count < 8, "more history bits than fetch slots");
        bits |= (t as u8) << count;
        count += 1;
    }
    (bits, count)
}

/// The circular buffer of in-flight prediction state.
#[derive(Debug)]
pub struct HistoryFile {
    entries: CircularBuffer<HistoryFileEntry>,
    ghist_bits: u32,
    lhist_bits: u32,
    meta_bits: u32,
}

impl HistoryFile {
    /// Creates a history file of `capacity` entries, recording the widths
    /// needed for the storage declaration.
    pub fn new(capacity: usize, ghist_bits: u32, lhist_bits: u32, meta_bits: u32) -> Self {
        Self {
            entries: CircularBuffer::new(capacity),
            ghist_bits,
            lhist_bits,
            meta_bits,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no predictions are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when a further allocation would fail (fetch must stall).
    pub fn is_full(&self) -> bool {
        self.entries.is_full()
    }

    /// Allocates an entry, returning its token, or the entry back on
    /// overflow.
    #[allow(clippy::result_large_err)] // backpressure returns the entry by design
    pub fn allocate(&mut self, entry: HistoryFileEntry) -> Result<u64, HistoryFileEntry> {
        self.entries.push(entry)
    }

    /// Borrows a live entry.
    pub fn get(&self, token: u64) -> Option<&HistoryFileEntry> {
        self.entries.get(token)
    }

    /// Mutably borrows a live entry.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut HistoryFileEntry> {
        self.entries.get_mut(token)
    }

    /// Pops the oldest entry (commit).
    pub fn pop_front(&mut self) -> Option<(u64, HistoryFileEntry)> {
        self.entries.pop()
    }

    /// Borrows the oldest entry.
    pub fn front(&self) -> Option<(u64, &HistoryFileEntry)> {
        self.entries.front()
    }

    /// Tokens of live entries strictly younger than `token`, oldest first.
    pub fn younger_than(&self, token: u64) -> Vec<u64> {
        self.entries.live_tokens().filter(|&t| t > token).collect()
    }

    /// All live tokens, oldest first.
    pub fn live(&self) -> Vec<u64> {
        self.entries.live_tokens().collect()
    }

    /// All live tokens, oldest first, as an allocation-free range (every
    /// token in the range is live — the underlying ring is contiguous).
    pub fn live_range(&self) -> std::ops::Range<u64> {
        self.entries.live_tokens()
    }

    /// Live tokens strictly younger than `token`, oldest first, as an
    /// allocation-free range.
    pub fn younger_range(&self, token: u64) -> std::ops::Range<u64> {
        let live = self.entries.live_tokens();
        live.start.max(token.saturating_add(1))..live.end
    }

    /// Removes every entry younger than `token` without cloning the
    /// victims (the hot-path squash: callers walk [`Self::younger_range`]
    /// first if they need the entries). Returns how many were removed.
    pub fn discard_after(&mut self, token: u64) -> usize {
        let n = self.younger_range(token).count();
        if n > 0 {
            self.entries.squash_after(token);
        }
        n
    }

    /// Removes every live entry without cloning (full pipeline flush).
    /// Returns how many were removed.
    pub fn discard_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }

    /// Removes every entry younger than `token` (the squash after a
    /// mispredict resolves at `token`). The removed entries are returned
    /// youngest-first, the order in which their state must be restored.
    pub fn squash_after(&mut self, token: u64) -> Vec<HistoryFileEntry> {
        let victims: Vec<u64> = self.younger_than(token);
        let mut removed: Vec<HistoryFileEntry> = victims
            .iter()
            .filter_map(|&t| self.entries.get(t).cloned())
            .collect();
        self.entries.squash_after(token);
        removed.reverse();
        removed
    }

    /// Removes every live entry (full pipeline flush), youngest first.
    pub fn squash_all(&mut self) -> Vec<HistoryFileEntry> {
        let mut removed: Vec<HistoryFileEntry> =
            self.entries.iter().map(|(_, e)| e.clone()).collect();
        self.entries.clear();
        removed.reverse();
        removed
    }

    /// Serializes the ring of in-flight entries into a checkpoint stream.
    ///
    /// Widths are configuration, not state — the receiving history file
    /// must be built for the same design.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.entries.save_state(w, |w, e| e.save_state(w));
    }

    /// Restores the ring written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.entries.load_state(r, HistoryFileEntry::load_state)
    }

    /// Storage declaration for the area model: the history file is the bulk
    /// of the "Meta" cost in the paper's Fig 8 (ghist snapshot + local
    /// history + metadata + PC and prediction state per entry).
    pub fn storage(&self) -> StorageReport {
        let pred_bits = 8 * crate::types::MAX_FETCH_WIDTH as u64; // compressed prediction state
        let entry_bits = self.ghist_bits as u64
            + self.lhist_bits as u64
            + self.meta_bits as u64
            + 40 // pc
            + 10 // phase, spec bits, bookkeeping
            + pred_bits;
        let mut r = StorageReport::new();
        r.add_sram(
            "history-file",
            SramSpec {
                entries: self.capacity() as u64,
                entry_bits,
                ports: PortKind::TwoReadOneWrite,
                banks: 1,
            },
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_sim::HistoryRegister;

    fn entry(pc: u64) -> HistoryFileEntry {
        HistoryFileEntry {
            pc,
            phase: EntryPhase::Fetching,
            ghist: HistoryRegister::new(16).snapshot(),
            lhist_query: 0,
            lhist_old: 0,
            phist: 0,
            metas: vec![],
            pred: PredictionBundle::new(4),
            spec_bits: (0, 0),
            resolutions: vec![],
            mispredicted_slot: None,
            truncated_at: None,
            attr: PacketAttribution::EMPTY,
        }
    }

    #[test]
    fn allocate_and_commit_in_order() {
        let mut hf = HistoryFile::new(4, 16, 0, 32);
        let t0 = hf.allocate(entry(0x100)).unwrap();
        let t1 = hf.allocate(entry(0x110)).unwrap();
        assert!(t1 > t0);
        let (tok, e) = hf.pop_front().unwrap();
        assert_eq!(tok, t0);
        assert_eq!(e.pc, 0x100);
    }

    #[test]
    fn overflow_backpressures() {
        let mut hf = HistoryFile::new(2, 16, 0, 0);
        hf.allocate(entry(0)).unwrap();
        hf.allocate(entry(1)).unwrap();
        assert!(hf.is_full());
        assert!(hf.allocate(entry(2)).is_err());
    }

    #[test]
    fn squash_returns_youngest_first() {
        let mut hf = HistoryFile::new(8, 16, 0, 0);
        let t0 = hf.allocate(entry(0x10)).unwrap();
        hf.allocate(entry(0x20)).unwrap();
        hf.allocate(entry(0x30)).unwrap();
        let removed = hf.squash_after(t0);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].pc, 0x30, "youngest restored first");
        assert_eq!(removed[1].pc, 0x20);
        assert_eq!(hf.len(), 1);
    }

    #[test]
    fn record_resolution_keeps_slot_order() {
        let mut e = entry(0);
        let r = |slot| SlotResolution {
            slot,
            kind: crate::types::BranchKind::Conditional,
            taken: false,
            target: 0,
        };
        e.record_resolution(r(3));
        e.record_resolution(r(1));
        e.record_resolution(r(3)); // duplicate replaces
        assert_eq!(e.resolutions.len(), 2);
        assert_eq!(e.resolutions[0].slot, 1);
        assert_eq!(e.resolutions[1].slot, 3);
    }

    #[test]
    fn pack_bits_round_trip() {
        let (bits, count) = pack_bits([true, false, true]);
        assert_eq!(count, 3);
        let mut e = entry(0);
        e.spec_bits = (bits, count);
        let v: Vec<bool> = e.spec_bit_iter().collect();
        assert_eq!(v, vec![true, false, true]);
    }

    #[test]
    fn storage_scales_with_widths() {
        let small = HistoryFile::new(32, 16, 0, 20).storage().total_bits();
        let big = HistoryFile::new(32, 64, 32, 120).storage().total_bits();
        assert!(big > small);
        assert_eq!(big - small, 32 * ((64 - 16) + 32 + 100));
    }

    #[test]
    fn squash_all_empties_and_returns_everything() {
        let mut hf = HistoryFile::new(4, 16, 0, 0);
        hf.allocate(entry(1)).unwrap();
        hf.allocate(entry(2)).unwrap();
        let removed = hf.squash_all();
        assert_eq!(removed.len(), 2);
        assert!(hf.is_empty());
    }
}
