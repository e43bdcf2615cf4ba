//! Wide speculative history registers with snapshot repair.

use crate::{ContainerError, Snapshot, StateReader, StateWriter};

/// An opaque saved copy of a [`HistoryRegister`], taken at predict time and
/// restored on misprediction.
///
/// The composer stores one of these per history-file entry; its size is what
/// the paper's Section IV-B3 calls out as the cost of the "simple" snapshot
/// repair scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorySnapshot {
    words: Box<[u64]>,
}

impl HistorySnapshot {
    /// Number of stored bits (the register width the snapshot came from).
    pub fn bit_len(&self) -> u32 {
        (self.words.len() * 64) as u32
    }

    /// Serializes the snapshot's words into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.words.len() as u64);
        for &word in self.words.iter() {
            w.write_u64(word);
        }
    }

    /// Decodes a snapshot previously written by
    /// [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input or an implausible word
    /// count.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let nwords = r.read_u64_capped("history snapshot words", 1 << 16)? as usize;
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(r.read_u64("history snapshot word")?);
        }
        Ok(Self {
            words: words.into_boxed_slice(),
        })
    }
}

/// A `width`-bit branch-history shift register.
///
/// New outcomes shift in at bit 0 (most recent branch = LSB), matching the
/// convention used by the component index hash functions. The register
/// supports O(width/64) snapshot/restore for misprediction repair.
///
/// # Examples
///
/// ```
/// use cobra_sim::HistoryRegister;
///
/// let mut h = HistoryRegister::new(8);
/// h.push(true);
/// h.push(false);
/// h.push(true);
/// assert_eq!(h.low_bits(3), 0b101);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRegister {
    words: Vec<u64>,
    width: u32,
}

impl HistoryRegister {
    /// Creates an all-zeros history register of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "history width must be nonzero");
        let nwords = width.div_ceil(64) as usize;
        Self {
            words: vec![0; nwords],
            width,
        }
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Shifts in one branch outcome (`true` = taken) as the new LSB.
    pub fn push(&mut self, taken: bool) {
        let mut carry = taken as u64;
        for w in &mut self.words {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        self.mask_top();
    }

    /// Shifts in several outcomes, oldest first — a superscalar fetch packet
    /// may resolve multiple branches in one cycle.
    pub fn push_all(&mut self, outcomes: impl IntoIterator<Item = bool>) {
        for t in outcomes {
            self.push(t);
        }
    }

    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }

    /// Returns bit `i` (0 = most recent branch).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "history bit index out of range");
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Returns the `n` most recent outcomes as the low `n` bits of a `u64`
    /// (`n ≤ 64`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `n > width`.
    pub fn low_bits(&self, n: u32) -> u64 {
        assert!(n <= 64 && n <= self.width, "low_bits range invalid");
        if n == 0 {
            return 0;
        }
        let lo = self.words[0];
        if n <= 64 {
            lo & crate::bits::mask(n)
        } else {
            lo
        }
    }

    /// XOR-folds the `n` most recent history bits down to `width` bits, for
    /// arbitrary `n` up to the register width. This is the non-incremental
    /// reference implementation that [`crate::FoldedHistory`] must agree with.
    pub fn folded(&self, n: u32, width: u32) -> u64 {
        assert!(n <= self.width, "fold length exceeds history width");
        if width == 0 || n == 0 {
            return 0;
        }
        if n <= 64 {
            return crate::bits::xor_fold(self.low_bits(n), width.min(64))
                & crate::bits::mask(width.min(64));
        }
        let mut acc = 0u64;
        let mut chunk = 0u64;
        let mut chunk_bits = 0u32;
        for i in 0..n {
            chunk |= (self.bit(i) as u64) << chunk_bits;
            chunk_bits += 1;
            if chunk_bits == width {
                acc ^= chunk;
                chunk = 0;
                chunk_bits = 0;
            }
        }
        acc ^= chunk;
        acc & crate::bits::mask(width.min(64))
    }

    /// Saves the full register contents for later [`restore`](Self::restore).
    pub fn snapshot(&self) -> HistorySnapshot {
        HistorySnapshot {
            words: self.words.clone().into_boxed_slice(),
        }
    }

    /// Saves the register contents into an existing snapshot, reusing its
    /// word buffer when the widths match — the per-packet fast path that
    /// avoids one heap allocation per prediction.
    pub fn snapshot_into(&self, out: &mut HistorySnapshot) {
        if out.words.len() == self.words.len() {
            out.words.copy_from_slice(&self.words);
        } else {
            *out = self.snapshot();
        }
    }

    /// Restores a snapshot taken from a register of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a register of different width.
    pub fn restore(&mut self, snap: &HistorySnapshot) {
        assert_eq!(
            snap.words.len(),
            self.words.len(),
            "snapshot width mismatch"
        );
        self.words.copy_from_slice(&snap.words);
    }

    /// Clears the register to all zeros.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

impl Snapshot for HistoryRegister {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(u64::from(self.width));
        for &word in &self.words {
            w.write_u64(word);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        let width = r.read_u64("history register width")?;
        if width != u64::from(self.width) {
            return Err(ContainerError::Shape {
                detail: format!("history register width {} != saved {width}", self.width),
            });
        }
        for word in &mut self.words {
            *word = r.read_u64("history register word")?;
        }
        self.mask_top();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_order_lsb_most_recent() {
        let mut h = HistoryRegister::new(16);
        h.push(true); // oldest
        h.push(true);
        h.push(false); // newest
        assert_eq!(h.low_bits(3), 0b110);
        assert!(!h.bit(0));
        assert!(h.bit(1));
        assert!(h.bit(2));
    }

    #[test]
    fn width_truncates_old_history() {
        let mut h = HistoryRegister::new(4);
        for _ in 0..4 {
            h.push(true);
        }
        h.push(false);
        assert_eq!(h.low_bits(4), 0b1110);
    }

    #[test]
    fn cross_word_shift() {
        let mut h = HistoryRegister::new(130);
        h.push(true);
        for _ in 0..129 {
            h.push(false);
        }
        assert!(h.bit(129), "the taken bit must have shifted to the top");
        h.push(false);
        // now it has fallen off the end
        for i in 0..130 {
            assert!(!h.bit(i));
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut h = HistoryRegister::new(100);
        for i in 0..77 {
            h.push(i % 3 == 0);
        }
        let snap = h.snapshot();
        for _ in 0..10 {
            h.push(true);
        }
        assert_ne!(h.low_bits(10), snap.words[0] & 0x3ff);
        h.restore(&snap);
        let again = h.snapshot();
        assert_eq!(snap, again);
    }

    #[test]
    fn folded_matches_manual_small_case() {
        let mut h = HistoryRegister::new(8);
        // history (newest..oldest) = 1,0,1,1
        h.push(true);
        h.push(true);
        h.push(false);
        h.push(true);
        // bits: b0=1 b1=0 b2=1 b3=1 -> fold 4 bits into 2: (0b01) ^ (0b11) = 0b10
        assert_eq!(h.folded(4, 2), 0b10);
    }

    #[test]
    fn folded_zero_cases() {
        let h = HistoryRegister::new(32);
        assert_eq!(h.folded(0, 8), 0);
        assert_eq!(h.folded(8, 0), 0);
    }

    #[test]
    fn push_all_equivalent_to_pushes() {
        let mut a = HistoryRegister::new(20);
        let mut b = HistoryRegister::new(20);
        let seq = [true, false, false, true, true];
        a.push_all(seq);
        for t in seq {
            b.push(t);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "snapshot width mismatch")]
    fn restore_wrong_width_panics() {
        let a = HistoryRegister::new(64);
        let mut b = HistoryRegister::new(256);
        b.restore(&a.snapshot());
    }

    #[test]
    fn snapshot_reports_bit_len() {
        let h = HistoryRegister::new(65);
        assert_eq!(h.snapshot().bit_len(), 128);
    }
}
