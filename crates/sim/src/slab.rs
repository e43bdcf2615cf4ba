//! A fixed-capacity slab keyed by sequential tokens.
//!
//! The simulator hands out monotonically increasing packet ids (history
//! file tokens) and keeps per-packet side state in maps keyed by those
//! ids. The live id window is bounded by the history file's capacity, so
//! an ordered map (`BTreeMap`) is pure overhead on the per-cycle hot
//! path: every lookup walks a tree that never holds more than a few dozen
//! entries. [`TokenSlab`] replaces it with a power-of-two ring indexed by
//! `token & mask` — O(1) insert/get/remove with no allocation — while
//! keeping the map semantics the callers relied on (stale tokens miss,
//! `split_off`-style truncation of younger entries).
//!
//! Correctness depends on one invariant the simulator upholds by
//! construction: **live tokens span a window smaller than the slab
//! capacity** (a token is only live while its history-file entry is, and
//! the history file is a bounded circular buffer). [`TokenSlab::insert`]
//! panics if a collision with a *live* entry proves the invariant was
//! violated, rather than silently corrupting state.

use crate::{ContainerError, StateReader, StateWriter};

/// A bounded map from sequential `u64` tokens to values, backed by a
/// power-of-two ring.
///
/// # Examples
///
/// ```
/// use cobra_sim::TokenSlab;
///
/// let mut s: TokenSlab<&str> = TokenSlab::new(4);
/// s.insert(0, "a");
/// s.insert(1, "b");
/// assert_eq!(s.get(0), Some(&"a"));
/// assert_eq!(s.remove(1), Some("b"));
/// assert_eq!(s.get(1), None); // stale token misses
/// ```
#[derive(Debug, Clone)]
pub struct TokenSlab<T> {
    /// `slots[i]` holds `(token, value)`; a token of `u64::MAX` marks an
    /// empty slot.
    slots: Vec<(u64, Option<T>)>,
    mask: u64,
    /// One past the highest token ever inserted.
    hi: u64,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl<T> TokenSlab<T> {
    /// Creates a slab able to hold any window of `capacity` consecutive
    /// tokens (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        let n = capacity.next_power_of_two();
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || (EMPTY, None));
        Self {
            slots,
            mask: n as u64 - 1,
            hi: 0,
            len: 0,
        }
    }

    /// Slot capacity (always a power of two, ≥ the requested capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn idx(&self, token: u64) -> usize {
        (token & self.mask) as usize
    }

    /// Inserts `value` under `token`, returning the previous value if the
    /// same token was already present (map semantics).
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied by a *different* live token — the
    /// live window exceeded the slab capacity, a caller bug.
    pub fn insert(&mut self, token: u64, value: T) -> Option<T> {
        debug_assert_ne!(token, EMPTY, "token reserved as the empty marker");
        let i = self.idx(token);
        let capacity = self.slots.len();
        let slot = &mut self.slots[i];
        let old = if slot.0 == token { slot.1.take() } else { None };
        assert!(
            slot.1.is_none(),
            "TokenSlab collision: token {} vs live token {} (capacity {capacity})",
            token,
            slot.0,
        );
        *slot = (token, Some(value));
        self.hi = self.hi.max(token + 1);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Borrows the value under `token`, if live.
    #[inline]
    pub fn get(&self, token: u64) -> Option<&T> {
        let slot = &self.slots[self.idx(token)];
        if slot.0 == token {
            slot.1.as_ref()
        } else {
            None
        }
    }

    /// Mutably borrows the value under `token`, if live.
    #[inline]
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let i = self.idx(token);
        let slot = &mut self.slots[i];
        if slot.0 == token {
            slot.1.as_mut()
        } else {
            None
        }
    }

    /// Removes and returns the value under `token`, if live.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let i = self.idx(token);
        let slot = &mut self.slots[i];
        if slot.0 == token {
            let v = slot.1.take();
            if v.is_some() {
                slot.0 = EMPTY;
                self.len -= 1;
            }
            v
        } else {
            None
        }
    }

    /// Removes every live entry with a token strictly greater than
    /// `token` — the squash path (`BTreeMap::split_off(token + 1)` in the
    /// old code, with the returned map dropped).
    pub fn truncate_above(&mut self, token: u64) {
        let start = (token + 1).max(self.hi.saturating_sub(self.slots.len() as u64));
        for t in start..self.hi {
            let i = self.idx(t);
            let slot = &mut self.slots[i];
            if slot.0 == t && slot.1.take().is_some() {
                slot.0 = EMPTY;
                self.len -= 1;
            }
        }
        self.hi = self.hi.min(token + 1);
    }

    /// Removes every live entry.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = (EMPTY, None);
        }
        self.len = 0;
    }

    /// Iterates live `(token, &value)` pairs, oldest token first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let lo = self.hi.saturating_sub(self.slots.len() as u64);
        (lo..self.hi).filter_map(move |t| self.get(t).map(|v| (t, v)))
    }

    /// Serializes the token high-water mark and every live `(token,
    /// value)` pair (oldest first, values encoded by `item`) for
    /// warm-state checkpoints. An empty slab with an advanced high-water
    /// mark round-trips exactly — the mark feeds future token allocation.
    pub fn save_state(&self, w: &mut StateWriter, mut item: impl FnMut(&mut StateWriter, &T)) {
        w.begin_section("slab");
        w.write_u64(self.hi);
        w.write_u64(self.len as u64);
        for (t, v) in self.iter() {
            w.write_u64(t);
            item(w, v);
        }
        w.end_section();
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// slab of the same capacity, decoding each value with `item`.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] if the stream is malformed, a token falls
    /// outside the live window implied by the high-water mark, or the
    /// entry count disagrees with the pairs present.
    pub fn load_state(
        &mut self,
        r: &mut StateReader<'_>,
        mut item: impl FnMut(&mut StateReader<'_>) -> Result<T, ContainerError>,
    ) -> Result<(), ContainerError> {
        r.open_section("slab")?;
        let hi = r.read_u64("slab high-water mark")?;
        let len = r.read_u64_capped("slab entry count", self.capacity() as u64)? as usize;
        self.clear();
        for _ in 0..len {
            let t = r.read_u64("slab token")?;
            if t >= hi || hi - t > self.slots.len() as u64 {
                return Err(ContainerError::Shape {
                    detail: format!("slab token {t} outside the live window below {hi}"),
                });
            }
            let v = item(r)?;
            self.insert(t, v);
        }
        if self.len != len {
            return Err(ContainerError::Shape {
                detail: format!("slab stored {len} entries but {} were distinct", self.len),
            });
        }
        self.hi = hi;
        r.close_section()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::BTreeMap;

    #[test]
    fn basic_map_semantics() {
        let mut s: TokenSlab<u32> = TokenSlab::new(4);
        assert_eq!(s.insert(0, 10), None);
        assert_eq!(s.insert(0, 11), Some(10));
        assert_eq!(s.get(0), Some(&11));
        *s.get_mut(0).unwrap() = 12;
        assert_eq!(s.remove(0), Some(12));
        assert_eq!(s.remove(0), None);
        assert!(s.is_empty());
    }

    #[test]
    fn stale_and_future_tokens_miss() {
        let mut s: TokenSlab<u32> = TokenSlab::new(4);
        s.insert(5, 50);
        assert_eq!(s.get(1), None); // same slot (5 & 3 == 1), different token
        assert_eq!(s.get(9), None);
        assert_eq!(s.get(5), Some(&50));
    }

    #[test]
    fn truncate_above_drops_younger() {
        let mut s: TokenSlab<u32> = TokenSlab::new(8);
        for t in 0..6 {
            s.insert(t, t as u32);
        }
        s.truncate_above(2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(2), Some(&2));
        assert_eq!(s.get(3), None);
        // Re-inserting after a squash reuses the token range.
        s.insert(3, 33);
        assert_eq!(s.get(3), Some(&33));
    }

    #[test]
    fn wraparound_reuses_slots() {
        let mut s: TokenSlab<u64> = TokenSlab::new(4);
        for t in 0..1000u64 {
            s.insert(t, t * 2);
            assert_eq!(s.get(t), Some(&(t * 2)));
            if t >= 3 {
                // keep the window at 4 live entries
                assert_eq!(s.remove(t - 3), Some((t - 3) * 2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "TokenSlab collision")]
    fn window_overflow_panics() {
        let mut s: TokenSlab<u32> = TokenSlab::new(4);
        s.insert(0, 0);
        s.insert(4, 4); // same slot, both live
    }

    /// Differential test against the `BTreeMap` the slab replaced, driving
    /// the exact operation mix the simulator performs: sequential inserts
    /// (packet accept), in-order removal (commit), random access
    /// (resolution bookkeeping), `split_off`-style truncation (mispredict
    /// squash / kill), and token wraparound far past the capacity.
    #[test]
    fn matches_btreemap_model_across_wraparound_and_squash() {
        let mut rng = SplitMix64::new(0x51ab);
        for _case in 0..50 {
            let cap = 1 + rng.below(40) as usize;
            let mut slab: TokenSlab<u64> = TokenSlab::new(cap);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next_token = 0u64;
            for _ in 0..400 {
                match rng.below(10) {
                    // Allocate (the common case) — respects the window bound.
                    0..=4 => {
                        let window_ok = model
                            .keys()
                            .next()
                            .is_none_or(|&oldest| next_token - oldest < cap as u64);
                        if window_ok {
                            let v = rng.next_u64();
                            assert_eq!(slab.insert(next_token, v), model.insert(next_token, v));
                            next_token += 1;
                        }
                    }
                    // Commit the oldest.
                    5 | 6 => {
                        if let Some((&t, _)) = model.iter().next() {
                            assert_eq!(slab.remove(t), model.remove(&t));
                        }
                    }
                    // Random access on a live token.
                    7 => {
                        if let Some((&t, &v)) = model.iter().next_back() {
                            assert_eq!(slab.get(t), Some(&v));
                            *slab.get_mut(t).unwrap() ^= 1;
                            *model.get_mut(&t).unwrap() ^= 1;
                        }
                    }
                    // Mispredict squash: drop everything younger than a
                    // random live token (repair/kill path).
                    8 => {
                        if !model.is_empty() {
                            let keys: Vec<u64> = model.keys().copied().collect();
                            let t = keys[rng.below(keys.len() as u64) as usize];
                            slab.truncate_above(t);
                            let _ = model.split_off(&(t + 1));
                            next_token = t + 1;
                        }
                    }
                    // Full flush.
                    _ => {
                        slab.clear();
                        model.clear();
                    }
                }
                assert_eq!(slab.len(), model.len());
                for (&t, v) in &model {
                    assert_eq!(slab.get(t), Some(v), "token {t} diverged");
                }
            }
        }
    }

    #[test]
    fn load_state_replaces_live_entries() {
        let mut s: TokenSlab<u64> = TokenSlab::new(4);
        s.insert(1, 11);
        let mut w = StateWriter::new();
        s.save_state(&mut w, |w, v| w.write_u64(*v));
        let bytes = w.finish();

        s.insert(2, 22);
        let mut r = StateReader::new(&bytes);
        s.load_state(&mut r, |r| r.read_u64("v")).unwrap();
        assert_eq!(s.get(1), Some(&11));
        assert_eq!(s.get(2), None);
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut s: TokenSlab<u32> = TokenSlab::new(4);
        for t in 10..14 {
            s.insert(t, t as u32);
        }
        s.remove(11);
        let got: Vec<(u64, u32)> = s.iter().map(|(t, &v)| (t, v)).collect();
        assert_eq!(got, vec![(10, 10), (12, 12), (13, 13)]);
    }
}
