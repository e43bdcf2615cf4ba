//! A bounded circular buffer with stable token-based access.
//!
//! The composer's history file (Section IV-B1 of the paper) is "a circular
//! buffer which tracks the state of predictions in the pipeline": entries
//! are allocated at predict time, updated out-of-order when the backend
//! resolves branches, walked forwards during repair, and dequeued in program
//! order at commit. [`CircularBuffer`] provides exactly that access pattern:
//! push-back allocation returning a stable [`token`](CircularBuffer::push),
//! random access by token while the entry is live, in-order pop-front, and
//! bulk truncation of the youngest entries (squash).

use crate::{ContainerError, StateReader, StateWriter};

/// A bounded ring buffer whose entries are addressed by monotonically
/// increasing tokens.
///
/// Tokens are never reused while an entry is live, so a stale token (for an
/// entry already popped or squashed) is detected rather than silently
/// aliasing — the software analogue of the generation bits hardware queues
/// carry.
///
/// # Examples
///
/// ```
/// use cobra_sim::CircularBuffer;
///
/// let mut q: CircularBuffer<&str> = CircularBuffer::new(4);
/// let a = q.push("a").unwrap();
/// let b = q.push("b").unwrap();
/// assert_eq!(q.get(a), Some(&"a"));
/// assert_eq!(q.pop(), Some((a, "a")));
/// q.squash_after(b); // keep b, drop anything younger
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CircularBuffer<T> {
    slots: Vec<Option<T>>,
    head: u64, // token of the oldest live entry
    tail: u64, // token the next push will receive
}

impl<T> CircularBuffer<T> {
    /// Creates a buffer with room for `capacity` live entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Self {
            slots,
            head: 0,
            tail: 0,
        }
    }

    /// Maximum number of live entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// `true` if a push would fail.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    fn slot_of(&self, token: u64) -> usize {
        (token % self.slots.len() as u64) as usize
    }

    /// Appends an entry, returning its token, or gives the value back if the
    /// buffer is full (the caller models backpressure).
    pub fn push(&mut self, value: T) -> Result<u64, T> {
        if self.is_full() {
            return Err(value);
        }
        let token = self.tail;
        let slot = self.slot_of(token);
        self.slots[slot] = Some(value);
        self.tail += 1;
        Ok(token)
    }

    fn is_live(&self, token: u64) -> bool {
        token >= self.head && token < self.tail
    }

    /// Returns the entry for `token`, or `None` if it has been popped or
    /// squashed.
    pub fn get(&self, token: u64) -> Option<&T> {
        if self.is_live(token) {
            self.slots[self.slot_of(token)].as_ref()
        } else {
            None
        }
    }

    /// Mutable access by token.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        if self.is_live(token) {
            let slot = self.slot_of(token);
            self.slots[slot].as_mut()
        } else {
            None
        }
    }

    /// Removes and returns the oldest entry with its token.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.is_empty() {
            return None;
        }
        let token = self.head;
        let slot = self.slot_of(token);
        let value = self.slots[slot].take().expect("live slot must be occupied");
        self.head += 1;
        Some((token, value))
    }

    /// Borrows the oldest entry without removing it.
    pub fn front(&self) -> Option<(u64, &T)> {
        if self.is_empty() {
            None
        } else {
            Some((self.head, self.get(self.head)?))
        }
    }

    /// Drops every entry *younger* than `token`, keeping `token` itself.
    /// This is the history-file squash after a misprediction resolves at
    /// `token`. A stale token (older than head) squashes nothing extra; a
    /// token at or beyond the tail is a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if `token >= tail` (never allocated or not yet allocated).
    pub fn squash_after(&mut self, token: u64) {
        assert!(token < self.tail, "squash_after on unallocated token");
        let new_tail = token + 1;
        if new_tail >= self.tail {
            return;
        }
        for t in new_tail..self.tail {
            let slot = self.slot_of(t);
            self.slots[slot] = None;
        }
        self.tail = new_tail.max(self.head);
    }

    /// Drops every live entry.
    pub fn clear(&mut self) {
        for t in self.head..self.tail {
            let slot = self.slot_of(t);
            self.slots[slot] = None;
        }
        self.head = self.tail;
    }

    /// Iterates over live entries oldest-first as `(token, &entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.head..self.tail).filter_map(move |t| self.get(t).map(|v| (t, v)))
    }

    /// Token range `[head, tail)` of live entries.
    pub fn live_tokens(&self) -> std::ops::Range<u64> {
        self.head..self.tail
    }

    /// Serializes the token window and every live entry (oldest first,
    /// encoded by `item`) for warm-state checkpoints. Restoring preserves
    /// token values exactly, including past wraparound.
    pub fn save_state(&self, w: &mut StateWriter, mut item: impl FnMut(&mut StateWriter, &T)) {
        w.begin_section("ring");
        w.write_u64(self.head);
        w.write_u64(self.tail);
        for (_, v) in self.iter() {
            item(w, v);
        }
        w.end_section();
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// buffer of the same capacity, decoding each live entry with `item`.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] if the stream is malformed or the saved
    /// window exceeds this buffer's capacity.
    pub fn load_state(
        &mut self,
        r: &mut StateReader<'_>,
        mut item: impl FnMut(&mut StateReader<'_>) -> Result<T, ContainerError>,
    ) -> Result<(), ContainerError> {
        r.open_section("ring")?;
        let head = r.read_u64("ring head")?;
        let tail = r.read_u64("ring tail")?;
        if tail < head || tail - head > self.capacity() as u64 {
            return Err(ContainerError::Shape {
                detail: format!(
                    "ring window [{head}, {tail}) does not fit capacity {}",
                    self.capacity()
                ),
            });
        }
        for slot in &mut self.slots {
            *slot = None;
        }
        self.head = head;
        self.tail = tail;
        for t in head..tail {
            let v = item(r)?;
            let slot = self.slot_of(t);
            self.slots[slot] = Some(v);
        }
        r.close_section()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = CircularBuffer::new(3);
        let t0 = q.push(10).unwrap();
        let t1 = q.push(20).unwrap();
        assert_eq!(q.pop(), Some((t0, 10)));
        assert_eq!(q.pop(), Some((t1, 20)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backpressure_on_full() {
        let mut q = CircularBuffer::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        q.pop();
        assert!(q.push(3).is_ok());
    }

    #[test]
    fn tokens_monotonic_across_wraparound() {
        let mut q = CircularBuffer::new(2);
        let mut last = None;
        for i in 0..10 {
            let t = q.push(i).unwrap();
            if let Some(prev) = last {
                assert!(t > prev);
            }
            last = Some(t);
            q.pop();
        }
    }

    #[test]
    fn stale_token_returns_none() {
        let mut q = CircularBuffer::new(2);
        let t = q.push(5).unwrap();
        q.pop();
        assert_eq!(q.get(t), None);
    }

    #[test]
    fn squash_drops_younger_entries() {
        let mut q = CircularBuffer::new(8);
        let t0 = q.push(0).unwrap();
        let t1 = q.push(1).unwrap();
        let _t2 = q.push(2).unwrap();
        let _t3 = q.push(3).unwrap();
        q.squash_after(t1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(t0), Some(&0));
        assert_eq!(q.get(t1), Some(&1));
        // pushes after squash get fresh tokens continuing from the cut point
        let t4 = q.push(4).unwrap();
        assert_eq!(t4, t1 + 1);
        assert_eq!(q.get(t4), Some(&4));
    }

    #[test]
    fn squash_on_already_popped_token_is_noop_for_live() {
        let mut q = CircularBuffer::new(4);
        let t0 = q.push(0).unwrap();
        q.push(1).unwrap();
        q.pop(); // t0 gone
        q.squash_after(t0); // squashes everything younger than t0
        assert!(q.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut q = CircularBuffer::new(2);
        let t = q.push(1).unwrap();
        *q.get_mut(t).unwrap() = 99;
        assert_eq!(q.get(t), Some(&99));
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut q = CircularBuffer::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        q.pop();
        let vals: Vec<i32> = q.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn clear_empties() {
        let mut q = CircularBuffer::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert!(q.push(3).is_ok());
    }

    #[test]
    #[should_panic(expected = "unallocated token")]
    fn squash_future_token_panics() {
        let mut q: CircularBuffer<i32> = CircularBuffer::new(2);
        q.squash_after(0);
    }
}
