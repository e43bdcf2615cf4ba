//! The return-address stack — "the only prediction sub-component from the
//! original BOOM core which was preserved" (paper Section IV-C).

use cobra_sim::{ContainerError, StateReader, StateWriter};

/// A circular return-address stack with snapshot repair.
///
/// Calls push the return address; returns pop a predicted target. Since
/// pushes and pops happen speculatively at predecode, the frontend
/// snapshots `(top, value)` per packet and restores on squash — the
/// classic RAS-repair scheme.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    top: usize,
    /// Live call depth (pushes minus pops, saturating at capacity and
    /// zero) — an observability gauge for interval telemetry.
    depth: usize,
    /// Deepest `depth` seen since construction or restore.
    high_water: usize,
}

/// A saved RAS position for squash repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasSnapshot {
    top: usize,
    value: u64,
    depth: usize,
}

impl RasSnapshot {
    /// Serializes the snapshot into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.top as u64);
        w.write_u64(self.value);
        w.write_u64(self.depth as u64);
    }

    /// Decodes a snapshot written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        Ok(RasSnapshot {
            top: r.read_u64_capped("ras snapshot top", 1 << 20)? as usize,
            value: r.read_u64("ras snapshot value")?,
            depth: r.read_u64_capped("ras snapshot depth", 1 << 20)? as usize,
        })
    }
}

impl ReturnAddressStack {
    /// Creates a stack of `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "RAS needs at least one entry");
        Self {
            entries: vec![0; entries],
            top: 0,
            depth: 0,
            high_water: 0,
        }
    }

    /// Pushes a return address (call).
    pub fn push(&mut self, ret_addr: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = ret_addr;
        self.depth = (self.depth + 1).min(self.entries.len());
        self.high_water = self.high_water.max(self.depth);
    }

    /// Pops the predicted return target (return).
    pub fn pop(&mut self) -> u64 {
        let v = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth = self.depth.saturating_sub(1);
        v
    }

    /// Peeks the top without popping.
    pub fn peek(&self) -> u64 {
        self.entries[self.top]
    }

    /// Saves the current position and top value.
    pub fn snapshot(&self) -> RasSnapshot {
        RasSnapshot {
            top: self.top,
            value: self.entries[self.top],
            depth: self.depth,
        }
    }

    /// Restores a snapshot taken before a squashed speculation.
    pub fn restore(&mut self, snap: RasSnapshot) {
        self.top = snap.top;
        self.entries[self.top] = snap.value;
        self.depth = snap.depth;
    }

    /// Live call depth (pushes minus pops since construction/restore,
    /// saturating at capacity and zero; squash repair rewinds it).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Deepest live depth seen since construction or restore.
    pub fn depth_high_water(&self) -> usize {
        self.high_water
    }

    /// Serializes the stack contents and position into a checkpoint
    /// stream. Capacity is configuration and is not stored.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.begin_section("ras");
        w.write_u64(self.top as u64);
        w.write_u64(self.depth as u64);
        w.write_u64(self.high_water as u64);
        for &e in &self.entries {
            w.write_u64(e);
        }
        w.end_section();
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// stack of the same capacity.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        r.open_section("ras")?;
        self.top = r.read_u64_capped("ras top", self.entries.len() as u64 - 1)? as usize;
        self.depth = r.read_u64_capped("ras depth", self.entries.len() as u64)? as usize;
        self.high_water = r.read_u64_capped("ras high water", self.entries.len() as u64)? as usize;
        for e in &mut self.entries {
            *e = r.read_u64("ras entry")?;
        }
        r.close_section()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_behaviour() {
        let mut r = ReturnAddressStack::new(8);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn overflow_wraps() {
        let mut r = ReturnAddressStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites the oldest
        assert_eq!(r.pop(), 3);
        assert_eq!(r.pop(), 2);
    }

    #[test]
    fn snapshot_restores_after_wrong_path() {
        let mut r = ReturnAddressStack::new(8);
        r.push(0xaaa);
        let snap = r.snapshot();
        // Wrong path: spurious call/ret traffic.
        r.push(0xbad);
        r.pop();
        r.pop();
        r.restore(snap);
        assert_eq!(r.peek(), 0xaaa);
        assert_eq!(r.pop(), 0xaaa);
    }

    #[test]
    fn depth_gauge_tracks_pushes_pops_and_repair() {
        let mut r = ReturnAddressStack::new(4);
        assert_eq!((r.depth(), r.depth_high_water()), (0, 0));
        r.push(1);
        r.push(2);
        assert_eq!((r.depth(), r.depth_high_water()), (2, 2));
        let snap = r.snapshot();
        r.push(3);
        r.push(4);
        r.push(5); // wraps; depth saturates at capacity
        assert_eq!((r.depth(), r.depth_high_water()), (4, 4));
        r.restore(snap);
        assert_eq!(r.depth(), 2, "squash repair rewinds the live depth");
        assert_eq!(r.depth_high_water(), 4, "high water is monotone");
        r.pop();
        r.pop();
        r.pop(); // underflow saturates at zero
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn depth_gauge_survives_state_roundtrip() {
        let mut r = ReturnAddressStack::new(4);
        r.push(7);
        r.push(8);
        r.pop();
        let mut w = StateWriter::new();
        r.save_state(&mut w);
        let bytes = w.finish();
        let mut fresh = ReturnAddressStack::new(4);
        let mut rd = StateReader::new(&bytes);
        fresh.load_state(&mut rd).unwrap();
        assert_eq!(fresh.depth(), 1);
        assert_eq!(fresh.depth_high_water(), 2);
        assert_eq!(fresh.peek(), r.peek());
    }
}
