//! Behavioural SRAM model with port-usage accounting.
//!
//! The paper (Section III-D) stresses that predictor sub-components ought to
//! map onto area-efficient single- or dual-ported SRAM macros, and that the
//! metadata field exists largely so a component can avoid a second read port
//! at update time. This model gives that claim teeth in simulation: each
//! structure declares its port discipline, every access in a cycle is logged,
//! and exceeding the port budget is reported as a [`PortViolation`] — the
//! simulation-time analogue of a macro that will not map in synthesis.

use crate::{ContainerError, StateReader, StateWriter};
use std::fmt;

/// The port discipline of an SRAM macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// One port shared by reads and writes (1RW): one access per cycle total.
    SinglePort,
    /// One read port and one write port (1R1W).
    DualPort,
    /// Two read ports and one write port (2R1W) — expensive; flagged by the
    /// area model.
    TwoReadOneWrite,
}

impl PortKind {
    /// Maximum reads the macro supports per cycle.
    pub fn read_budget(self) -> u32 {
        match self {
            PortKind::SinglePort => 1,
            PortKind::DualPort => 1,
            PortKind::TwoReadOneWrite => 2,
        }
    }

    /// Maximum writes the macro supports per cycle.
    pub fn write_budget(self) -> u32 {
        1
    }

    /// Whether a read and a write may occur in the same cycle.
    pub fn concurrent_read_write(self) -> bool {
        !matches!(self, PortKind::SinglePort)
    }
}

/// Static description of an SRAM macro: geometry and port discipline.
///
/// Components report these through their storage report; the area model
/// costs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SramSpec {
    /// Number of addressable entries.
    pub entries: u64,
    /// Bits per entry.
    pub entry_bits: u64,
    /// Port discipline (per bank).
    pub ports: PortKind,
    /// Independent banks: superscalar structures are banked by prediction
    /// slot so each bank serves one slot's access per cycle.
    pub banks: u64,
}

impl SramSpec {
    /// Total data bits stored by the macro.
    pub fn total_bits(&self) -> u64 {
        self.entries * self.entry_bits
    }

    /// Total storage in kilobytes (for Table I style reporting).
    pub fn kilobytes(&self) -> f64 {
        self.total_bits() as f64 / 8192.0
    }
}

/// A port-budget violation observed during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortViolation {
    /// Cycle at which the violation occurred.
    pub cycle: u64,
    /// Bank on which the budget was exceeded.
    pub bank: u64,
    /// Reads attempted on that bank that cycle.
    pub reads: u32,
    /// Writes attempted on that bank that cycle.
    pub writes: u32,
}

impl fmt::Display for PortViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "port violation at cycle {} bank {}: {} reads / {} writes exceed budget",
            self.cycle, self.bank, self.reads, self.writes
        )
    }
}

/// A behavioural SRAM: a vector of `T` entries plus per-cycle port
/// accounting.
///
/// Reads return the value as of the start of the cycle is *not* modelled
/// bit-exactly — the composer's compute-at-query discipline already
/// guarantees read-before-write ordering within a cycle — but port usage is
/// tracked faithfully.
///
/// # Examples
///
/// ```
/// use cobra_sim::{PortKind, SramModel};
///
/// let mut bht = SramModel::new(16, 2, PortKind::DualPort, 0u8);
/// bht.begin_cycle(0);
/// let v = *bht.read(3);
/// bht.write(3, v + 1);
/// assert!(bht.violations().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SramModel<T> {
    spec: SramSpec,
    /// Cached `spec.entries / spec.banks`: bank mapping runs on every
    /// access, and the division would otherwise dominate small reads.
    rows_per_bank: u64,
    /// `log2(rows_per_bank)` when it is a power of two — the common
    /// geometry — turning the per-access bank divide into a shift.
    bank_shift: Option<u32>,
    data: Vec<T>,
    cycle: u64,
    reads_this_cycle: Vec<u32>,
    writes_this_cycle: Vec<u32>,
    total_reads: u64,
    total_writes: u64,
    violations: Vec<PortViolation>,
    /// Rows written at least once since construction or the last
    /// [`load_state`](Self::load_state) — the touched-set utilization
    /// gauge interval telemetry reports.
    touched_flag: Vec<bool>,
    rows_touched: u64,
}

impl<T: Clone> SramModel<T> {
    /// Creates an SRAM of `entries` entries of `entry_bits` bits each,
    /// initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u64, entry_bits: u64, ports: PortKind, init: T) -> Self {
        Self::new_banked(entries, entry_bits, ports, 1, init)
    }

    /// Creates a banked SRAM: `banks` independent macros, each with its own
    /// port budget. Superscalar predictor structures bank by prediction
    /// slot so a fetch packet's parallel accesses are conflict-free.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `banks` is zero, or `banks` does not divide
    /// `entries`.
    pub fn new_banked(entries: u64, entry_bits: u64, ports: PortKind, banks: u64, init: T) -> Self {
        assert!(entries > 0, "SRAM must have at least one entry");
        assert!(
            banks > 0 && entries.is_multiple_of(banks),
            "banks must divide entries"
        );
        let rows_per_bank = entries / banks;
        Self {
            spec: SramSpec {
                entries,
                entry_bits,
                ports,
                banks,
            },
            rows_per_bank,
            bank_shift: rows_per_bank
                .is_power_of_two()
                .then(|| rows_per_bank.trailing_zeros()),
            data: vec![init; entries as usize],
            cycle: 0,
            reads_this_cycle: vec![0; banks as usize],
            writes_this_cycle: vec![0; banks as usize],
            total_reads: 0,
            total_writes: 0,
            violations: Vec::new(),
            touched_flag: vec![false; entries as usize],
            rows_touched: 0,
        }
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u64 {
        self.rows_per_bank
    }

    /// Translates a (bank, row) pair into a flat entry index.
    ///
    /// # Panics
    ///
    /// Panics if the bank is out of range (`row` wraps within the bank).
    pub fn entry_of(&self, bank: u64, row: u64) -> u64 {
        assert!(bank < self.spec.banks, "bank out of range");
        let wrapped = match self.bank_shift {
            Some(_) => row & (self.rows_per_bank - 1),
            None => row % self.rows_per_bank,
        };
        bank * self.rows_per_bank + wrapped
    }

    /// The macro's static description.
    pub fn spec(&self) -> SramSpec {
        self.spec
    }

    /// Starts a new accounting cycle. Accesses before the first call are
    /// attributed to cycle 0.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.reads_this_cycle.fill(0);
        self.writes_this_cycle.fill(0);
    }

    fn bank_of(&self, index: u64) -> usize {
        match self.bank_shift {
            Some(s) => (index >> s) as usize,
            None => (index / self.rows_per_bank) as usize,
        }
    }

    fn check_budget(&mut self, bank: usize) {
        let p = self.spec.ports;
        let reads = self.reads_this_cycle[bank];
        let writes = self.writes_this_cycle[bank];
        let over_read = reads > p.read_budget();
        let over_write = writes > p.write_budget();
        let rw_conflict = !p.concurrent_read_write() && reads + writes > 1;
        if over_read || over_write || rw_conflict {
            // Record at most one violation per (cycle, bank).
            let key_matches = |v: &PortViolation| v.cycle == self.cycle && v.bank == bank as u64;
            if self.violations.last().is_none_or(|v| !key_matches(v)) {
                self.violations.push(PortViolation {
                    cycle: self.cycle,
                    bank: bank as u64,
                    reads,
                    writes,
                });
            } else if let Some(v) = self.violations.last_mut() {
                v.reads = reads;
                v.writes = writes;
            }
        }
    }

    /// Reads entry `index`, consuming one read port on its bank this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read(&mut self, index: u64) -> &T {
        let bank = self.bank_of(index);
        self.reads_this_cycle[bank] += 1;
        self.total_reads += 1;
        self.check_budget(bank);
        &self.data[index as usize]
    }

    /// Writes entry `index`, consuming one write port on its bank this
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn write(&mut self, index: u64, value: T) {
        let bank = self.bank_of(index);
        self.writes_this_cycle[bank] += 1;
        self.total_writes += 1;
        self.check_budget(bank);
        self.mark_touched(index);
        self.data[index as usize] = value;
    }

    /// Reads without consuming a port — for repair paths that in hardware
    /// recover state from metadata rather than from the array, and for
    /// test/debug inspection.
    pub fn peek(&self, index: u64) -> &T {
        &self.data[index as usize]
    }

    /// Writes without consuming a port — for initialization and for repair
    /// paths that in hardware restore state held in pipeline registers.
    pub fn poke(&mut self, index: u64, value: T) {
        self.mark_touched(index);
        self.data[index as usize] = value;
    }

    #[inline]
    fn mark_touched(&mut self, index: u64) {
        let f = &mut self.touched_flag[index as usize];
        if !*f {
            *f = true;
            self.rows_touched += 1;
        }
    }

    /// Port violations observed so far.
    pub fn violations(&self) -> &[PortViolation] {
        &self.violations
    }

    /// Lifetime (reads, writes) — used for energy-style reporting.
    pub fn access_counts(&self) -> (u64, u64) {
        (self.total_reads, self.total_writes)
    }

    /// Rows written at least once since construction (or since the last
    /// [`load_state`](Self::load_state), which resets the touched set) —
    /// the utilization numerator interval telemetry reports against
    /// [`len`](Self::len).
    pub fn rows_touched(&self) -> u64 {
        self.rows_touched
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.spec.entries
    }

    /// Always false: the constructor rejects empty SRAMs.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes the complete model state — accounting epoch, lifetime
    /// access counts, recorded violations, and every data cell (encoded by
    /// `cell`) — for warm-state checkpoints. The geometry itself is not
    /// stored: a snapshot only restores into a model of identical shape,
    /// which the caller guarantees by construction.
    pub fn save_state(&self, w: &mut StateWriter, mut cell: impl FnMut(&mut StateWriter, &T)) {
        w.begin_section("sram");
        w.write_u64(self.cycle);
        for &r in &self.reads_this_cycle {
            w.write_u64(u64::from(r));
        }
        for &wr in &self.writes_this_cycle {
            w.write_u64(u64::from(wr));
        }
        w.write_u64(self.total_reads);
        w.write_u64(self.total_writes);
        w.write_u64(self.violations.len() as u64);
        for v in &self.violations {
            w.write_u64(v.cycle);
            w.write_u64(v.bank);
            w.write_u64(u64::from(v.reads));
            w.write_u64(u64::from(v.writes));
        }
        for d in &self.data {
            cell(w, d);
        }
        w.end_section();
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// model of identical geometry, decoding each data cell with `cell`.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input; the model must then be
    /// discarded.
    pub fn load_state(
        &mut self,
        r: &mut StateReader<'_>,
        mut cell: impl FnMut(&mut StateReader<'_>) -> Result<T, ContainerError>,
    ) -> Result<(), ContainerError> {
        // A restore replaces the whole state; the touched-set gauge restarts.
        self.touched_flag.fill(false);
        self.rows_touched = 0;
        r.open_section("sram")?;
        self.cycle = r.read_u64("sram cycle")?;
        for x in &mut self.reads_this_cycle {
            *x = r.read_u64_capped("sram bank reads", u64::from(u32::MAX))? as u32;
        }
        for x in &mut self.writes_this_cycle {
            *x = r.read_u64_capped("sram bank writes", u64::from(u32::MAX))? as u32;
        }
        self.total_reads = r.read_u64("sram total reads")?;
        self.total_writes = r.read_u64("sram total writes")?;
        let nviol = r.read_u64_capped("sram violation count", 1 << 20)? as usize;
        self.violations.clear();
        for _ in 0..nviol {
            self.violations.push(PortViolation {
                cycle: r.read_u64("violation cycle")?,
                bank: r.read_u64("violation bank")?,
                reads: r.read_u64_capped("violation reads", u64::from(u32::MAX))? as u32,
                writes: r.read_u64_capped("violation writes", u64::from(u32::MAX))? as u32,
            });
        }
        for d in &mut self.data {
            *d = cell(r)?;
        }
        r.close_section()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_port_allows_one_read_one_write() {
        let mut s = SramModel::new(8, 4, PortKind::DualPort, 0u32);
        s.begin_cycle(1);
        let _ = *s.read(0);
        s.write(1, 5);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn dual_port_flags_second_read() {
        let mut s = SramModel::new(8, 4, PortKind::DualPort, 0u32);
        s.begin_cycle(1);
        let _ = *s.read(0);
        let _ = *s.read(1);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].reads, 2);
    }

    #[test]
    fn single_port_flags_read_plus_write() {
        let mut s = SramModel::new(8, 4, PortKind::SinglePort, 0u32);
        s.begin_cycle(3);
        let _ = *s.read(0);
        s.write(0, 1);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].cycle, 3);
    }

    #[test]
    fn two_read_one_write_budget() {
        let mut s = SramModel::new(8, 4, PortKind::TwoReadOneWrite, 0u32);
        s.begin_cycle(0);
        let _ = *s.read(0);
        let _ = *s.read(1);
        s.write(2, 9);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn budget_resets_each_cycle() {
        let mut s = SramModel::new(8, 4, PortKind::DualPort, 0u32);
        for c in 0..10 {
            s.begin_cycle(c);
            let _ = *s.read(0);
            s.write(0, c as u32);
        }
        assert!(s.violations().is_empty());
        assert_eq!(s.access_counts(), (10, 10));
    }

    #[test]
    fn one_violation_record_per_cycle() {
        let mut s = SramModel::new(8, 4, PortKind::DualPort, 0u32);
        s.begin_cycle(7);
        for _ in 0..5 {
            let _ = *s.read(0);
        }
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].reads, 5);
    }

    #[test]
    fn peek_and_poke_do_not_consume_ports() {
        let mut s = SramModel::new(8, 4, PortKind::SinglePort, 0u32);
        s.begin_cycle(0);
        s.poke(3, 42);
        assert_eq!(*s.peek(3), 42);
        assert!(s.violations().is_empty());
        assert_eq!(s.access_counts(), (0, 0));
    }

    #[test]
    fn banked_reads_are_conflict_free_across_banks() {
        let mut s = SramModel::new_banked(64, 4, PortKind::DualPort, 8, 0u32);
        s.begin_cycle(1);
        for bank in 0..8 {
            let _ = *s.read(s.entry_of(bank, 3));
        }
        assert!(
            s.violations().is_empty(),
            "one read per bank is within budget"
        );
    }

    #[test]
    fn banked_reads_conflict_within_a_bank() {
        let mut s = SramModel::new_banked(64, 4, PortKind::DualPort, 8, 0u32);
        s.begin_cycle(1);
        let _ = *s.read(s.entry_of(2, 0));
        let _ = *s.read(s.entry_of(2, 5));
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].bank, 2);
    }

    #[test]
    fn entry_of_maps_into_bank_region() {
        let s = SramModel::new_banked(64, 4, PortKind::DualPort, 8, 0u32);
        assert_eq!(s.rows_per_bank(), 8);
        assert_eq!(s.entry_of(0, 3), 3);
        assert_eq!(s.entry_of(3, 2), 26);
        assert_eq!(s.entry_of(3, 10), 26, "row wraps within the bank");
    }

    #[test]
    #[should_panic(expected = "banks must divide entries")]
    fn banks_must_divide_entries() {
        let _ = SramModel::new_banked(10, 4, PortKind::DualPort, 4, 0u32);
    }

    #[test]
    fn rows_touched_counts_distinct_written_rows() {
        let mut s = SramModel::new(16, 4, PortKind::DualPort, 0u32);
        assert_eq!(s.rows_touched(), 0);
        s.begin_cycle(0);
        s.write(3, 1);
        s.write(3, 2); // same row: still one touched row
        s.poke(7, 9);
        let _ = *s.read(5); // reads do not touch
        assert_eq!(s.rows_touched(), 2);
        // A full state restore clears the gauge.
        let mut w = StateWriter::new();
        s.save_state(&mut w, |w, &v| w.write_u64(u64::from(v)));
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        s.load_state(&mut r, |r| Ok(r.read_u64("cell")? as u32))
            .unwrap();
        assert_eq!(s.rows_touched(), 0);
    }

    #[test]
    fn spec_storage_math() {
        let s = SramModel::new(2048, 40, PortKind::DualPort, 0u8);
        assert_eq!(s.spec().total_bits(), 81920);
        assert!((s.spec().kilobytes() - 10.0).abs() < 1e-9);
    }
}
