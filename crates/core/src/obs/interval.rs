//! Interval telemetry: time-resolved per-component statistics, phase
//! signatures, and a hot-path self-profiler.
//!
//! Every end-of-run number COBRA reports is an aggregate; this module
//! adds the time axis. When `COBRA_INTERVAL=<n>` is set, the host core
//! closes a telemetry interval every `n` committed instructions and
//! records, for each interval:
//!
//! * the host counter delta ([`HostCounters`]) — cycles, commits,
//!   branches, mispredicts — from which MPKI/IPC per interval follow;
//! * the per-component attribution delta
//!   ([`AttributionReport::delta`]) — queries, fires, provided-final,
//!   overridden, blame split direction/target;
//! * occupancy gauges ([`IntervalGauges`]) — history-file occupancy,
//!   return-address-stack depth and high-water, and per-component SRAM
//!   touched-row utilization;
//! * a basic-block-vector-style *phase signature*: a
//!   [`SIG_BUCKETS`]-bucket histogram of hashed committed branch PCs,
//!   the working-set fingerprint SimPoint-style phase clustering needs.
//!
//! The records stream to a `.cbm` file (see `cobra_uarch::metrics`) and
//! reconcile bit-exactly: summed over all intervals, the host and
//! attribution deltas equal the end-of-run `PerfReport` /
//! [`AttributionReport`] — the same delta machinery `run_with_warmup`
//! uses, applied at a finer grain.
//!
//! Independently, `COBRA_PROFILE=1` arms a *self-profiler*
//! ([`NodeProfiler`]) on the compiled execution plan: every 16th
//! predict packet, per-node wall time is sampled around the query and
//! compose steps, and a summary table is printed to stderr when the
//! pipeline is dropped. Neither facility writes to stdout, and both are
//! read from [`Config`](crate::config::Config) when a core or pipeline
//! is built, so when off they cost a pointer-null check per use.

use super::AttributionReport;
use std::time::Instant;

/// Number of buckets in a phase-signature vector.
///
/// 64 buckets keeps a record small (≤ 320 bytes of varints) while still
/// separating SPECint-scale branch working sets; the multiplicative
/// hash spreads PCs uniformly, so collisions cost resolution, not
/// correctness.
pub const SIG_BUCKETS: usize = 64;

/// The signature bucket for a branch PC.
///
/// Fibonacci multiplicative hash over the word-aligned PC: cheap (one
/// multiply, one shift), deterministic, and spreads the low-entropy
/// high bits of text-segment addresses across all [`SIG_BUCKETS`].
#[inline]
pub fn sig_bucket(pc: u64) -> usize {
    ((pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// Cosine similarity of two signature vectors, in `[0, 1]` (1 when
/// either vector is all-zero only if both are — an empty interval is
/// similar to nothing).
pub fn cosine(a: &[u32], b: &[u32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (x as f64, y as f64);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// A snapshot (or delta) of the host core's performance counters.
///
/// Mirrors `cobra_uarch::PerfCounters` field for field; duplicated here
/// because the dependency points the other way (`cobra-uarch` depends
/// on `cobra-core`). The host core converts at the interval boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Committed (retired) instructions.
    pub committed_insts: u64,
    /// Committed conditional branches.
    pub cond_branches: u64,
    /// Committed control-flow instructions of any kind.
    pub cfis: u64,
    /// Resolved conditional direction mispredicts.
    pub cond_mispredicts: u64,
    /// Resolved target mispredicts.
    pub target_mispredicts: u64,
    /// Pipeline redirects from override (late-stage) corrections.
    pub override_redirects: u64,
    /// History replays after squashes.
    pub history_replays: u64,
    /// Fetch bubbles injected.
    pub fetch_bubbles: u64,
    /// Cycles the front end stalled on instruction fetch.
    pub icache_stall_cycles: u64,
    /// Cycles commit stalled on a full reorder buffer.
    pub rob_stall_cycles: u64,
}

impl HostCounters {
    /// Field-wise difference `self − earlier`.
    pub fn delta(&self, earlier: &HostCounters) -> HostCounters {
        HostCounters {
            cycles: self.cycles - earlier.cycles,
            committed_insts: self.committed_insts - earlier.committed_insts,
            cond_branches: self.cond_branches - earlier.cond_branches,
            cfis: self.cfis - earlier.cfis,
            cond_mispredicts: self.cond_mispredicts - earlier.cond_mispredicts,
            target_mispredicts: self.target_mispredicts - earlier.target_mispredicts,
            override_redirects: self.override_redirects - earlier.override_redirects,
            history_replays: self.history_replays - earlier.history_replays,
            fetch_bubbles: self.fetch_bubbles - earlier.fetch_bubbles,
            icache_stall_cycles: self.icache_stall_cycles - earlier.icache_stall_cycles,
            rob_stall_cycles: self.rob_stall_cycles - earlier.rob_stall_cycles,
        }
    }

    /// Field-wise sum (for reconciling interval deltas against the
    /// end-of-run report).
    pub fn accumulate(&mut self, d: &HostCounters) {
        self.cycles += d.cycles;
        self.committed_insts += d.committed_insts;
        self.cond_branches += d.cond_branches;
        self.cfis += d.cfis;
        self.cond_mispredicts += d.cond_mispredicts;
        self.target_mispredicts += d.target_mispredicts;
        self.override_redirects += d.override_redirects;
        self.history_replays += d.history_replays;
        self.fetch_bubbles += d.fetch_bubbles;
        self.icache_stall_cycles += d.icache_stall_cycles;
        self.rob_stall_cycles += d.rob_stall_cycles;
    }

    /// Total mispredicted branches (direction + target).
    pub fn branch_misses(&self) -> u64 {
        self.cond_mispredicts + self.target_mispredicts
    }

    /// Mispredicts per kilo-instruction over this delta.
    pub fn mpki(&self) -> f64 {
        if self.committed_insts == 0 {
            return 0.0;
        }
        self.branch_misses() as f64 * 1000.0 / self.committed_insts as f64
    }

    /// Instructions per cycle over this delta.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.committed_insts as f64 / self.cycles as f64
    }

    /// The counters as a fixed-order array (the `.cbm` wire order).
    pub fn to_array(&self) -> [u64; 11] {
        [
            self.cycles,
            self.committed_insts,
            self.cond_branches,
            self.cfis,
            self.cond_mispredicts,
            self.target_mispredicts,
            self.override_redirects,
            self.history_replays,
            self.fetch_bubbles,
            self.icache_stall_cycles,
            self.rob_stall_cycles,
        ]
    }

    /// Rebuilds the counters from the `.cbm` wire order.
    pub fn from_array(a: [u64; 11]) -> HostCounters {
        HostCounters {
            cycles: a[0],
            committed_insts: a[1],
            cond_branches: a[2],
            cfis: a[3],
            cond_mispredicts: a[4],
            target_mispredicts: a[5],
            override_redirects: a[6],
            history_replays: a[7],
            fetch_bubbles: a[8],
            icache_stall_cycles: a[9],
            rob_stall_cycles: a[10],
        }
    }
}

/// Point-in-time occupancy gauges sampled at an interval boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalGauges {
    /// History-file occupancy (in-flight packets) at the boundary.
    pub hf_occupancy: u64,
    /// Return-address-stack live depth at the boundary.
    pub ras_depth: u64,
    /// Return-address-stack depth high-water mark so far this run.
    pub ras_high_water: u64,
    /// Per component row (dataflow order, no static row): SRAM rows
    /// written since construction/restore, and total SRAM rows. Both 0
    /// for flop-only components.
    pub sram_rows: Vec<(u64, u64)>,
}

/// One closed telemetry interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval sequence number, 0-based from the measure boundary.
    pub seq: u64,
    /// Absolute committed-instruction count at the interval's start.
    pub start_inst: u64,
    /// Host counter delta over the interval.
    pub host: HostCounters,
    /// Per-component attribution delta over the interval.
    pub attr: AttributionReport,
    /// Occupancy gauges at the interval's closing boundary.
    pub gauges: IntervalGauges,
    /// Phase signature: hashed committed-branch-PC histogram.
    pub sig: Vec<u32>,
}

/// A completed run's interval series, ready for a `.cbm` writer.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSeries {
    /// Requested interval length (committed instructions); actual
    /// interval boundaries land on the first commit at or past each
    /// multiple, so per-record `host.committed_insts` may exceed this
    /// by up to the commit width.
    pub interval_n: u64,
    /// Component row labels (dataflow order, then the static row) —
    /// the label table every record's `attr.components` follows.
    pub labels: Vec<String>,
    /// The closed intervals in time order.
    pub records: Vec<IntervalRecord>,
}

/// The per-core interval engine.
///
/// Owned (boxed) by the host core and armed at the measure boundary of
/// `run_with_warmup`: `new` captures the baseline host/attribution
/// snapshots, the commit loop calls [`note_branch`](Self::note_branch)
/// per committed CFI and [`due`](Self::due) per step, and the core
/// closes intervals with fresh snapshots. [`finish`](Self::finish)
/// closes the final partial interval and yields the series.
#[derive(Debug)]
pub struct IntervalEngine {
    n: u64,
    next_boundary: u64,
    start_inst: u64,
    seq: u64,
    prev_host: HostCounters,
    prev_attr: AttributionReport,
    sig: Vec<u32>,
    records: Vec<IntervalRecord>,
}

impl IntervalEngine {
    /// An engine closing an interval every `n` committed instructions,
    /// starting from the given baseline snapshots (`host.committed_insts`
    /// is the absolute commit count at arming time).
    pub fn new(n: u64, host: HostCounters, attr: AttributionReport) -> Self {
        let n = n.max(1);
        Self {
            n,
            next_boundary: host.committed_insts + n,
            start_inst: host.committed_insts,
            seq: 0,
            prev_host: host,
            prev_attr: attr,
            sig: vec![0; SIG_BUCKETS],
            records: Vec::new(),
        }
    }

    /// The configured interval length.
    pub fn interval_n(&self) -> u64 {
        self.n
    }

    /// Accumulate one committed control-flow instruction into the
    /// current interval's phase signature.
    #[inline]
    pub fn note_branch(&mut self, pc: u64) {
        let b = sig_bucket(pc);
        self.sig[b] = self.sig[b].saturating_add(1);
    }

    /// Whether the current interval should close at this commit count.
    #[inline]
    pub fn due(&self, committed_insts: u64) -> bool {
        committed_insts >= self.next_boundary
    }

    /// Close the current interval with fresh end-of-interval snapshots
    /// and start the next one.
    pub fn close(&mut self, host: HostCounters, attr: AttributionReport, gauges: IntervalGauges) {
        let rec = IntervalRecord {
            seq: self.seq,
            start_inst: self.start_inst,
            host: host.delta(&self.prev_host),
            attr: attr.delta(&self.prev_attr),
            gauges,
            sig: std::mem::replace(&mut self.sig, vec![0; SIG_BUCKETS]),
        };
        self.seq += 1;
        self.start_inst = host.committed_insts;
        self.next_boundary = host.committed_insts + self.n;
        self.prev_host = host;
        self.prev_attr = attr;
        self.records.push(rec);
    }

    /// Close the final (possibly partial) interval and return the
    /// series. An empty final interval (no instructions committed since
    /// the last boundary) is dropped rather than recorded.
    pub fn finish(
        mut self,
        host: HostCounters,
        attr: AttributionReport,
        gauges: IntervalGauges,
    ) -> IntervalSeries {
        if host.committed_insts > self.start_inst {
            self.close(host, attr, gauges);
        }
        let labels = self
            .prev_attr
            .components
            .iter()
            .map(|c| c.label.clone())
            .collect();
        IntervalSeries {
            interval_n: self.n,
            labels,
            records: self.records,
        }
    }
}

/// Per-plan-node wall-time self-profiler (`COBRA_PROFILE`).
///
/// Sampling, not tracing: every [`SAMPLE_EVERY`](Self::SAMPLE_EVERY)-th
/// predict packet, the pipeline wraps each node's query and compose
/// step in an [`Instant`] pair. Wall-clock reads never feed back into
/// simulated state, so armed and unarmed runs produce byte-identical
/// results; the only output is a stderr summary table on drop.
#[derive(Debug)]
pub struct NodeProfiler {
    labels: Vec<String>,
    predict_ns: Vec<u64>,
    compose_ns: Vec<u64>,
    packets: u64,
    sampled: u64,
}

impl NodeProfiler {
    /// Sample one packet in this many (power of two).
    pub const SAMPLE_EVERY: u64 = 16;

    /// A profiler for a pipeline with the given node labels.
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Self {
            labels,
            predict_ns: vec![0; n],
            compose_ns: vec![0; n],
            packets: 0,
            sampled: 0,
        }
    }

    /// Advance the packet counter; returns whether this packet should
    /// be timed.
    #[inline]
    pub fn tick(&mut self) -> bool {
        let sample = self.packets & (Self::SAMPLE_EVERY - 1) == 0;
        self.packets += 1;
        if sample {
            self.sampled += 1;
        }
        sample
    }

    /// Charge `since`'s elapsed wall time to node `i`'s query step.
    #[inline]
    pub fn record_predict(&mut self, i: usize, since: Instant) {
        self.predict_ns[i] += since.elapsed().as_nanos() as u64;
    }

    /// Charge `since`'s elapsed wall time to node `i`'s compose step.
    #[inline]
    pub fn record_compose(&mut self, i: usize, since: Instant) {
        self.compose_ns[i] += since.elapsed().as_nanos() as u64;
    }

    /// Packets seen (sampled or not).
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The stderr summary table, or `None` when nothing was sampled.
    pub fn render(&self) -> Option<String> {
        if self.sampled == 0 {
            return None;
        }
        let total: u64 = self
            .predict_ns
            .iter()
            .chain(self.compose_ns.iter())
            .copied()
            .sum();
        let mut out = format!(
            "[profile] plan hot path: {} packets, {} sampled (1 in {})\n",
            self.packets,
            self.sampled,
            Self::SAMPLE_EVERY
        );
        out.push_str(&format!(
            "[profile] {:<14} {:>12} {:>12} {:>12} {:>7}\n",
            "node", "predict ns", "compose ns", "ns/packet", "share"
        ));
        for (i, label) in self.labels.iter().enumerate() {
            let node_total = self.predict_ns[i] + self.compose_ns[i];
            let share = if total > 0 {
                node_total as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "[profile] {:<14} {:>12} {:>12} {:>12.1} {:>6.1}%\n",
                label,
                self.predict_ns[i],
                self.compose_ns[i],
                node_total as f64 / self.sampled as f64,
                share
            ));
        }
        Some(out)
    }
}

impl Drop for NodeProfiler {
    fn drop(&mut self) {
        if let Some(summary) = self.render() {
            eprint!("{summary}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{ComponentAttribution, ComponentCounters};

    fn attr(queries: u64, blame: u64) -> AttributionReport {
        AttributionReport {
            components: vec![ComponentAttribution {
                label: "A".into(),
                counters: ComponentCounters {
                    queries,
                    direction_blame: blame,
                    ..ComponentCounters::default()
                },
            }],
            packets_with_prediction: queries,
            ..AttributionReport::default()
        }
    }

    fn host(cycles: u64, insts: u64) -> HostCounters {
        HostCounters {
            cycles,
            committed_insts: insts,
            ..HostCounters::default()
        }
    }

    #[test]
    fn sig_bucket_in_range_and_deterministic() {
        for pc in [0u64, 0x40, 0x1000, u64::MAX, 0xdead_beef] {
            let b = sig_bucket(pc);
            assert!(b < SIG_BUCKETS);
            assert_eq!(b, sig_bucket(pc));
        }
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1, 0], &[1, 0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1, 0], &[0, 1]).abs() < 1e-12);
        assert_eq!(cosine(&[0, 0], &[0, 0]), 1.0);
        assert_eq!(cosine(&[0, 0], &[1, 0]), 0.0);
    }

    #[test]
    fn host_counters_roundtrip_and_delta() {
        let a = HostCounters::from_array([11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(HostCounters::from_array(a.to_array()), a);
        let b = HostCounters::from_array([22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2]);
        let d = b.delta(&a);
        assert_eq!(d, a);
        let mut sum = a;
        sum.accumulate(&d);
        assert_eq!(sum, b);
        assert_eq!(d.branch_misses(), 7 + 6);
    }

    #[test]
    fn engine_intervals_reconcile_with_totals() {
        let mut e = IntervalEngine::new(100, host(50, 10), attr(5, 1));
        e.note_branch(0x40);
        assert!(!e.due(109));
        assert!(e.due(110));
        e.close(host(200, 110), attr(60, 4), IntervalGauges::default());
        e.note_branch(0x80);
        e.note_branch(0x80);
        let series = e.finish(host(260, 150), attr(80, 9), IntervalGauges::default());
        assert_eq!(series.records.len(), 2);
        assert_eq!(series.labels, vec!["A".to_string()]);
        // Interval 0: closed at 110 insts; interval 1: partial tail.
        assert_eq!(series.records[0].start_inst, 10);
        assert_eq!(series.records[0].host.committed_insts, 100);
        assert_eq!(series.records[1].start_inst, 110);
        assert_eq!(series.records[1].host.committed_insts, 40);
        // Sums reconcile with end-minus-baseline exactly.
        let mut h = HostCounters::default();
        let mut q = 0;
        let mut blame = 0;
        for r in &series.records {
            h.accumulate(&r.host);
            q += r.attr.components[0].counters.queries;
            blame += r.attr.components[0].counters.direction_blame;
        }
        assert_eq!(h, host(260, 150).delta(&host(50, 10)));
        assert_eq!(q, 80 - 5);
        assert_eq!(blame, 9 - 1);
        // Signatures: branch PCs land in the interval they committed in.
        assert_eq!(series.records[0].sig.iter().sum::<u32>(), 1);
        assert_eq!(series.records[1].sig.iter().sum::<u32>(), 2);
    }

    #[test]
    fn engine_drops_empty_tail() {
        let mut e = IntervalEngine::new(10, host(0, 0), attr(0, 0));
        e.close(host(20, 10), attr(3, 0), IntervalGauges::default());
        let series = e.finish(host(20, 10), attr(3, 0), IntervalGauges::default());
        assert_eq!(series.records.len(), 1);
    }

    #[test]
    fn profiler_samples_one_in_sixteen() {
        let mut p = NodeProfiler::new(vec!["A".into()]);
        let mut sampled = 0;
        for _ in 0..64 {
            if p.tick() {
                sampled += 1;
                p.record_predict(0, Instant::now());
            }
        }
        assert_eq!(sampled, 4);
        let table = p.render().expect("sampled packets render");
        assert!(table.contains("64 packets"));
        assert!(table.contains('A'));
    }

    #[test]
    fn profiler_renders_nothing_unsampled() {
        let p = NodeProfiler::new(vec!["A".into()]);
        assert!(p.render().is_none());
    }
}
