//! Performance counters and the end-of-run report.

use cobra_core::obs::AttributionReport;

/// The out-of-band profiling counters of a run, shared with the interval
/// telemetry (one struct, two names).
pub use cobra_core::obs::interval::HostCounters as PerfCounters;

/// The result of simulating a workload to completion.
///
/// `Display` renders the one-line summary only; the attribution detail
/// is reported by `cobra-trace` and the `--metrics` JSONL so existing
/// stdout stays byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Workload name.
    pub workload: String,
    /// Predictor design name.
    pub design: String,
    /// Raw counters.
    pub counters: PerfCounters,
    /// Per-component attribution counters (see [`cobra_core::obs`]).
    pub attribution: AttributionReport,
}

impl std::fmt::Display for PerfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        write!(
            f,
            "{:<12} {:<12} IPC {:>5.3}  MPKI {:>6.2}  acc {:>6.2}%  ({} insts, {} cycles)",
            self.workload,
            self.design,
            c.ipc(),
            c.mpki(),
            c.branch_accuracy(),
            c.committed_insts,
            c.cycles
        )
    }
}

/// Harmonic mean, as used for the HARMEAN column in Fig 10.
///
/// # Examples
///
/// ```
/// let h = cobra_uarch::harmonic_mean(&[1.0, 2.0]);
/// assert!((h - 4.0 / 3.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let c = PerfCounters {
            cycles: 1000,
            committed_insts: 2000,
            cond_branches: 200,
            cond_mispredicts: 10,
            target_mispredicts: 2,
            ..Default::default()
        };
        assert!((c.ipc() - 2.0).abs() < 1e-12);
        assert!((c.mpki() - 6.0).abs() < 1e-12);
        assert!((c.branch_accuracy() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let c = PerfCounters::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.mpki(), 0.0);
        assert_eq!(c.branch_accuracy(), 100.0);
    }

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert!(
            harmonic_mean(&[1.0, 100.0]) < 2.0,
            "dominated by the slow one"
        );
    }
}
