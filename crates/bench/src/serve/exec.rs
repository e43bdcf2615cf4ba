//! Job execution for `cobra-serve`: one function that takes a job
//! identity and produces a [`PerfReport`], consulting the warm cache at
//! both tiers and repopulating it on the way out.
//!
//! The correctness invariant is byte-identity: whatever path a job takes
//! — tier-1 hit, tier-2 partial restore, or a cold run — the report it
//! returns is exactly the report a direct `Core::run_with_warmup` would
//! produce for the same `(design, config, workload, insts)`. Tier 1
//! stores the direct run's report verbatim; tier 2 holds because the
//! machine is deterministic to the committed-instruction boundary (see
//! `resume_from_earlier_boundary_is_byte_identical` in
//! `cobra_uarch::checkpoint`).

use std::io::BufReader;
use std::time::Instant;

use cobra_core::composer::Design;
use cobra_uarch::{
    best_resume_checkpoint, restore_checkpoint_resume, run_identity, CbrMeta, CbsMeta, Core,
    CoreConfig, PerfReport,
};
use cobra_workloads::ProgramSpec;

use super::cache::WarmCache;
use std::sync::atomic::Ordering;

/// Re-exported so serve clients size their expectations by the one rule.
pub use crate::warmup_for;

/// Which cache path served a job; rendered into the `result` event and
/// the runner provenance line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Tier-1 exact result hit — no simulation.
    Hit,
    /// Tier-2 checkpoint restore — simulated only past the boundary.
    Warm,
    /// Cold run (including cache-disabled operation).
    Miss,
}

impl CacheDisposition {
    /// The wire spelling used in events and provenance lines.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Warm => "warm",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// What [`execute_job`] hands back.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The performance report — byte-identical to a direct run's.
    pub report: PerfReport,
    /// Which cache path produced it.
    pub cache: CacheDisposition,
    /// Wall-clock seconds spent inside [`execute_job`].
    pub wall_s: f64,
}

/// A committed-instruction progress callback: `(insts_done, target)`.
pub type ProgressFn = Box<dyn FnMut(u64, u64) + Send>;

/// Evaluates `(design, cfg, spec)` for `insts` measured instructions,
/// consulting `cache` (when present) at both tiers and repopulating it.
///
/// `progress` installs a committed-instruction callback with the given
/// stride on any path that actually simulates (tier-1 hits produce no
/// progress events — there is nothing to report progress *on*).
pub fn execute_job(
    design: &Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    insts: u64,
    cache: Option<&WarmCache>,
    progress: Option<(u64, ProgressFn)>,
) -> ExecOutcome {
    let started = Instant::now();
    let measure = insts;
    let warmup = warmup_for(measure);
    let workload = spec.name.as_str();
    let result_meta = CbrMeta {
        id: run_identity(design, &cfg, workload),
        insts: measure,
        warmup_insts: warmup,
    };

    // Tier 1: an exact result for this identity skips simulation.
    if let Some(c) = cache {
        if let Some(report) = c.lookup_result(&result_meta) {
            c.stats.hits.fetch_add(1, Ordering::Relaxed);
            return ExecOutcome {
                report,
                cache: CacheDisposition::Hit,
                wall_s: started.elapsed().as_secs_f64(),
            };
        }
    }

    let mut core =
        Core::new(design, cfg, spec.build()).expect("admission gated the topology already");
    let boundary_meta = CbsMeta {
        id: result_meta.id.clone(),
        warmup_insts: warmup,
    };

    // Tier 2: restore the latest checkpoint at or before our warmup
    // boundary. A failed restore may leave the core partially
    // overwritten, so rebuild it fresh and fall through to a cold run.
    let mut disposition = CacheDisposition::Miss;
    if let Some(c) = cache {
        if let Some((path, _meta)) = best_resume_checkpoint(c.ckpt_dir(), &boundary_meta) {
            let restored = std::fs::File::open(&path)
                .map_err(cobra_uarch::ContainerError::from)
                .and_then(|f| {
                    restore_checkpoint_resume(BufReader::new(f), &boundary_meta, &mut core)
                });
            match restored {
                Ok(_stored_boundary) => {
                    disposition = CacheDisposition::Warm;
                    c.stats.warm.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    c.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "[cobra-serve] ignoring unusable checkpoint {}: {e}",
                        path.display()
                    );
                    core = Core::new(design, cfg, spec.build())
                        .expect("admission gated the topology already");
                }
            }
        }
    }
    if disposition == CacheDisposition::Miss {
        if let Some(c) = cache {
            c.stats.miss.fetch_add(1, Ordering::Relaxed);
        }
    }

    if let Some((every, cb)) = progress {
        core.set_progress(every, cb);
    }

    // Drive to the warmup boundary (a partial re-run from a tier-2
    // restore, or the full warmup when cold — `Core::run` takes an
    // absolute committed-instruction bound, so both are one call), and
    // checkpoint the boundary for future jobs before measuring.
    core.run(warmup, workload);
    if let Some(c) = cache {
        if !c.has_checkpoint(&boundary_meta) {
            c.store_checkpoint(&boundary_meta, &core);
        }
    }

    // The internal warmup loop in run_with_warmup is a no-op: the core
    // already stands at the boundary. This is the same call a direct run
    // makes, so the measurement is byte-identical by construction.
    let report = core.run_with_warmup(warmup, measure, workload);
    if let Some(c) = cache {
        c.store_result(&result_meta, &report);
    }
    ExecOutcome {
        report,
        cache: disposition,
        wall_s: started.elapsed().as_secs_f64(),
    }
}
