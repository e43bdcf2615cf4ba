//! Phase-sampled simulation (SimPoint-style).
//!
//! A `.cbm` interval-telemetry file carries, per interval, a 64-bucket
//! hashed histogram of committed control-flow PCs — a basic-block-vector
//! analogue that fingerprints the workload *phase* the interval executed
//! in. Phases repeat, so simulating one representative interval per phase
//! and weighting its counters by how much of the run that phase covers
//! estimates the full-run MPKI/IPC at a fraction of the cost.
//!
//! The pipeline, all deterministic and dependency-free:
//!
//! 1. [`derive_plan`] — cluster the interval signatures (hand-rolled
//!    seeded k-means over L2-normalized vectors, farthest-point seeding,
//!    index-ordered tie-breaking) and pick per cluster the member closest
//!    to the centroid as its representative slice. Weights are
//!    *instruction-count* shares, so the degenerate plan (every interval
//!    its own cluster) reconstructs the full run exactly.
//! 2. [`SamplePlan`] serialization — a small JSON file
//!    (`<workload>.plan.json`) that rides in a repo or artifact store;
//!    signatures count only committed CFIs, so a plan derived under one
//!    design transfers to every other design of the same workload and
//!    instruction bounds.
//! 3. [`run_sampled`] — evaluate a design on a plan: per slice either
//!    restore a slice checkpoint (`<design>--<workload>--s<seq>.cbs` in
//!    the plan directory, written by `cobra-sample ckpt`) or cold-start
//!    (fast-forward a shared generator with
//!    [`SkipStream`], warm up
//!    `COBRA_SAMPLE_WARMUP` instructions, then measure the slice).
//! 4. [`estimate`] — scale each slice's counter deltas by its cluster's
//!    instruction share and sum into estimated full-run totals.
//!
//! Accuracy methodology and measured error bounds live in
//! `docs/SAMPLING.md`; the CI sampled-grid leg gates estimates against
//! committed golden full-run values via `cobra-sample check`.

use crate::jsonv::{self, Json};
use cobra_core::obs::interval::HostCounters;
use cobra_sim::SplitMix64;
use cobra_uarch::{
    restore_checkpoint, CbmFile, CbsMeta, Core, CoreConfig, PerfCounters, PerfReport, SkipStream,
};
use cobra_workloads::ProgramSpec;
use std::path::Path;

/// Hard cap on clusters a plan may request — a plan is useful only when
/// it is much smaller than the run, and a runaway `k` would make the
/// sampled path slower than the full one.
pub const MAX_K: usize = 256;

/// One representative slice of a [`SamplePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSlice {
    /// Cluster index this slice represents (0-based, dense).
    pub cluster: u64,
    /// The represented interval's sequence number in the source `.cbm`.
    pub seq: u64,
    /// Absolute committed-instruction count at the slice's start
    /// boundary (warmup included), as recorded in the `.cbm`.
    pub start_inst: u64,
    /// The slice's own length in committed instructions.
    pub len: u64,
    /// Summed committed instructions over every interval of the cluster —
    /// the numerator of this slice's weight.
    pub cluster_insts: u64,
    /// How many intervals the cluster contains.
    pub members: u64,
}

impl SampleSlice {
    /// The scale factor applied to this slice's measured deltas when
    /// estimating full-run totals: `cluster_insts / len`. Exactly `1.0`
    /// in the degenerate every-interval-its-own-cluster plan.
    pub fn scale(&self) -> f64 {
        self.cluster_insts as f64 / self.len as f64
    }

    /// The cluster's share of the measured region, in `[0, 1]`.
    pub fn weight(&self, total_insts: u64) -> f64 {
        self.cluster_insts as f64 / total_insts.max(1) as f64
    }
}

/// A phase-sampling plan for one workload: which slices to simulate and
/// how to weight them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePlan {
    /// Workload the plan was derived for.
    pub workload: String,
    /// Design of the source `.cbm` — provenance only. Signatures count
    /// committed CFIs, which every design sees identically, so the plan
    /// itself is design-independent.
    pub source_design: String,
    /// Interval length of the source telemetry.
    pub interval_n: u64,
    /// Signature geometry of the source telemetry (bucket count).
    pub sig_buckets: u64,
    /// Warmup boundary (absolute committed instructions) where the
    /// measured region — and the first interval — began.
    pub warmup_insts: u64,
    /// Total committed instructions across all intervals (the measured
    /// region the plan reconstructs).
    pub total_insts: u64,
    /// Clustering seed.
    pub seed: u64,
    /// Lloyd iterations until the assignment fixed point (provenance).
    pub iterations: u64,
    /// Representative slices, one per cluster, ascending by `start_inst`.
    pub slices: Vec<SampleSlice>,
}

/// A full-run estimate reconstructed from per-slice deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated full-run counter totals, in `.cbm` wire order
    /// ([`HostCounters::to_array`]), as reals — integral (and exact) for
    /// the degenerate plan.
    pub totals: [f64; 11],
}

impl Estimate {
    /// Estimated mispredicts per kilo-instruction. Matches
    /// [`HostCounters::mpki`] bit for bit when the totals are exact
    /// integers (the degenerate-plan reconciliation guarantee).
    pub fn mpki(&self) -> f64 {
        let insts = self.totals[1];
        if insts == 0.0 {
            return 0.0;
        }
        (self.totals[4] + self.totals[5]) * 1000.0 / insts
    }

    /// Estimated instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.totals[0] == 0.0 {
            return 0.0;
        }
        self.totals[1] / self.totals[0]
    }

    /// The totals rounded to nearest as integer counters, for surfaces
    /// that want a [`PerfCounters`]-shaped view of the estimate.
    pub fn rounded_counters(&self) -> PerfCounters {
        let mut a = [0u64; 11];
        for (slot, v) in a.iter_mut().zip(self.totals) {
            *slot = v.round().max(0.0) as u64;
        }
        PerfCounters::from_host(&HostCounters::from_array(a))
    }
}

/// Scales each measured slice delta by its cluster's instruction share
/// and sums into estimated full-run totals. `deltas[i]` must be the
/// measured counters of `plan.slices[i]`.
///
/// # Panics
///
/// Panics if `deltas` and `plan.slices` disagree in length — that is a
/// caller bug, not a data property.
pub fn estimate(plan: &SamplePlan, deltas: &[HostCounters]) -> Estimate {
    assert_eq!(
        deltas.len(),
        plan.slices.len(),
        "one measured delta per plan slice"
    );
    let mut totals = [0.0f64; 11];
    for (slice, delta) in plan.slices.iter().zip(deltas) {
        let scale = slice.scale();
        for (slot, v) in totals.iter_mut().zip(delta.to_array()) {
            *slot += scale * v as f64;
        }
    }
    Estimate { totals }
}

/// Derives a [`SamplePlan`] from interval telemetry: clusters the
/// interval phase signatures into (at most) `k` phases and picks one
/// representative slice per phase.
///
/// Deterministic for a fixed `(cbm, k, seed)`: seeding is
/// farthest-point (first pick from the seeded PRNG, then maximal
/// minimum distance with index-order tie-breaking), Lloyd iterations
/// break assignment ties toward the lowest cluster index, and empty
/// clusters re-seed from the globally farthest point. No threads, no
/// hash maps — nothing to vary run to run.
///
/// # Errors
///
/// A message naming the defect: no intervals, zero-length intervals, a
/// signature-geometry mismatch, or a `k` outside `[1, MAX_K]`.
pub fn derive_plan(cbm: &CbmFile, k: usize, seed: u64) -> Result<SamplePlan, String> {
    if cbm.records.is_empty() {
        return Err("no intervals to cluster (was COBRA_INTERVAL set on the source run?)".into());
    }
    if k == 0 || k > MAX_K {
        return Err(format!("k must be within [1, {MAX_K}], got {k}"));
    }
    let buckets = cbm.meta.sig_buckets as usize;
    for r in &cbm.records {
        if r.sig.len() != buckets {
            return Err(format!(
                "interval {} carries a {}-bucket signature but the header declares {}",
                r.seq,
                r.sig.len(),
                buckets
            ));
        }
        if r.host.committed_insts == 0 {
            return Err(format!("interval {} is empty (zero instructions)", r.seq));
        }
    }
    let n = cbm.records.len();
    let k = k.min(n);

    // L2-normalized signature vectors: direction-of-phase, so interval
    // length does not dominate the geometry.
    let points: Vec<Vec<f64>> = cbm
        .records
        .iter()
        .map(|r| {
            let v: Vec<f64> = r.sig.iter().map(|&c| c as f64).collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                v.into_iter().map(|x| x / norm).collect()
            } else {
                v
            }
        })
        .collect();

    // The degenerate plan (every interval its own cluster) bypasses
    // clustering entirely: it must reconstruct the full run *exactly*
    // even when intervals share identical signatures, which k-means
    // would merge.
    let (assignment, centroids, iterations) = if k == n {
        ((0..n).collect(), points.clone(), 0)
    } else {
        kmeans(&points, k, seed)
    };

    // Representative per cluster: the member closest to the final
    // centroid, ties toward the lowest interval index. Clusters k-means
    // left empty (duplicate signatures collapse phases) are dropped and
    // the survivors renumbered densely.
    let mut slices = Vec::with_capacity(k);
    for (c, centroid) in centroids.iter().enumerate() {
        let mut best: Option<(f64, usize)> = None;
        let mut cluster_insts = 0u64;
        let mut members = 0u64;
        for (i, &a) in assignment.iter().enumerate() {
            if a != c {
                continue;
            }
            members += 1;
            cluster_insts += cbm.records[i].host.committed_insts;
            let d = dist2(&points[i], centroid);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        let Some((_, rep)) = best else {
            continue;
        };
        let r = &cbm.records[rep];
        slices.push(SampleSlice {
            cluster: 0, // renumbered below
            seq: r.seq,
            start_inst: r.start_inst,
            len: r.host.committed_insts,
            cluster_insts,
            members,
        });
    }
    slices.sort_by_key(|s| s.start_inst);
    for (i, s) in slices.iter_mut().enumerate() {
        s.cluster = i as u64;
    }

    let total_insts: u64 = cbm.records.iter().map(|r| r.host.committed_insts).sum();
    Ok(SamplePlan {
        workload: cbm.meta.workload.clone(),
        source_design: cbm.meta.design.clone(),
        interval_n: cbm.meta.interval_n,
        sig_buckets: cbm.meta.sig_buckets,
        warmup_insts: cbm.meta.warmup_insts,
        total_insts,
        seed,
        iterations,
        slices,
    })
}

/// Squared Euclidean distance.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Seeded k-means with farthest-point initialization. Returns
/// (assignment, centroids, iterations). Empty clusters are re-seeded
/// during iteration but may survive when the data holds fewer distinct
/// points than `k` — callers must tolerate them.
fn kmeans(points: &[Vec<f64>], k: usize, seed: u64) -> (Vec<usize>, Vec<Vec<f64>>, u64) {
    let n = points.len();
    let dims = points[0].len();
    let mut rng = SplitMix64::new(seed ^ 0xC0B2_A5A3_3717_1E55);

    // Farthest-point seeding: one random first pick, then repeatedly the
    // point with the maximal minimum distance to any chosen centroid
    // (ties toward the lowest index).
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.below(n as u64) as usize].clone());
    while centroids.len() < k {
        let mut far = (f64::NEG_INFINITY, 0usize);
        for (i, p) in points.iter().enumerate() {
            let d = centroids
                .iter()
                .map(|c| dist2(p, c))
                .fold(f64::INFINITY, f64::min);
            if d > far.0 {
                far = (d, i);
            }
        }
        centroids.push(points[far.1].clone());
    }

    let mut assignment = vec![0usize; n];
    let mut iterations = 0u64;
    for _ in 0..64 {
        iterations += 1;
        // Assign: nearest centroid, ties toward the lowest cluster index.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = (f64::INFINITY, 0usize);
            for (c, cent) in centroids.iter().enumerate() {
                let d = dist2(p, cent);
                if d < best.0 {
                    best = (d, c);
                }
            }
            if assignment[i] != best.1 {
                assignment[i] = best.1;
                changed = true;
            }
        }
        // Re-seed any empty cluster from the point farthest from its
        // assigned centroid (deterministic: lowest index wins ties).
        for c in 0..k {
            if assignment.contains(&c) {
                continue;
            }
            let mut far = (f64::NEG_INFINITY, 0usize);
            for (i, p) in points.iter().enumerate() {
                let d = dist2(p, &centroids[assignment[i]]);
                if d > far.0 {
                    far = (d, i);
                }
            }
            assignment[far.1] = c;
            changed = true;
        }
        // Update: centroid = mean of members.
        for (c, cent) in centroids.iter_mut().enumerate() {
            let mut sum = vec![0.0f64; dims];
            let mut count = 0u64;
            for (i, p) in points.iter().enumerate() {
                if assignment[i] == c {
                    for (s, v) in sum.iter_mut().zip(p) {
                        *s += v;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                for s in &mut sum {
                    *s /= count as f64;
                }
                *cent = sum;
            }
        }
        if !changed {
            break;
        }
    }
    (assignment, centroids, iterations)
}

/// The plan file name for `workload`: `<workload>.plan.json`.
pub fn plan_file_name(workload: &str) -> String {
    format!("{workload}.plan.json")
}

/// The slice-checkpoint file name for slice `seq` of `design` on
/// `workload`: `<design>--<workload>--s<seq>.cbs` (the same double-dash
/// convention as warmup checkpoints, with a slice suffix).
pub fn slice_ckpt_name(design: &str, workload: &str, seq: u64) -> String {
    format!("{design}--{workload}--s{seq}.cbs")
}

/// Renders a plan as its canonical JSON (parseable by [`parse_plan`] and
/// any strict JSON reader).
pub fn render_plan(plan: &SamplePlan) -> String {
    let slices: Vec<String> = plan
        .slices
        .iter()
        .map(|s| {
            format!(
                "    {{\"cluster\":{},\"seq\":{},\"start_inst\":{},\"len\":{},\
                 \"cluster_insts\":{},\"members\":{}}}",
                s.cluster, s.seq, s.start_inst, s.len, s.cluster_insts, s.members
            )
        })
        .collect();
    format!(
        "{{\n  \"format\":\"cobra-sample-plan-v1\",\n  \"workload\":{},\n  \
         \"source_design\":{},\n  \"interval_n\":{},\n  \"sig_buckets\":{},\n  \
         \"warmup_insts\":{},\n  \"total_insts\":{},\n  \"seed\":{},\n  \
         \"iterations\":{},\n  \"slices\":[\n{}\n  ]\n}}\n",
        jsonv::escape(&plan.workload),
        jsonv::escape(&plan.source_design),
        plan.interval_n,
        plan.sig_buckets,
        plan.warmup_insts,
        plan.total_insts,
        plan.seed,
        plan.iterations,
        slices.join(",\n")
    )
}

/// Parses a plan rendered by [`render_plan`].
///
/// # Errors
///
/// A message naming the first structural defect (bad JSON, wrong format
/// tag, missing or mistyped field, slices out of `start_inst` order,
/// overlapping or repeating a `seq`, inconsistent totals).
pub fn parse_plan(text: &str) -> Result<SamplePlan, String> {
    let v = jsonv::parse(text).map_err(|e| format!("plan JSON: {e}"))?;
    let fmt = v
        .get("format")
        .and_then(Json::as_str)
        .ok_or("plan JSON: missing \"format\"")?;
    if fmt != "cobra-sample-plan-v1" {
        return Err(format!("plan JSON: unknown format {fmt:?}"));
    }
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or(format!("plan JSON: missing string field {key:?}"))
    };
    let u = |obj: &Json, key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("plan JSON: missing integer field {key:?}"))
    };
    let slices_json = v
        .get("slices")
        .and_then(Json::as_arr)
        .ok_or("plan JSON: missing \"slices\" array")?;
    let mut slices = Vec::with_capacity(slices_json.len());
    for sj in slices_json {
        let len = u(sj, "len")?;
        if len == 0 {
            return Err("plan JSON: slice with len 0".into());
        }
        slices.push(SampleSlice {
            cluster: u(sj, "cluster")?,
            seq: u(sj, "seq")?,
            start_inst: u(sj, "start_inst")?,
            len,
            cluster_insts: u(sj, "cluster_insts")?,
            members: u(sj, "members")?,
        });
    }
    if slices.is_empty() {
        return Err("plan JSON: no slices".into());
    }
    for (i, pair) in slices.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        let defect = if b.start_inst < a.start_inst {
            "is out of start_inst order after"
        } else if b.start_inst < a.start_inst.saturating_add(a.len) {
            "overlaps"
        } else {
            continue;
        };
        return Err(format!(
            "plan JSON: slice {} (s{}, start_inst {}) {defect} slice {i} \
             (s{}, start_inst {}, len {})",
            i + 1,
            b.seq,
            b.start_inst,
            a.seq,
            a.start_inst,
            a.len
        ));
    }
    let mut by_seq: Vec<(u64, usize)> =
        slices.iter().enumerate().map(|(i, s)| (s.seq, i)).collect();
    by_seq.sort_unstable();
    if let Some(w) = by_seq.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(format!(
            "plan JSON: slices {} and {} repeat seq {}",
            w[0].1, w[1].1, w[0].0
        ));
    }
    let plan = SamplePlan {
        workload: s("workload")?,
        source_design: s("source_design")?,
        interval_n: u(&v, "interval_n")?,
        sig_buckets: u(&v, "sig_buckets")?,
        warmup_insts: u(&v, "warmup_insts")?,
        total_insts: u(&v, "total_insts")?,
        seed: u(&v, "seed")?,
        iterations: u(&v, "iterations")?,
        slices,
    };
    let covered: u64 = plan.slices.iter().map(|s| s.cluster_insts).sum();
    if covered != plan.total_insts {
        return Err(format!(
            "plan JSON: cluster instruction counts sum to {covered}, \
             but total_insts is {} — the plan does not partition the run",
            plan.total_insts
        ));
    }
    Ok(plan)
}

/// Loads and parses `<path>`.
///
/// # Errors
///
/// I/O errors and [`parse_plan`] defects, with the path named.
pub fn load_plan(path: &Path) -> Result<SamplePlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_plan(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How [`run_sampled`] reached each slice's start boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Every slice restored a `.cbs` slice checkpoint — exact warm state,
    /// so the only estimation error is the clustering itself.
    Checkpoint,
    /// Slices fast-forwarded a shared generator and warmed up cold —
    /// approximate warm state, no per-design capture cost; the mode the
    /// autotuner uses on never-simulated candidate designs.
    ColdStart,
}

impl SampleMode {
    /// Stable lowercase token for logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SampleMode::Checkpoint => "ckpt",
            SampleMode::ColdStart => "cold",
        }
    }
}

/// The outcome of a sampled evaluation.
#[derive(Debug, Clone)]
pub struct SampledOutcome {
    /// A full-run-shaped report carrying the *estimated* counters
    /// (rounded); attribution is empty — per-component blame does not
    /// survive weighting.
    pub report: PerfReport,
    /// The raw estimate, unrounded.
    pub estimate: Estimate,
    /// Measured per-slice deltas, in plan-slice order.
    pub deltas: Vec<HostCounters>,
    /// How slice boundaries were reached.
    pub mode: SampleMode,
}

/// Evaluates `design` on `spec` under `plan`, simulating only the plan's
/// slices.
///
/// If every slice checkpoint (`slice_ckpt_name`) exists under
/// `ckpt_dir`, slices restore exact warm state; otherwise all slices run
/// cold-start (mixed provenance would make the estimate hard to reason
/// about, so the choice is all-or-nothing per evaluation).
///
/// # Errors
///
/// Composition failures, checkpoint identity/decode errors, and plans
/// whose boundaries the workload cannot reach.
pub fn run_sampled(
    design: &cobra_core::composer::Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    ckpt_dir: Option<&Path>,
) -> Result<SampledOutcome, String> {
    let have_all_ckpts = ckpt_dir.is_some_and(|dir| {
        plan.slices.iter().all(|s| {
            dir.join(slice_ckpt_name(&design.name, &plan.workload, s.seq))
                .is_file()
        })
    });
    let (deltas, mode) = if have_all_ckpts {
        (
            run_slices_from_checkpoints(design, cfg, spec, plan, ckpt_dir.expect("checked"))?,
            SampleMode::Checkpoint,
        )
    } else {
        (
            run_slices_cold(design, cfg, spec, plan)?,
            SampleMode::ColdStart,
        )
    };
    let estimate = estimate(plan, &deltas);
    let report = PerfReport {
        workload: spec.name.clone(),
        design: design.name.clone(),
        counters: estimate.rounded_counters(),
        attribution: Default::default(),
    };
    Ok(SampledOutcome {
        report,
        estimate,
        deltas,
        mode,
    })
}

/// Exact-state slice evaluation: each slice restores its slice checkpoint
/// and runs for the slice length. One core serves the slices in plan
/// order. A restore moves its stream only forward, so each slice replays
/// just the gap since the previous slice's end, and gaps shorter than the
/// core's read-ahead cost no stream reads at all. A slice that starts
/// before the previous one ended gets a fresh core, replaying from zero.
fn run_slices_from_checkpoints(
    design: &cobra_core::composer::Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    dir: &Path,
) -> Result<Vec<HostCounters>, String> {
    let fresh_core = || {
        Core::new(design, cfg, spec.build()).map_err(|e| format!("{}: compose: {e}", design.name))
    };
    let mut core = fresh_core()?;
    let mut prev_end = 0;
    let mut deltas = Vec::with_capacity(plan.slices.len());
    for slice in &plan.slices {
        let path = dir.join(slice_ckpt_name(&design.name, &plan.workload, slice.seq));
        if slice.start_inst < prev_end {
            core = fresh_core()?;
        }
        let meta = CbsMeta::for_run(design, &cfg, &plan.workload, slice.start_inst);
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        restore_checkpoint(std::io::BufReader::new(file), &meta, &mut core)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let baseline = *core.counters();
        let end = slice.start_inst + slice.len;
        let report = core.run(end, &plan.workload);
        if report.counters.committed_insts < end {
            return Err(format!(
                "slice s{} ends at instruction {end} but the workload \
                 ended at {} — plan and workload disagree",
                slice.seq, report.counters.committed_insts
            ));
        }
        deltas.push(report.counters.delta(&baseline).to_host());
        prev_end = end;
    }
    Ok(deltas)
}

/// Cold-start slice evaluation: slices share one workload generator
/// (ascending `start_inst`); each slice fast-forwards the shared cursor,
/// warms a fresh core for up to `COBRA_SAMPLE_WARMUP` instructions
/// (default twice the plan's interval length), then
/// measures the slice. Falls back to a private generator for a slice the
/// shared cursor has already overrun (fetch read-ahead can overshoot a
/// tightly following boundary).
fn run_slices_cold(
    design: &cobra_core::composer::Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    plan: &SamplePlan,
) -> Result<Vec<HostCounters>, String> {
    let warmup_req = cobra_core::config::get()
        .sample_warmup
        .unwrap_or(plan.interval_n * 2);
    let mut shared = spec.build();
    let mut consumed = 0u64;
    let mut deltas = Vec::with_capacity(plan.slices.len());
    for slice in &plan.slices {
        let warm_start = slice.start_inst.saturating_sub(warmup_req);
        let delta = if warm_start >= consumed {
            // Shared-cursor path: skip forward, run, take the stream back.
            let warm = slice.start_inst - warm_start;
            let skip = warm_start - consumed;
            let stream = SkipStream::new(&mut shared, skip);
            let (d, pulls) = run_one_slice(design, cfg, stream, warm, slice)?;
            consumed += pulls;
            d
        } else {
            // Overrun: rebuild a private generator from instruction zero.
            let warm = slice.start_inst - warm_start;
            let stream = SkipStream::new(spec.build(), warm_start);
            let (d, _) = run_one_slice(design, cfg, stream, warm, slice)?;
            d
        };
        deltas.push(delta);
    }
    Ok(deltas)
}

/// Warm + measure one cold-started slice on a fresh core; returns the
/// measured delta and how many instructions the core pulled from the
/// stream (the shared-cursor advance).
fn run_one_slice<S: cobra_uarch::InstructionStream>(
    design: &cobra_core::composer::Design,
    cfg: CoreConfig,
    stream: SkipStream<S>,
    warm: u64,
    slice: &SampleSlice,
) -> Result<(HostCounters, u64), String> {
    let mut core =
        Core::new(design, cfg, stream).map_err(|e| format!("{}: compose: {e}", design.name))?;
    core.run(warm, "slice-warmup");
    let baseline = *core.counters();
    let end = warm + slice.len;
    let report = core.run(end, "slice");
    if report.counters.committed_insts < end {
        return Err(format!(
            "slice s{} needs {} instructions past its warmup but the \
             workload ended at {} — plan and workload disagree",
            slice.seq, slice.len, report.counters.committed_insts
        ));
    }
    let delta = report.counters.delta(&baseline).to_host();
    let pulls = core.into_stream().pulls();
    Ok((delta, pulls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::obs::interval::IntervalRecord;
    use cobra_uarch::CbmMeta;

    /// A synthetic `.cbm` with `n` intervals alternating between two
    /// phases (distinct signatures), deterministic counters.
    fn synthetic_cbm(n: usize) -> CbmFile {
        let buckets = 64usize;
        let mut records = Vec::new();
        let mut start = 8_000u64;
        for i in 0..n {
            let mut sig = vec![0u32; buckets];
            // Two clearly separated phases in signature space.
            if i % 2 == 0 {
                sig[3] = 90;
                sig[17] = 10;
            } else {
                sig[40] = 80;
                sig[55] = 20;
            }
            let insts = 2_000 + (i as u64 % 3) * 7; // uneven lengths
            let host = HostCounters {
                cycles: insts + 500 + i as u64,
                committed_insts: insts,
                cond_branches: 300,
                cfis: 400,
                cond_mispredicts: 20 + (i as u64 % 5),
                target_mispredicts: i as u64 % 2,
                override_redirects: 50,
                history_replays: 10,
                fetch_bubbles: 40,
                icache_stall_cycles: 0,
                rob_stall_cycles: 30,
            };
            records.push(IntervalRecord {
                seq: i as u64,
                start_inst: start,
                host,
                attr: Default::default(),
                gauges: Default::default(),
                sig,
            });
            start += insts;
        }
        let mut totals = HostCounters::default();
        for r in &records {
            totals.accumulate(&r.host);
        }
        CbmFile {
            meta: CbmMeta {
                design: "TAGE-L".into(),
                topology: "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1".into(),
                config_hash: 7,
                workload: "synthetic".into(),
                warmup_insts: 8_000,
                interval_n: 2_000,
                sig_buckets: 64,
            },
            labels: Vec::new(),
            records,
            totals_host: totals,
            totals_attr: Default::default(),
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let cbm = synthetic_cbm(12);
        for k in [1, 2, 3, 5, 12] {
            let plan = derive_plan(&cbm, k, 42).unwrap();
            let total: f64 = plan.slices.iter().map(|s| s.weight(plan.total_insts)).sum();
            assert!((total - 1.0).abs() < 1e-12, "k={k}: weights sum to {total}");
            let covered: u64 = plan.slices.iter().map(|s| s.cluster_insts).sum();
            assert_eq!(covered, plan.total_insts);
        }
    }

    #[test]
    fn two_phase_signal_recovers_two_clusters() {
        let cbm = synthetic_cbm(10);
        let plan = derive_plan(&cbm, 2, 1).unwrap();
        assert_eq!(plan.slices.len(), 2);
        // Each cluster holds exactly the even or odd intervals.
        assert_eq!(plan.slices[0].members, 5);
        assert_eq!(plan.slices[1].members, 5);
    }

    #[test]
    fn degenerate_plan_reconciles_exactly() {
        let cbm = synthetic_cbm(9);
        let plan = derive_plan(&cbm, 9, 7).unwrap();
        assert_eq!(plan.slices.len(), 9);
        // Feed the true per-interval deltas as "measured" slices: the
        // estimate must equal the totals bit for bit.
        let by_seq: Vec<HostCounters> = plan
            .slices
            .iter()
            .map(|s| cbm.records[s.seq as usize].host)
            .collect();
        let est = estimate(&plan, &by_seq);
        assert_eq!(est.mpki(), cbm.totals_host.mpki());
        assert_eq!(est.ipc(), cbm.totals_host.ipc());
        for (got, want) in est.totals.iter().zip(cbm.totals_host.to_array()) {
            assert_eq!(*got, want as f64);
        }
    }

    #[test]
    fn plan_json_round_trips() {
        let cbm = synthetic_cbm(8);
        let plan = derive_plan(&cbm, 3, 99).unwrap();
        let text = render_plan(&plan);
        let back = parse_plan(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn parse_rejects_non_partition() {
        let cbm = synthetic_cbm(4);
        let plan = derive_plan(&cbm, 2, 5).unwrap();
        let text = render_plan(&plan).replace(
            &format!("\"total_insts\":{}", plan.total_insts),
            &format!("\"total_insts\":{}", plan.total_insts + 1),
        );
        let err = parse_plan(&text).unwrap_err();
        assert!(err.contains("partition"), "unexpected error: {err}");
    }

    #[test]
    fn parse_rejects_disordered_slices() {
        let cbm = synthetic_cbm(12);
        let plan = derive_plan(&cbm, 3, 5).unwrap();
        let (a, b) = (plan.slices[0].clone(), plan.slices[1].clone());
        let mut swapped = plan.clone();
        swapped.slices.swap(0, 1);
        let mut overlapping = plan.clone();
        overlapping.slices[1].start_inst = a.start_inst + a.len - 1;
        let mut repeated = plan.clone();
        repeated.slices[2].seq = b.seq;
        let seq = format!("seq {}", b.seq);
        // (case, plan, words the error must contain)
        let rows = [
            (
                "out of order",
                swapped,
                vec!["slice 1", "slice 0", "start_inst order"],
            ),
            (
                "overlapping",
                overlapping,
                vec!["slice 1", "slice 0", "overlaps"],
            ),
            ("repeated seq", repeated, vec!["slices 1 and 2", &seq]),
        ];
        for (case, p, words) in rows {
            let err = parse_plan(&render_plan(&p)).unwrap_err();
            for w in words {
                assert!(err.contains(w), "{case}: {err:?} lacks {w:?}");
            }
        }
        // Back to back is not an overlap.
        let mut p = plan.clone();
        p.slices[1].start_inst = a.start_inst + a.len;
        parse_plan(&render_plan(&p)).unwrap();
    }

    #[test]
    fn committed_plans_parse() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans");
        let mut n = 0;
        for e in std::fs::read_dir(&dir).unwrap() {
            let path = e.unwrap().path();
            if path.to_string_lossy().ends_with(".plan.json") {
                load_plan(&path).unwrap();
                n += 1;
            }
        }
        assert_eq!(n, 10, "one committed plan per SPECint17 profile");
    }

    #[test]
    fn clustering_is_seed_stable() {
        let cbm = synthetic_cbm(16);
        let a = render_plan(&derive_plan(&cbm, 4, 1234).unwrap());
        let b = render_plan(&derive_plan(&cbm, 4, 1234).unwrap());
        assert_eq!(a, b);
        let c = render_plan(&derive_plan(&cbm, 4, 4321).unwrap());
        // A different seed may pick different representatives, but the
        // result is still a valid partition (checked by parse).
        parse_plan(&c).unwrap();
    }
}
