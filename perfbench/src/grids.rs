//! The two grid workloads: `grid_exact` (the Fig-10 grid replayed from
//! `.cbt` traces, simulated in full) and `grid_sampled` (the same 30 cells
//! estimated from the committed phase-sampling plans, restoring slice
//! checkpoints).

use crate::fixture::{self, CellKey, CellRow, Golden};
use crate::span::{self, timed, Span, Traced};
use crate::{stats, Ctx, Outcome};
use cobra_bench::runner::parallel_map_on;
use cobra_bench::sampling::{self, SamplePlan};
use cobra_core::composer::Design;
use cobra_core::obs::interval::HostCounters;
use cobra_uarch::{
    restore_checkpoint, save_checkpoint, CbsMeta, Core, CoreConfig, InstructionStream,
    PerfCounters, TraceSim,
};
use cobra_workloads::{spec17, ProgramSpec, TraceProgram, SPEC17_NAMES};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `grid_exact` set-ups per run; `setup_s` is their median.
const EXACT_SETUPS: usize = 3;

/// `grid_sampled` set-ups per run. One set-up simulates every cell up to
/// its last slice, as long as a pass of the exact grid, so only two fit
/// in the time all runs of the benchmark are given; `setup_s` is their
/// median.
const SAMPLED_SETUPS: usize = 2;

/// Tolerance, as a share of threads × wall, within which the traced
/// pass's per-layer self times plus runner idle time must add back up to
/// the worker-seconds the pass took.
pub const RECONCILE_TOLERANCE: f64 = 0.01;

/// The 30 cells: every stock design on every SPECint17 profile.
struct Grid {
    designs: Vec<Design>,
    specs: Vec<ProgramSpec>,
    /// `(design index, spec index)` in the seed's order.
    order: Vec<(usize, usize)>,
}

impl Grid {
    fn new(seed: u64) -> Grid {
        let designs = cobra_core::designs::all();
        let specs: Vec<ProgramSpec> = SPEC17_NAMES.iter().map(|w| spec17(w)).collect();
        let mut order: Vec<(usize, usize)> = (0..designs.len())
            .flat_map(|d| (0..specs.len()).map(move |s| (d, s)))
            .collect();
        crate::shuffle(&mut order, seed);
        Grid {
            designs,
            specs,
            order,
        }
    }

    fn key(&self, (d, s): (usize, usize)) -> CellKey {
        (self.designs[d].name.clone(), self.specs[s].name.clone())
    }
}

fn cfg() -> CoreConfig {
    CoreConfig::boom_4wide()
}

/// What one cell of a grid pass produced.
struct CellOut {
    cell: (usize, usize),
    /// The cell's report counters (estimated, rounded, for sampled cells).
    counters: PerfCounters,
    /// MPKI (the unrounded estimate for sampled cells).
    mpki: f64,
    /// BPU stats (exact: whole run; sampled traced: summed slice deltas).
    bpu: Option<[u64; 7]>,
    /// Counters simulated in total (warm-up included; slices only when
    /// sampled).
    simulated: PerfCounters,
    /// Per-slice deltas (sampled only).
    deltas: Vec<HostCounters>,
    /// Host seconds for the cell.
    secs: f64,
    /// Sampled: whether every slice restored a checkpoint.
    restored: bool,
}

impl CellOut {
    fn new(cell: (usize, usize)) -> CellOut {
        CellOut {
            cell,
            counters: PerfCounters::default(),
            mpki: 0.0,
            bpu: None,
            simulated: PerfCounters::default(),
            deltas: Vec::new(),
            secs: 0.0,
            restored: false,
        }
    }
}

struct Pass {
    wall: f64,
    /// Start and end on the span clock.
    span_ns: (u64, u64),
    cells: Vec<CellOut>,
}

/// Runs `f` over the cells in `order` on the benchmark's worker threads,
/// timing the pass and each cell; with tracing on, each cell is a
/// `runner.job` span.
fn run_pass(
    ctx: &Ctx,
    order: &[(usize, usize)],
    f: impl Fn((usize, usize)) -> Result<CellOut, String> + Sync,
) -> Result<Pass, String> {
    let t = Instant::now();
    let t0_ns = span::now_ns();
    let cells = parallel_map_on(ctx.threads, order, |_, &cell| {
        let t = Instant::now();
        let out = {
            let _job = span::enter("runner.job");
            f(cell)
        };
        span::flush_thread();
        out.map(|out| CellOut {
            secs: t.elapsed().as_secs_f64(),
            ..out
        })
    });
    Ok(Pass {
        wall: t.elapsed().as_secs_f64(),
        span_ns: (t0_ns, span::now_ns()),
        cells: cells.into_iter().collect::<Result<_, _>>()?,
    })
}

/// Fewest timed passes per `grid_exact` run. A pass outlasts `--seconds`
/// there, and with three the median over passes sets aside one pass that
/// other tenants of a shared host slowed down.
const EXACT_MIN_PASSES: usize = 3;

/// Fewest timed passes per `grid_sampled` run. A pass there takes about
/// half of `--seconds`, so `--seconds` alone usually asks for more.
const SAMPLED_MIN_PASSES: usize = 2;

/// Repeats `pass` until `ctx.seconds` have elapsed, and at least
/// `min_passes` times, so a run reports a median of passes even when
/// one pass outlasts `ctx.seconds`. The first pass runs the cells in the
/// grid's order, and each later one in a new order drawn from the seed:
/// which cells share the workers, and which one runs last alone, then
/// changes from pass to pass, and a median over passes evens it out.
fn timed_passes(
    ctx: &Ctx,
    grid: &Grid,
    min_passes: usize,
    mut pass: impl FnMut(&[(usize, usize)]) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let t = Instant::now();
    let mut order = grid.order.clone();
    let mut passes = Vec::new();
    while passes.len() < min_passes || t.elapsed().as_secs_f64() < ctx.seconds {
        passes.push(pass(&order)?);
        crate::shuffle(&mut order, ctx.seed.wrapping_add(passes.len() as u64));
    }
    Ok(passes)
}

/// The cells of a paired pass: each cell run untraced and traced back to
/// back on one worker.
struct Pairs {
    untraced: Vec<CellOut>,
    traced: Vec<CellOut>,
    /// Per cell, the traced twin's extra host time in % of the untraced
    /// twin's.
    overhead_pct: Vec<f64>,
}

/// Runs every cell twice in a row with recording on: once untraced
/// (`f(cell, false)` with this thread's recording paused) and once
/// traced (`f(cell, true)`). The order alternates from cell to cell, so
/// neither twin always runs second. Host drift over a whole pass then
/// cancels out of the per-cell overhead. The twins' spans are discarded.
fn paired_pass(
    ctx: &Ctx,
    grid: &Grid,
    f: impl Fn((usize, usize), bool) -> Result<CellOut, String> + Sync,
) -> Result<Pairs, String> {
    let twin = |cell, traced: bool| {
        let t = Instant::now();
        let out = if traced {
            f(cell, true)
        } else {
            span::paused(|| f(cell, false))
        };
        out.map(|out| CellOut {
            secs: t.elapsed().as_secs_f64(),
            ..out
        })
    };
    span::set_enabled(true);
    let pairs = parallel_map_on(ctx.threads, &grid.order, |k, &cell| {
        let pair = if k % 2 == 0 {
            let u = twin(cell, false);
            (u, twin(cell, true))
        } else {
            let t = twin(cell, true);
            (twin(cell, false), t)
        };
        span::flush_thread();
        pair
    });
    span::set_enabled(false);
    span::take_all();
    let mut out = Pairs {
        untraced: Vec::new(),
        traced: Vec::new(),
        overhead_pct: Vec::new(),
    };
    for (u, t) in pairs {
        let (u, t) = (u?, t?);
        out.overhead_pct.push((t.secs - u.secs) * 100.0 / u.secs);
        out.untraced.push(u);
        out.traced.push(t);
    }
    Ok(out)
}

/// Flushes every file the set-up wrote under `dir` to disk, so that
/// background writeback does not overlap the timed passes.
fn sync_dir(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Checks one cell against the fixture; `bpu` is compared when present.
fn check_fixture(
    out: &mut Outcome,
    fixture: Option<&BTreeMap<CellKey, CellRow>>,
    key: &CellKey,
    counters: &PerfCounters,
    bpu: Option<[u64; 7]>,
) -> bool {
    let Some(row) = fixture.and_then(|f| f.get(key)) else {
        out.note(format!("{}/{}: no fixture row", key.0, key.1));
        return false;
    };
    if row.counters != fixture::counters_array(counters) {
        out.note(format!(
            "{}/{}: PerfCounters differ from the fixture",
            key.0, key.1
        ));
        return false;
    }
    if bpu.is_some_and(|b| b != row.bpu) {
        out.note(format!(
            "{}/{}: BpuStats differ from the fixture",
            key.0, key.1
        ));
        return false;
    }
    true
}

/// The end-to-end metrics both grids report from their timed passes.
fn grid_e2e(out: &mut Outcome, passes: &[Pass], setups: &[f64]) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let wall = stats::median(&walls);
    let sim: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.cells
                .iter()
                .map(|c| c.simulated.committed_insts as f64)
                .sum::<f64>()
                / p.wall
                / 1e6
        })
        .collect();
    // A cell's latency is the median of its wall times over the passes,
    // so one slowed pass moves no cell; the percentiles are over cells.
    let mut per_cell: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for c in passes.iter().flat_map(|p| &p.cells) {
        per_cell.entry(c.cell).or_default().push(c.secs * 1e3);
    }
    let lat: Vec<f64> = per_cell.values().map(|xs| stats::median(xs)).collect();
    let cells = passes[0].cells.len() as f64;
    out.set("setup_s", stats::median(setups));
    out.set("wall_s", wall);
    out.set("sim_mips", stats::median(&sim));
    out.set("jobs_per_s", cells / wall);
    out.set("latency_p50_ms", stats::percentile(&lat, 50.0));
    out.set("latency_p90_ms", stats::percentile(&lat, 90.0));
    out.samples("latency", &lat);
}

/// Mean |MPKI − paper Fig-10 MPKI| ÷ paper over a pass's cells, in %.
fn paper_err(grid: &Grid, pass: &Pass) -> f64 {
    let errs: Vec<f64> = pass
        .cells
        .iter()
        .map(|c| {
            let (d, s) = c.cell;
            let paper = fixture::paper_mpki(&grid.designs[d].name, s);
            fixture::err_pct(c.mpki, paper)
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Spans that only wrap layer calls. Their self time is host time inside
/// a job that no layer span covers.
const WRAPPERS: &[&str] = &["runner.job", "sampling.slice"];

/// Per-layer numbers shared by both grids' traced passes: runner idle,
/// span totals, tracing overhead and the reconciliation of layer self
/// times with worker-seconds.
fn layer_common(out: &mut Outcome, ctx: &Ctx, spans: &[Span], traced: &Pass, pairs: &Pairs) {
    let totals = span::by_name(spans);
    // Idle time per worker, from its own timeline: the gaps before,
    // between and after its jobs within the pass. A worker that ran no
    // job was idle for the whole pass.
    let (t0, t1) = traced.span_ns;
    let mut jobs: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "runner.job") {
        jobs.entry(s.thread)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut idle_ns = (ctx.threads.saturating_sub(jobs.len()) as u64) * (t1 - t0);
    for iv in jobs.values_mut() {
        iv.sort_unstable();
        let mut at = t0;
        for &(start, end) in iv.iter() {
            idle_ns += start.saturating_sub(at);
            at = end;
        }
        idle_ns += t1.saturating_sub(at);
    }
    let idle_s = idle_ns as f64 / 1e9;
    let worker_s = ctx.threads as f64 * traced.wall;
    let (mut layer_s, mut unattributed_s) = (0.0, 0.0);
    for (name, t) in &totals {
        let self_s = t.1 as f64 / 1e9;
        if WRAPPERS.contains(name) {
            unattributed_s += self_s;
        } else {
            layer_s += self_s;
        }
    }
    // What the layer spans leave of the worker-seconds once idle time is
    // taken out: the wrappers' own time, plus any job time outside every
    // span. A layer call that loses its span, or a span that is not
    // nested in its job, pushes this past the tolerance.
    let residual = (worker_s - idle_s - layer_s).abs() / worker_s;
    out.op(
        residual <= RECONCILE_TOLERANCE && jobs.len() <= ctx.threads,
        || {
            format!(
                "layer self times {layer_s:.3}s + idle {idle_s:.3}s vs threads x wall \
                 {worker_s:.3}s: {:.2}% unaccounted, tolerance {:.0}%; {} worker thread(s)",
                residual * 100.0,
                RECONCILE_TOLERANCE * 100.0,
                jobs.len()
            )
        },
    );
    let s = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    out.set("runner.idle_s", idle_s);
    out.set("workloads.open_s", s("workloads.open"));
    out.set("workloads.next_block_s", s("workloads.next_block"));
    out.set("composer.build_s", s("composer.build"));
    out.set("uarch.run_s", s("uarch.run"));
    out.set(
        "uarch.self_s",
        totals.get("uarch.run").map_or(0.0, |t| t.1 as f64 / 1e9),
    );
    out.set("trace.reconcile_err_pct", residual * 100.0);
    out.set("trace.unattributed_s", unattributed_s);
    out.set("trace.overhead_pct", stats::median(&pairs.overhead_pct));
    let mut lines = vec![
        format!(
            "traced pass {:.3}s on {} thread(s): layers {layer_s:.3}s + unattributed \
             {unattributed_s:.3}s + idle {idle_s:.3}s of {worker_s:.3}s",
            traced.wall, ctx.threads
        ),
        format!(
            "tracing overhead per cell (traced vs untraced twin), median of {}: {:.2}%",
            pairs.overhead_pct.len(),
            stats::median(&pairs.overhead_pct)
        ),
        "span totals (total / self / calls):".to_string(),
    ];
    for (name, (total, selfns, calls)) in &totals {
        lines.push(format!(
            "  {name:<22} {:>9.3}s {:>9.3}s {calls:>7}",
            *total as f64 / 1e9,
            *selfns as f64 / 1e9
        ));
    }
    for line in lines {
        out.info(line);
    }
}

/// Simulated-count layer metrics from a traced pass's cells.
fn layer_counts(out: &mut Outcome, pass: &Pass) {
    let mut sim = HostCounters::default();
    let mut bpu = [0u64; 7];
    for c in &pass.cells {
        sim.accumulate(&c.simulated.to_host());
        if let Some(b) = c.bpu {
            for (a, x) in bpu.iter_mut().zip(b) {
                *a += x;
            }
        }
    }
    let run_s = out.get("uarch.run_s");
    out.set("uarch.cycles", sim.cycles as f64);
    out.set("uarch.fetch_bubbles", sim.fetch_bubbles as f64);
    out.set("uarch.rob_stall_cycles", sim.rob_stall_cycles as f64);
    out.set("uarch.ns_per_cycle", run_s * 1e9 / sim.cycles.max(1) as f64);
    // [queries, accepts, commits, cond_branches, mispredicts, revisions, repair_entries]
    out.set("composer.queries", bpu[0] as f64);
    out.set("composer.commits", bpu[2] as f64);
    out.set(
        "composer.useful_ratio",
        bpu[2] as f64 / bpu[0].max(1) as f64,
    );
    out.set("composer.revisions", bpu[5] as f64);
    out.set("composer.repair_entries", bpu[6] as f64);
}

// ---------------------------------------------------------------- exact

/// Builds a core on `stream`, simulates warm-up then the measured
/// region, and returns the report, whole-run counters and BPU stats.
fn exact_cell<S: InstructionStream>(
    design: &Design,
    stream: S,
    name: &str,
    warmup: u64,
    measure: u64,
) -> (PerfCounters, PerfCounters, [u64; 7]) {
    let mut core = timed("composer.build", || Core::new(design, cfg(), stream))
        .expect("stock designs compose");
    let report = timed("uarch.run", || core.run_with_warmup(warmup, measure, name));
    let bpu = fixture::bpu_array(core.bpu().stats());
    (report.counters, *core.counters(), bpu)
}

/// One exact cell, replaying its profile's `.cbt` trace; `traced` wraps
/// the trace in [`Traced`].
fn exact_one(
    grid: &Grid,
    traces: &[PathBuf],
    golden: &Golden,
    (d, s): (usize, usize),
    traced: bool,
) -> Result<CellOut, String> {
    let measure = golden.insts;
    let warmup = measure * 2 / 5;
    let design = &grid.designs[d];
    let name = &grid.specs[s].name;
    let program = timed("workloads.open", || TraceProgram::open(&traces[s]))
        .map_err(|e| format!("{}: {e}", traces[s].display()))?;
    let (counters, simulated, bpu) = if traced {
        exact_cell(design, Traced(program), name, warmup, measure)
    } else {
        exact_cell(design, program, name, warmup, measure)
    };
    Ok(CellOut {
        mpki: counters.mpki(),
        counters,
        bpu: Some(bpu),
        simulated,
        ..CellOut::new((d, s))
    })
}

fn exact_pass(
    ctx: &Ctx,
    grid: &Grid,
    order: &[(usize, usize)],
    traces: &[PathBuf],
    golden: &Golden,
    traced: bool,
) -> Result<Pass, String> {
    run_pass(ctx, order, |cell| {
        exact_one(grid, traces, golden, cell, traced)
    })
}

/// `grid_exact`: the Fig-10 grid, 3 designs × 10 SPECint17 profiles,
/// each cell replaying a `.cbt` trace captured during set-up.
pub fn grid_exact(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let golden = fixture::load_golden(&ctx.root)?;
    let fixture_cells = fixture::load_cells(&ctx.root)?;
    let grid = Grid::new(ctx.seed);
    let dir = ctx.tmp.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Set-up: capture one .cbt per profile, sized for warm-up plus the
    // measured region plus fetch-ahead slack.
    let reps = if ctx.trace { 1 } else { EXACT_SETUPS };
    let mut setups = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        traces = parallel_map_on(ctx.threads, &grid.specs, |_, spec| {
            cobra_bench::capture_workload(spec, golden.insts, &dir).map(|(_, p)| p)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("trace capture: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
    }
    sync_dir(&dir)?;

    let check = |out: &mut Outcome, cells: &[CellOut]| {
        let fx = fixture_cells.get("grid_exact");
        let mut worst = 0.0f64;
        for c in cells {
            let key = grid.key(c.cell);
            let mpki = c.mpki;
            let ok = match golden.mpki.get(&key) {
                Some(&g) => {
                    worst = worst.max(fixture::err_pct(mpki, g));
                    let ok = fixture::mpki_matches(mpki, g);
                    if !ok {
                        out.note(format!(
                            "{}/{}: MPKI {mpki:.6} != golden {g:.6}",
                            key.0, key.1
                        ));
                    }
                    ok
                }
                None => {
                    out.note(format!("{}/{}: no golden cell", key.0, key.1));
                    false
                }
            };
            let fx_ok = ctx.bless || check_fixture(out, fx, &key, &c.counters, c.bpu);
            out.op(ok && fx_ok, String::new);
        }
        worst
    };

    if ctx.bless {
        let pass = exact_pass(ctx, &grid, &grid.order, &traces, &golden, false)?;
        check(out, &pass.cells);
        let rows = pass
            .cells
            .iter()
            .map(|c| {
                let row = CellRow {
                    counters: fixture::counters_array(&c.counters),
                    bpu: c.bpu.expect("exact cells record BPU stats"),
                };
                (grid.key(c.cell), row)
            })
            .collect();
        return fixture::bless_cells(&ctx.root, "grid_exact", rows);
    }

    if !ctx.trace {
        let passes = timed_passes(ctx, &grid, EXACT_MIN_PASSES, |order| {
            exact_pass(ctx, &grid, order, &traces, &golden, false)
        })?;
        let mut worst = 0.0f64;
        for p in &passes {
            worst = worst.max(check(out, &p.cells));
        }
        grid_e2e(out, &passes, &setups);
        out.set("paper_mpki_err_pct", paper_err(&grid, &passes[0]));
        out.info(format!(
            "sampled_err_max_pct (exact vs golden, rounding only) = {worst} %"
        ));
        return Ok(());
    }

    let pairs = paired_pass(ctx, &grid, |cell, traced| {
        exact_one(&grid, &traces, &golden, cell, traced)
    })?;
    span::set_enabled(true);
    let traced = exact_pass(ctx, &grid, &grid.order, &traces, &golden, true)?;
    let spans = span::take_all();
    // The predictor alone: TraceSim over the same traces, outside the
    // reconciled pass.
    let predict = run_pass(ctx, &grid.order, |(d, s)| {
        let mut sim = TraceSim::new(&grid.designs[d]).map_err(|e| e.to_string())?;
        let mut program = Traced(
            TraceProgram::open(&traces[s]).map_err(|e| format!("{}: {e}", traces[s].display()))?,
        );
        timed("composer.predict", || {
            sim.run(&mut program, golden.insts + golden.insts * 2 / 5)
        });
        Ok(CellOut::new((d, s)))
    })?;
    let predict_spans = span::take_all();
    span::set_enabled(false);
    ctx.write_spans(&[&spans[..], &predict_spans[..]].concat())?;

    let mut worst = 0.0f64;
    for cells in [&pairs.untraced, &pairs.traced, &traced.cells] {
        worst = worst.max(check(out, cells));
    }
    out.set("sampled_err_max_pct", worst);
    layer_common(out, ctx, &spans, &traced, &pairs);
    layer_counts(out, &traced);
    let predict_totals = span::by_name(&predict_spans);
    out.set(
        "composer.predict_s",
        predict_totals
            .get("composer.predict")
            .map_or(0.0, |t| t.1 as f64 / 1e9),
    );
    out.info(format!("TraceSim pass wall = {} s", predict.wall));
    Ok(())
}

// -------------------------------------------------------------- sampled

/// A `Read` that counts the bytes it hands out.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Writes every slice checkpoint of one cell in a single forward pass,
/// returning the bytes written.
fn capture_slices(
    design: &Design,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    dir: &Path,
) -> Result<u64, String> {
    let mut core = Core::new(design, cfg(), spec.build()).map_err(|e| e.to_string())?;
    let mut bytes = 0;
    for slice in &plan.slices {
        core.run(slice.start_inst, &spec.name);
        if core.counters().committed_insts < slice.start_inst {
            return Err(format!(
                "{}/{}: workload ended before slice s{}",
                design.name, spec.name, slice.seq
            ));
        }
        let meta = CbsMeta::for_run(design, &cfg(), &spec.name, slice.start_inst);
        let path = dir.join(sampling::slice_ckpt_name(
            &design.name,
            &spec.name,
            slice.seq,
        ));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += timed("checkpoint.save", || {
            save_checkpoint(std::io::BufWriter::new(file), &meta, &core)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(bytes)
}

/// Per-cell numbers of the traced slice loop.
#[derive(Default)]
struct SliceStats {
    restores: u64,
    bytes_read: u64,
    replay_insts: u64,
}

/// The traced run's own slice loop — the same steps as
/// `sampling::run_sampled` in checkpoint mode, with a span around each
/// layer call: per slice, build a core, restore the slice checkpoint,
/// run to the slice end.
fn traced_slices(
    design: &Design,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    dir: &Path,
    st: &mut SliceStats,
) -> Result<(Vec<HostCounters>, [u64; 7]), String> {
    let mut deltas = Vec::new();
    let mut bpu = [0u64; 7];
    for slice in &plan.slices {
        let _slice = span::enter("sampling.slice");
        let stream = timed("workloads.open", || Traced(spec.build()));
        let mut core = timed("composer.build", || Core::new(design, cfg(), stream))
            .map_err(|e| e.to_string())?;
        let meta = CbsMeta::for_run(design, &cfg(), &plan.workload, slice.start_inst);
        let path = dir.join(sampling::slice_ckpt_name(
            &design.name,
            &plan.workload,
            slice.seq,
        ));
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut reader = Counting {
            inner: std::io::BufReader::new(file),
            bytes: 0,
        };
        let calls = span::next_inst_calls();
        timed("checkpoint.restore", || {
            restore_checkpoint(&mut reader, &meta, &mut core)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        st.replay_insts += span::next_inst_calls() - calls;
        st.bytes_read += reader.bytes;
        st.restores += 1;
        let baseline = *core.counters();
        let bpu0 = *core.bpu().stats();
        let end = slice.start_inst + slice.len;
        let report = timed("uarch.run", || core.run(end, &plan.workload));
        if report.counters.committed_insts < end {
            return Err(format!("slice s{} ended early", slice.seq));
        }
        deltas.push(report.counters.delta(&baseline).to_host());
        for (a, x) in bpu
            .iter_mut()
            .zip(fixture::bpu_delta(core.bpu().stats(), &bpu0))
        {
            *a += x;
        }
    }
    Ok((deltas, bpu))
}

/// One sampled cell through `sampling::run_sampled` in checkpoint mode.
fn sampled_one(
    grid: &Grid,
    plans: &[SamplePlan],
    dir: &Path,
    (d, s): (usize, usize),
) -> Result<CellOut, String> {
    let o = sampling::run_sampled(
        &grid.designs[d],
        cfg(),
        &grid.specs[s],
        &plans[s],
        Some(dir),
    )
    .map_err(|e| format!("run_sampled: {e}"))?;
    let mut simulated = HostCounters::default();
    for dlt in &o.deltas {
        simulated.accumulate(dlt);
    }
    Ok(CellOut {
        counters: o.report.counters,
        mpki: o.estimate.mpki(),
        simulated: PerfCounters::from_host(&simulated),
        restored: o.mode == sampling::SampleMode::Checkpoint,
        deltas: o.deltas,
        ..CellOut::new((d, s))
    })
}

/// One sampled cell through the benchmark's own traced slice loop,
/// adding its restore numbers to `all`.
fn traced_one(
    grid: &Grid,
    plans: &[SamplePlan],
    dir: &Path,
    (d, s): (usize, usize),
    all: &std::sync::Mutex<SliceStats>,
) -> Result<CellOut, String> {
    let mut st = SliceStats::default();
    let r = traced_slices(&grid.designs[d], &grid.specs[s], &plans[s], dir, &mut st);
    {
        let mut all = all.lock().expect("slice stats");
        all.restores += st.restores;
        all.bytes_read += st.bytes_read;
        all.replay_insts += st.replay_insts;
    }
    let (deltas, bpu) = r.map_err(|e| format!("traced slice loop: {e}"))?;
    let est = sampling::estimate(&plans[s], &deltas);
    let mut simulated = HostCounters::default();
    for dlt in &deltas {
        simulated.accumulate(dlt);
    }
    Ok(CellOut {
        counters: est.rounded_counters(),
        mpki: est.mpki(),
        bpu: Some(bpu),
        simulated: PerfCounters::from_host(&simulated),
        deltas,
        restored: true,
        ..CellOut::new((d, s))
    })
}

/// `grid_sampled`: the 30 Fig-10 cells estimated by
/// `sampling::run_sampled` in checkpoint mode, from the committed plans.
pub fn grid_sampled(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let golden = fixture::load_golden(&ctx.root)?;
    let fixture_cells = fixture::load_cells(&ctx.root)?;
    let grid = Grid::new(ctx.seed);
    let plans: Vec<SamplePlan> = grid
        .specs
        .iter()
        .map(|s| {
            sampling::load_plan(
                &ctx.root
                    .join(fixture::PLANS_DIR)
                    .join(sampling::plan_file_name(&s.name)),
            )
        })
        .collect::<Result<_, _>>()?;
    let dir = ctx.tmp.join("slices");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Set-up: every slice checkpoint of every cell.
    let reps = if ctx.trace { 1 } else { SAMPLED_SETUPS };
    let mut setups = Vec::new();
    let mut bytes_written = 0;
    span::set_enabled(ctx.trace);
    for _ in 0..reps {
        let t = Instant::now();
        bytes_written = parallel_map_on(ctx.threads, &grid.order, |_, &(d, s)| {
            let r = capture_slices(&grid.designs[d], &grid.specs[s], &plans[s], &dir);
            span::flush_thread();
            r
        })
        .into_iter()
        .sum::<Result<u64, String>>()?;
        setups.push(t.elapsed().as_secs_f64());
    }
    sync_dir(&dir)?;
    let setup_spans = span::take_all();
    span::set_enabled(false);

    let check = |out: &mut Outcome, cells: &[CellOut]| -> (f64, f64) {
        let fx = fixture_cells.get("grid_sampled");
        let (mut worst, mut worst_heldout) = (0.0f64, 0.0f64);
        for c in cells {
            let key = grid.key(c.cell);
            let err = golden.mpki.get(&key).map(|&g| fixture::err_pct(c.mpki, g));
            let err_ok = err.is_some_and(|e| e <= crate::SAMPLED_BOUND_PCT);
            if let Some(e) = err {
                worst = worst.max(e);
                if plans[c.cell.1].source_design != key.0 {
                    worst_heldout = worst_heldout.max(e);
                }
            }
            if !err_ok {
                out.note(format!(
                    "{}/{}: sampled error {err:?}% over the {}% bound",
                    key.0,
                    key.1,
                    crate::SAMPLED_BOUND_PCT
                ));
            }
            if !c.restored {
                out.note(format!(
                    "{}/{}: not every slice restored a checkpoint",
                    key.0, key.1
                ));
            }
            let fx_ok = ctx.bless || check_fixture(out, fx, &key, &c.counters, c.bpu);
            out.op(err_ok && c.restored && fx_ok, String::new);
        }
        (worst, worst_heldout)
    };

    if !ctx.trace {
        let passes = timed_passes(ctx, &grid, SAMPLED_MIN_PASSES, |order| {
            run_pass(ctx, order, |cell| sampled_one(&grid, &plans, &dir, cell))
        })?;
        let mut worst = 0.0f64;
        for p in &passes {
            worst = worst.max(check(out, &p.cells).0);
        }
        grid_e2e(out, &passes, &setups);
        out.set("paper_mpki_err_pct", paper_err(&grid, &passes[0]));
        out.info(format!("sampled_err_max_pct = {worst} %"));
        return Ok(());
    }

    // Traced: each cell through run_sampled and through the benchmark's
    // own slice loop back to back, whose per-slice deltas must agree
    // exactly; then one traced pass of the slice loop for the spans.
    let scratch = std::sync::Mutex::new(SliceStats::default());
    let pairs = paired_pass(ctx, &grid, |cell, traced| {
        if traced {
            traced_one(&grid, &plans, &dir, cell, &scratch)
        } else {
            sampled_one(&grid, &plans, &dir, cell)
        }
    })?;
    let slice_stats = std::sync::Mutex::new(SliceStats::default());
    span::set_enabled(true);
    let traced = run_pass(ctx, &grid.order, |cell| {
        traced_one(&grid, &plans, &dir, cell, &slice_stats)
    });
    let spans = span::take_all();
    span::set_enabled(false);
    let traced = traced?;
    ctx.write_spans(&[&setup_spans[..], &spans[..]].concat())?;

    if ctx.bless {
        check(out, &traced.cells);
        let rows = traced
            .cells
            .iter()
            .map(|c| {
                let row = CellRow {
                    counters: fixture::counters_array(&c.counters),
                    bpu: c.bpu.expect("traced cells record BPU stats"),
                };
                (grid.key(c.cell), row)
            })
            .collect();
        return fixture::bless_cells(&ctx.root, "grid_sampled", rows);
    }

    // The traced loop must reproduce run_sampled slice for slice.
    for (u, t) in pairs.untraced.iter().zip(&pairs.traced) {
        let key = grid.key(t.cell);
        out.op(u.cell == t.cell && u.deltas == t.deltas, || {
            format!(
                "{}/{}: traced slice loop differs from run_sampled",
                key.0, key.1
            )
        });
    }
    let by_cell: BTreeMap<_, _> = pairs.traced.iter().map(|c| (c.cell, &c.deltas)).collect();
    for c in &traced.cells {
        let key = grid.key(c.cell);
        out.op(by_cell.get(&c.cell) == Some(&&c.deltas), || {
            format!(
                "{}/{}: traced pass differs from the paired pass",
                key.0, key.1
            )
        });
    }
    check(out, &pairs.untraced);
    check(out, &pairs.traced);
    let (worst, worst_heldout) = check(out, &traced.cells);
    layer_common(out, ctx, &spans, &traced, &pairs);
    layer_counts(out, &traced);
    let st = slice_stats.into_inner().expect("slice stats");
    let totals = span::by_name(&spans);
    let setup_totals = span::by_name(&setup_spans);
    let restore_s = totals
        .get("checkpoint.restore")
        .map_or(0.0, |t| t.0 as f64 / 1e9);
    let run_s = out.get("uarch.run_s");
    let slices: usize = traced
        .cells
        .iter()
        .map(|c| plans[c.cell.1].slices.len())
        .sum();
    let slice_insts: u64 = traced
        .cells
        .iter()
        .map(|c| plans[c.cell.1].slices.iter().map(|s| s.len).sum::<u64>())
        .sum();
    let full_insts: u64 = traced
        .cells
        .iter()
        .map(|c| plans[c.cell.1].warmup_insts + plans[c.cell.1].total_insts)
        .sum();
    out.set("workloads.replay_insts", st.replay_insts as f64);
    out.set("checkpoint.restore_s", restore_s);
    out.set("checkpoint.restores", st.restores as f64);
    out.set("checkpoint.bytes_read", st.bytes_read as f64);
    out.set(
        "checkpoint.save_s",
        setup_totals
            .get("checkpoint.save")
            .map_or(0.0, |t| t.0 as f64 / 1e9),
    );
    out.set("checkpoint.bytes_written", bytes_written as f64);
    out.set("sampling.slice_run_s", run_s);
    out.set("sampling.slices", slices as f64);
    out.set(
        "sampling.sim_share",
        slice_insts as f64 / full_insts.max(1) as f64,
    );
    out.set("sampling.restore_per_run", restore_s / run_s.max(1e-9));
    out.set("sampling.err_heldout_max_pct", worst_heldout);
    out.set("sampled_err_max_pct", worst);
    Ok(())
}
