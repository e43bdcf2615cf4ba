//! Output checks against committed reference data: the repository's
//! golden full-run MPKI file and the benchmark's own per-cell counter
//! fixture (`perfbench/fixtures/cells.jsonl`).

use cobra_bench::jsonv::{self, Json};
use cobra_core::composer::BpuStats;
use cobra_uarch::PerfCounters;
use std::collections::BTreeMap;
use std::path::Path;

/// The golden full-run MPKI file the grids are checked against.
pub const GOLDEN_PATH: &str = "crates/bench/tests/golden/fig10_full.jsonl";
/// The committed sampling plans.
pub const PLANS_DIR: &str = "crates/bench/tests/golden/plans";
/// The benchmark's own per-cell counter fixture.
pub const CELLS_PATH: &str = "perfbench/fixtures/cells.jsonl";

/// `(design, profile)`.
pub type CellKey = (String, String);

/// Golden full-run MPKI per cell, at the golden's instruction count.
pub struct Golden {
    /// Measured instructions every golden cell was run at.
    pub insts: u64,
    /// MPKI per cell.
    pub mpki: BTreeMap<CellKey, f64>,
}

/// Loads the golden file.
///
/// # Errors
///
/// I/O and parse errors, or cells blessed at different lengths.
pub fn load_golden(root: &Path) -> Result<Golden, String> {
    let path = root.join(GOLDEN_PATH);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut insts = None;
    let mut mpki = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = jsonv::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{}:{}: no `{k}`", path.display(), n + 1))
        };
        let design = field("design")?.as_str().ok_or("design is not a string")?;
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        let cell_insts = field("insts")?.as_u64().ok_or("insts is not an integer")?;
        let m = field("mpki")?.as_num().ok_or("mpki is not a number")?;
        if *insts.get_or_insert(cell_insts) != cell_insts {
            return Err(format!("{}: mixed instruction counts", path.display()));
        }
        mpki.insert((design.to_string(), workload.to_string()), m);
    }
    Ok(Golden {
        insts: insts.ok_or_else(|| format!("{}: no cells", path.display()))?,
        mpki,
    })
}

/// Whether `mpki` reproduces `golden` at the golden file's precision
/// (six decimals).
pub fn mpki_matches(mpki: f64, golden: f64) -> bool {
    format!("{mpki:.6}") == format!("{golden:.6}")
}

/// |value − reference| ÷ reference, in percent.
pub fn err_pct(value: f64, reference: f64) -> f64 {
    (value - reference).abs() * 100.0 / reference.abs().max(1e-9)
}

/// The paper's Fig-10 MPKI for `design` on the `profile`-th SPECint17
/// profile (`reference.rs`).
pub fn paper_mpki(design: &str, profile: usize) -> f64 {
    use cobra_bench::reference::{FIG10_MPKI_B2, FIG10_MPKI_TAGE_L, FIG10_MPKI_TOURNAMENT};
    match design {
        "TAGE-L" => FIG10_MPKI_TAGE_L[profile],
        "B2" => FIG10_MPKI_B2[profile],
        _ => FIG10_MPKI_TOURNAMENT[profile],
    }
}

/// The eleven [`PerfCounters`] fields, in `.cbm` wire order.
pub fn counters_array(c: &PerfCounters) -> [u64; 11] {
    c.to_host().to_array()
}

/// The [`BpuStats`] counts, in declaration order.
pub fn bpu_array(s: &BpuStats) -> [u64; 7] {
    [
        s.queries,
        s.accepts,
        s.commits,
        s.cond_branches,
        s.mispredicts,
        s.revisions,
        s.repair_entries,
    ]
}

/// Field-wise `a - b` of two [`BpuStats`] snapshots.
pub fn bpu_delta(a: &BpuStats, b: &BpuStats) -> [u64; 7] {
    let (a, b) = (bpu_array(a), bpu_array(b));
    std::array::from_fn(|i| a[i] - b[i])
}

/// One fixture row: a cell's counters and, when recorded, its BPU stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRow {
    /// [`counters_array`].
    pub counters: [u64; 11],
    /// [`bpu_array`] (summed over slices for the sampled grid).
    pub bpu: [u64; 7],
}

/// The per-cell fixture: `workload -> (design, profile) -> row`.
pub type Cells = BTreeMap<String, BTreeMap<CellKey, CellRow>>;

fn u64s<const N: usize>(v: Option<&Json>) -> Option<[u64; N]> {
    let arr = v?.as_arr()?;
    if arr.len() != N {
        return None;
    }
    let mut out = [0u64; N];
    for (o, j) in out.iter_mut().zip(arr) {
        *o = j.as_u64()?;
    }
    Some(out)
}

/// Loads the cell fixture (an absent file is an empty fixture, so a
/// bless can create it).
///
/// # Errors
///
/// Unreadable or malformed lines.
pub fn load_cells(root: &Path) -> Result<Cells, String> {
    let path = root.join(CELLS_PATH);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Cells::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut cells = Cells::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{}:{}: malformed fixture row", path.display(), n + 1);
        let v = jsonv::parse(line).map_err(|_| bad())?;
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(workload), Some(design), Some(profile)) =
            (s("workload"), s("design"), s("profile"))
        else {
            return Err(bad());
        };
        let row = CellRow {
            counters: u64s(v.get("counters")).ok_or_else(bad)?,
            bpu: u64s(v.get("bpu")).ok_or_else(bad)?,
        };
        cells
            .entry(workload)
            .or_default()
            .insert((design, profile), row);
    }
    Ok(cells)
}

/// Rewrites the fixture with `workload`'s rows replaced by `rows`.
///
/// # Errors
///
/// I/O errors.
pub fn bless_cells(
    root: &Path,
    workload: &str,
    rows: BTreeMap<CellKey, CellRow>,
) -> Result<(), String> {
    let mut cells = load_cells(root)?;
    cells.insert(workload.to_string(), rows);
    let mut out = String::new();
    for (w, rows) in &cells {
        for ((design, profile), row) in rows {
            let join = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            out.push_str(&format!(
                "{{\"workload\":{},\"design\":{},\"profile\":{},\"counters\":[{}],\"bpu\":[{}]}}\n",
                jsonv::escape(w),
                jsonv::escape(design),
                jsonv::escape(profile),
                join(&row.counters),
                join(&row.bpu)
            ));
        }
    }
    let path = root.join(CELLS_PATH);
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}
