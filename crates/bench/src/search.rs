//! The `cobra-search` topology autotuner: a deterministic beam search
//! over the composition space.
//!
//! The search walks the space the composer exposes — topology strings
//! over the stock component zoo plus history-geometry knobs — looking
//! for Pareto-optimal designs under a storage budget:
//!
//! 1. **Seed** from the built-in catalog (every design that survives the
//!    static gate under the budget).
//! 2. **Mutate** each beam member through
//!    [`cobra_core::composer::mutate::neighbors`] (component swaps,
//!    chain inserts/removals, arbiter restructuring) and one-step
//!    history-geometry tweaks (global-history bits, local-history
//!    entries).
//! 3. **Prune statically** before any simulation:
//!    [`gate_topology`] must pass
//!    with *zero warnings* (the `cobra-lint --deny warnings` bar) and
//!    the modeled storage ([`AnalysisReport::total_storage_kb`]) must
//!    fit the budget — the same numbers `cobra-area --budget` reports,
//!    since both derive from the same `DesignModel`.
//! 4. **Evaluate** survivors (a caller-supplied function — phase-sampled
//!    simulation via [`crate::sampling`], a full run, or a remote
//!    `cobra-serve` daemon) and fold them into the archive.
//! 5. **Select** the next beam: the lowest-MPKI archive members.
//!
//! Everything is deterministic for a fixed seed: candidate pools are
//! sorted by a canonical key before the seeded PRNG subsamples them,
//! evaluation runs through the order-preserving
//! [`runner::parallel_map`](crate::runner::parallel_map), and ties break
//! on the key. Two runs with the same seed and budget produce the same
//! frontier, bit for bit — the property the CI search-smoke leg diffs.
//!
//! [`AnalysisReport::total_storage_kb`]: cobra_core::analysis::AnalysisReport::total_storage_kb

use crate::jsonv::{self, Json};
use crate::runner::parallel_map;
use cobra_core::analysis::{gate_topology, AnalysisReport, Severity};
use cobra_core::composer::{mutate, ComponentRegistry, Topology};
use cobra_core::designs;
use cobra_sim::SplitMix64;

/// Global-history widths the geometry mutations walk, ascending.
pub const GHIST_LADDER: &[u32] = &[16, 24, 32, 40, 48, 56, 64];

/// Local-history table sizes the geometry mutations walk, ascending
/// (`0` means no local history at all).
pub const LHIST_LADDER: &[u64] = &[0, 128, 256, 512, 1024, 2048, 4096];

/// Search knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Total-storage budget in KB (components + management structures),
    /// the `cobra-area --budget` figure.
    pub budget_kb: f64,
    /// PRNG seed for candidate subsampling.
    pub seed: u64,
    /// Mutate/evaluate rounds after seeding.
    pub generations: usize,
    /// Beam width, and the cap on evaluations per generation.
    pub population: usize,
    /// Fetch width for static analysis (the `cobra-lint`/`cobra-area`
    /// default is 8).
    pub width: u8,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            budget_kb: 64.0,
            seed: 1,
            generations: 3,
            population: 8,
            width: 8,
        }
    }
}

/// One point in the search space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Topology text in the paper's notation.
    pub topology: String,
    /// Global-history register width.
    pub ghist_bits: u32,
    /// Local-history table entries (`0` = none).
    pub lhist_entries: u64,
}

impl Candidate {
    /// Canonical dedup/sort key: topology text plus geometry.
    pub fn key(&self) -> String {
        format!(
            "{} @g{:03}/l{:05}",
            self.topology, self.ghist_bits, self.lhist_entries
        )
    }
}

/// An evaluated candidate with its static facts and measured quality.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The candidate itself.
    pub cand: Candidate,
    /// Mean MPKI across the evaluation workloads.
    pub mpki: f64,
    /// Per-workload MPKI, in evaluation-workload order.
    pub per_workload: Vec<(String, f64)>,
    /// Modeled total storage in bits (components + management).
    pub storage_bits: u64,
    /// Pipeline depth implied by the declared latencies.
    pub depth: u8,
}

impl Evaluated {
    /// Modeled total storage in KB.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits as f64 / 8192.0
    }

    /// `true` when `self` Pareto-dominates `other` under
    /// (MPKI, storage bits, depth), all minimized.
    pub fn dominates(&self, other: &Evaluated) -> bool {
        let no_worse = self.mpki <= other.mpki
            && self.storage_bits <= other.storage_bits
            && self.depth <= other.depth;
        let better = self.mpki < other.mpki
            || self.storage_bits < other.storage_bits
            || self.depth < other.depth;
        no_worse && better
    }
}

/// The result of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every evaluated candidate, in archive (evaluation) order.
    pub archive: Vec<Evaluated>,
    /// The Pareto-optimal subset of the archive, ascending by MPKI.
    pub frontier: Vec<Evaluated>,
    /// Candidates rejected by the static gate before simulation.
    pub pruned: u64,
    /// Candidates actually simulated.
    pub evaluated: u64,
}

/// Runs [`gate_topology`] on a candidate and applies the search's static
/// acceptance bar: error-free, **warning-free** (the
/// `cobra-lint --deny warnings` criterion), and total storage within
/// `budget_kb`. Returns the analysis report of an accepted candidate.
pub fn prune_statically(
    cand: &Candidate,
    registry: &ComponentRegistry,
    width: u8,
    budget_kb: f64,
) -> Option<AnalysisReport> {
    let report = gate_topology(
        &cand.topology,
        &cand.topology,
        registry,
        cand.ghist_bits,
        cand.lhist_entries,
        width,
    )
    .ok()?;
    if !report.is_clean(Severity::Warning) {
        return None;
    }
    (report.total_storage_kb() <= budget_kb).then_some(report)
}

/// One-step geometry tweaks: move `ghist_bits` and `lhist_entries` one
/// rung up or down their ladders (topology unchanged). Off-ladder values
/// snap to the nearest rung's neighbors.
pub fn geometry_neighbors(cand: &Candidate) -> Vec<Candidate> {
    let mut out = Vec::new();
    for g in ladder_steps(GHIST_LADDER, cand.ghist_bits) {
        out.push(Candidate {
            ghist_bits: g,
            ..cand.clone()
        });
    }
    for l in ladder_steps(LHIST_LADDER, cand.lhist_entries) {
        out.push(Candidate {
            lhist_entries: l,
            ..cand.clone()
        });
    }
    out
}

/// The ladder rungs adjacent to `v` (the rungs strictly below and above
/// the rung nearest to `v`).
fn ladder_steps<T: Copy + PartialOrd>(ladder: &[T], v: T) -> Vec<T> {
    let pos = ladder
        .iter()
        .position(|&r| v <= r)
        .unwrap_or(ladder.len() - 1);
    let mut out = Vec::new();
    if pos > 0 {
        out.push(ladder[pos - 1]);
    }
    if pos + 1 < ladder.len() {
        out.push(ladder[pos + 1]);
    }
    out
}

/// Every one-step mutation of `cand`: topology moves (over the `zoo`
/// label alphabet) at the candidate's geometry, plus geometry tweaks at
/// the candidate's topology. Deduplicated, sorted by [`Candidate::key`].
pub fn candidate_neighbors(cand: &Candidate, zoo: &[&str]) -> Vec<Candidate> {
    let mut out = Vec::new();
    if let Ok(t) = Topology::parse(&cand.topology) {
        for n in mutate::neighbors(&t, zoo) {
            out.push(Candidate {
                topology: n.to_string(),
                ..cand.clone()
            });
        }
    }
    out.extend(geometry_neighbors(cand));
    out.sort_by_key(Candidate::key);
    out.dedup_by_key(|c| c.key());
    out
}

/// The label alphabet mutations draw from: every stock label, sorted.
pub fn stock_zoo() -> Vec<String> {
    designs::STOCK_LABELS
        .iter()
        .map(|&(label, _)| label.to_string())
        .collect()
}

/// The catalog seeds: one [`Candidate`] per built-in design.
pub fn catalog_seeds() -> Vec<Candidate> {
    designs::catalog()
        .into_iter()
        .map(|d| Candidate {
            topology: d.topology.clone(),
            ghist_bits: d.ghist_bits,
            lhist_entries: d.lhist_entries,
        })
        .collect()
}

/// Runs the beam search. `evaluate` maps one statically-accepted
/// candidate to its per-workload MPKI; an `Err` drops the candidate with
/// a warning on stderr (a workload whose plan is missing, a serve
/// connection refused) without aborting the search.
///
/// Deterministic for a fixed `(cfg, evaluate)`: see the module docs.
pub fn run_search<F>(cfg: &SearchConfig, evaluate: F) -> SearchOutcome
where
    F: Fn(&Candidate) -> Result<Vec<(String, f64)>, String> + Sync,
{
    let registry = designs::stock_registry();
    let zoo_owned = stock_zoo();
    let zoo: Vec<&str> = zoo_owned.iter().map(String::as_str).collect();

    let mut archive: Vec<Evaluated> = Vec::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut pruned = 0u64;
    let mut evaluated = 0u64;

    // Generation 0: the catalog seeds.
    let mut pool: Vec<Candidate> = catalog_seeds();
    pool.sort_by_key(Candidate::key);
    pool.dedup_by_key(|c| c.key());

    for gen in 0..=cfg.generations {
        // Statically gate the pool (novel candidates only).
        let mut accepted: Vec<(Candidate, AnalysisReport)> = Vec::new();
        for cand in pool {
            if !seen.insert(cand.key()) {
                continue;
            }
            match prune_statically(&cand, &registry, cfg.width, cfg.budget_kb) {
                Some(report) => accepted.push((cand, report)),
                None => pruned += 1,
            }
        }
        // Subsample down to the evaluation budget with the seeded PRNG
        // (partial Fisher–Yates over the key-sorted list).
        if accepted.len() > cfg.population {
            let mut rng = SplitMix64::new(cfg.seed.wrapping_add(gen as u64));
            for j in 0..cfg.population {
                let pick = j + rng.below((accepted.len() - j) as u64) as usize;
                accepted.swap(j, pick);
            }
            accepted.truncate(cfg.population);
            accepted.sort_by_key(|(c, _)| c.key());
        }
        // Evaluate in parallel; order-preserving, so the archive order
        // (and everything downstream) is thread-count independent.
        let results = parallel_map(&accepted, |_, (cand, _)| evaluate(cand));
        for ((cand, report), result) in accepted.into_iter().zip(results) {
            evaluated += 1;
            match result {
                Ok(per_workload) => {
                    let mpki = if per_workload.is_empty() {
                        f64::INFINITY
                    } else {
                        per_workload.iter().map(|(_, m)| m).sum::<f64>() / per_workload.len() as f64
                    };
                    archive.push(Evaluated {
                        cand,
                        mpki,
                        per_workload,
                        storage_bits: report.component_storage_bits
                            + report.management_storage_bits,
                        depth: report.depth,
                    });
                }
                Err(e) => eprintln!("[search] dropping {}: {e}", cand.key()),
            }
        }
        if gen == cfg.generations {
            break;
        }
        // Next beam: the lowest-MPKI archive members, ties on key.
        let mut beam: Vec<&Evaluated> = archive.iter().collect();
        beam.sort_by(|a, b| {
            a.mpki
                .total_cmp(&b.mpki)
                .then_with(|| a.cand.key().cmp(&b.cand.key()))
        });
        beam.truncate(cfg.population);
        let mut next: Vec<Candidate> = beam
            .iter()
            .flat_map(|e| candidate_neighbors(&e.cand, &zoo))
            .collect();
        next.sort_by_key(Candidate::key);
        next.dedup_by_key(|c| c.key());
        pool = next;
    }

    let frontier = pareto_frontier(&archive);
    SearchOutcome {
        archive,
        frontier,
        pruned,
        evaluated,
    }
}

/// The non-dominated subset of `archive` under (MPKI, storage bits,
/// depth), ascending by MPKI (ties on storage, then key). Duplicate
/// points survive dominance but are deduplicated by key.
pub fn pareto_frontier(archive: &[Evaluated]) -> Vec<Evaluated> {
    let mut frontier: Vec<Evaluated> = Vec::new();
    for e in archive {
        if archive.iter().any(|o| o.dominates(e)) {
            continue;
        }
        if frontier.iter().any(|f| f.cand.key() == e.cand.key()) {
            continue;
        }
        frontier.push(e.clone());
    }
    frontier.sort_by(|a, b| {
        a.mpki
            .total_cmp(&b.mpki)
            .then(a.storage_bits.cmp(&b.storage_bits))
            .then_with(|| a.cand.key().cmp(&b.cand.key()))
    });
    frontier
}

/// Renders a frontier as an aligned human table.
pub fn render_frontier_human(frontier: &[Evaluated]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<52} {:>5} {:>6} {:>9} {:>6} {:>6}\n",
        "topology", "ghist", "lhist", "stor KB", "depth", "MPKI"
    ));
    for e in frontier {
        out.push_str(&format!(
            "{:<52} {:>5} {:>6} {:>9.1} {:>6} {:>6.2}\n",
            e.cand.topology,
            e.cand.ghist_bits,
            e.cand.lhist_entries,
            e.storage_kb(),
            e.depth,
            e.mpki
        ));
    }
    out
}

/// Renders a [`SearchOutcome`] as the canonical frontier JSON
/// (`cobra-search-frontier-v1`) the CI smoke leg diffs and re-validates.
/// Contains no wall-clock fields — two identical-seed runs render
/// byte-identically.
pub fn render_frontier_json(cfg: &SearchConfig, outcome: &SearchOutcome) -> String {
    let members: Vec<String> = outcome
        .frontier
        .iter()
        .map(|e| {
            let per: Vec<String> = e
                .per_workload
                .iter()
                .map(|(w, m)| format!("{{\"workload\":{},\"mpki\":{m:.6}}}", jsonv::escape(w)))
                .collect();
            format!(
                "    {{\"topology\":{},\"ghist_bits\":{},\"lhist_entries\":{},\
                 \"storage_bits\":{},\"storage_kb\":{:.3},\"depth\":{},\
                 \"mpki\":{:.6},\"per_workload\":[{}]}}",
                jsonv::escape(&e.cand.topology),
                e.cand.ghist_bits,
                e.cand.lhist_entries,
                e.storage_bits,
                e.storage_kb(),
                e.depth,
                e.mpki,
                per.join(",")
            )
        })
        .collect();
    format!(
        "{{\n  \"format\":\"cobra-search-frontier-v1\",\n  \
         \"budget_kb\":{:.3},\n  \"seed\":{},\n  \"generations\":{},\n  \
         \"population\":{},\n  \"width\":{},\n  \"pruned\":{},\n  \
         \"evaluated\":{},\n  \"frontier\":[\n{}\n  ]\n}}\n",
        cfg.budget_kb,
        cfg.seed,
        cfg.generations,
        cfg.population,
        cfg.width,
        outcome.pruned,
        outcome.evaluated,
        members.join(",\n")
    )
}

/// Parses a `cobra-search-frontier-v1` JSON back into its members —
/// what the CI re-validation pass feeds through the static gate.
///
/// # Errors
///
/// A message naming the first structural defect.
pub fn parse_frontier_json(text: &str) -> Result<(f64, Vec<Candidate>), String> {
    let v = jsonv::parse(text).map_err(|e| format!("frontier JSON: {e}"))?;
    let fmt = v
        .get("format")
        .and_then(Json::as_str)
        .ok_or("frontier JSON: missing \"format\"")?;
    if fmt != "cobra-search-frontier-v1" {
        return Err(format!("frontier JSON: unknown format {fmt:?}"));
    }
    let budget_kb = v
        .get("budget_kb")
        .and_then(Json::as_num)
        .ok_or("frontier JSON: missing \"budget_kb\"")?;
    let members = v
        .get("frontier")
        .and_then(Json::as_arr)
        .ok_or("frontier JSON: missing \"frontier\" array")?;
    let mut out = Vec::with_capacity(members.len());
    for m in members {
        out.push(Candidate {
            topology: m
                .get("topology")
                .and_then(Json::as_str)
                .ok_or("frontier member: missing \"topology\"")?
                .to_string(),
            ghist_bits: m
                .get("ghist_bits")
                .and_then(Json::as_u64)
                .ok_or("frontier member: missing \"ghist_bits\"")? as u32,
            lhist_entries: m
                .get("lhist_entries")
                .and_then(Json::as_u64)
                .ok_or("frontier member: missing \"lhist_entries\"")?,
        });
    }
    Ok((budget_kb, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: &str, mpki: f64, bits: u64, depth: u8) -> Evaluated {
        Evaluated {
            cand: Candidate {
                topology: key.into(),
                ghist_bits: 32,
                lhist_entries: 0,
            },
            mpki,
            per_workload: vec![("w".into(), mpki)],
            storage_bits: bits,
            depth,
        }
    }

    #[test]
    fn dominance_needs_strict_improvement() {
        let a = ev("A1", 1.0, 100, 2);
        let same = ev("B1", 1.0, 100, 2);
        assert!(!a.dominates(&same), "equal points do not dominate");
        let worse = ev("C1", 2.0, 100, 2);
        assert!(a.dominates(&worse));
        let tradeoff = ev("D1", 0.5, 200, 2);
        assert!(!a.dominates(&tradeoff) && !tradeoff.dominates(&a));
    }

    #[test]
    fn frontier_keeps_tradeoffs_drops_dominated() {
        let archive = vec![
            ev("A1", 1.0, 100, 2),
            ev("B1", 0.5, 200, 2), // better MPKI, more storage: keep
            ev("C1", 1.5, 150, 2), // dominated by A1: drop
            ev("D1", 1.0, 100, 1), // dominates A1 on depth: keep, A1 drops
        ];
        let f = pareto_frontier(&archive);
        let keys: Vec<&str> = f.iter().map(|e| e.cand.topology.as_str()).collect();
        assert_eq!(keys, vec!["B1", "D1"]);
    }

    #[test]
    fn stock_seeds_survive_a_generous_budget() {
        let registry = designs::stock_registry();
        let mut survivors = 0;
        for cand in catalog_seeds() {
            if prune_statically(&cand, &registry, 8, 1024.0).is_some() {
                survivors += 1;
            }
        }
        assert!(survivors >= 3, "only {survivors} catalog seeds survived");
    }

    #[test]
    fn prune_rejects_over_budget() {
        let registry = designs::stock_registry();
        let cand = catalog_seeds().remove(0);
        assert!(prune_statically(&cand, &registry, 8, 0.001).is_none());
    }

    #[test]
    fn geometry_steps_stay_on_ladders() {
        let cand = Candidate {
            topology: "BIM2".into(),
            ghist_bits: 32,
            lhist_entries: 0,
        };
        for g in geometry_neighbors(&cand) {
            assert!(
                GHIST_LADDER.contains(&g.ghist_bits) && LHIST_LADDER.contains(&g.lhist_entries)
            );
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let cfg = SearchConfig {
            budget_kb: 256.0,
            seed: 7,
            generations: 1,
            population: 3,
            width: 8,
        };
        // A fake evaluator keyed only on the candidate: deterministic.
        let fake = |c: &Candidate| -> Result<Vec<(String, f64)>, String> {
            let score = c.topology.len() as f64 / 10.0 + c.ghist_bits as f64 / 100.0;
            Ok(vec![("fake".into(), score)])
        };
        let a = run_search(&cfg, fake);
        let b = run_search(&cfg, fake);
        assert_eq!(
            render_frontier_json(&cfg, &a),
            render_frontier_json(&cfg, &b)
        );
        assert!(!a.frontier.is_empty());
    }

    #[test]
    fn frontier_json_round_trips_members() {
        let cfg = SearchConfig::default();
        let outcome = SearchOutcome {
            archive: vec![ev("GTAG3 > BTB2", 1.25, 8192, 3)],
            frontier: vec![ev("GTAG3 > BTB2", 1.25, 8192, 3)],
            pruned: 4,
            evaluated: 1,
        };
        let text = render_frontier_json(&cfg, &outcome);
        let (budget, members) = parse_frontier_json(&text).unwrap();
        assert_eq!(budget, cfg.budget_kb);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].key(), "GTAG3 > BTB2 @g032/l00000");
    }
}
