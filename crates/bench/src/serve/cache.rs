//! The two-tier warm-state cache behind `cobra-serve`.
//!
//! Tier 1 is a persistent *result* cache: `.cbr` files keyed on the full
//! evaluation identity `(config_hash, workload, insts, warmup)`. An
//! exact hit skips simulation entirely. Tier 2 is a *checkpoint* cache:
//! `.cbs` files keyed on `(config_hash, workload, warmup_boundary)`; a
//! job that misses tier 1 but finds a checkpoint for the same design and
//! workload at an equal-or-earlier boundary restores it and simulates
//! only the remainder. Both tiers lean entirely on the containers'
//! golden-gate discipline — checksums, identity headers, size caps — so
//! a damaged or foreign entry degrades to a miss, never to a wrong
//! answer.
//!
//! Stores are atomic (write to a `.tmp` sibling unique to the writer,
//! then rename), so a concurrent reader can never observe a half-written
//! entry, and concurrent writers of one entry never share a temp file.
//! The containers refuse on write what they refuse on read, so a store
//! that cannot be read back fails up front and leaves nothing behind.

use std::fs;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_uarch::{
    read_result, save_checkpoint, save_result, CbrMeta, CbsMeta, ContainerError, Core,
    InstructionStream, PerfReport,
};

/// Monotonic counters describing cache behaviour since the server
/// started; snapshot into the `stats` event and the drain summary.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Tier-1 exact result hits.
    pub hits: AtomicU64,
    /// Tier-2 checkpoint restores (partial simulation).
    pub warm: AtomicU64,
    /// Full cold simulations.
    pub miss: AtomicU64,
    /// Entries written (results and checkpoints).
    pub stores: AtomicU64,
    /// Entries that existed but failed validation and were ignored.
    pub rejected: AtomicU64,
}

impl CacheStats {
    /// Renders the counters as a JSON object fragment.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"warm\":{},\"miss\":{},\"stores\":{},\"rejected\":{}}}",
            self.hits.load(Ordering::Relaxed),
            self.warm.load(Ordering::Relaxed),
            self.miss.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed)
        )
    }
}

/// A warm-state cache rooted at one directory, holding `results/*.cbr`
/// and `ckpt/*.cbs`. Cheap to share behind an `Arc`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct WarmCache {
    results: PathBuf,
    ckpt: PathBuf,
    /// Behaviour counters, updated by lookups and stores.
    pub stats: CacheStats,
}

impl WarmCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        let results = root.join("results");
        let ckpt = root.join("ckpt");
        fs::create_dir_all(&results)?;
        fs::create_dir_all(&ckpt)?;
        Ok(WarmCache {
            results,
            ckpt,
            stats: CacheStats::default(),
        })
    }

    /// The checkpoint subdirectory, for
    /// [`cobra_uarch::best_resume_checkpoint`] scans.
    pub fn ckpt_dir(&self) -> &Path {
        &self.ckpt
    }

    fn result_path(&self, meta: &CbrMeta) -> PathBuf {
        self.results.join(format!(
            "{:016x}--{}--i{}.cbr",
            meta.config_hash, meta.workload, meta.insts
        ))
    }

    fn ckpt_path(&self, meta: &CbsMeta) -> PathBuf {
        self.ckpt.join(format!(
            "{:016x}--{}--w{}.cbs",
            meta.config_hash, meta.workload, meta.warmup_insts
        ))
    }

    /// Tier-1 lookup: returns the cached report iff an entry exists for
    /// exactly this identity and passes every container check. A
    /// damaged, truncated, or identity-mismatched entry is counted in
    /// `stats.rejected` and treated as absent.
    pub fn lookup_result(&self, meta: &CbrMeta) -> Option<PerfReport> {
        let path = self.result_path(meta);
        let f = fs::File::open(&path).ok()?;
        match read_result(BufReader::new(f), meta) {
            Ok(report) => Some(report),
            Err(e) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[cobra-serve] ignoring invalid result cache entry {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    /// Stores a report under its identity, atomically. Failures are
    /// logged and swallowed — the cache is an accelerator, never a
    /// correctness dependency.
    pub fn store_result(&self, meta: &CbrMeta, report: &PerfReport) {
        self.store("result cache entry", self.result_path(meta), |w| {
            save_result(w, meta, report)
        });
    }

    /// `true` iff a checkpoint for exactly this boundary already exists.
    pub fn has_checkpoint(&self, meta: &CbsMeta) -> bool {
        self.ckpt_path(meta).exists()
    }

    /// Stores a warmup-boundary checkpoint of `core`, atomically.
    /// Failures are logged and swallowed, like [`Self::store_result`].
    pub fn store_checkpoint<S: InstructionStream>(&self, meta: &CbsMeta, core: &Core<S>) {
        self.store("checkpoint", self.ckpt_path(meta), |w| {
            save_checkpoint(w, meta, core)
        });
    }

    /// Writes one entry through a temp file unique to this writer, then
    /// renames it into place.
    fn store(
        &self,
        what: &str,
        path: PathBuf,
        save: impl FnOnce(BufWriter<fs::File>) -> Result<u64, ContainerError>,
    ) {
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.clone().into_os_string();
        tmp.push(format!(
            ".{}-{}.tmp",
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        let outcome = fs::File::create(&tmp)
            .map_err(ContainerError::from)
            .and_then(|f| save(BufWriter::new(f)))
            .and_then(|_| fs::rename(&tmp, &path).map_err(ContainerError::from));
        match outcome {
            Ok(()) => {
                self.stats.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                eprintln!(
                    "[cobra-serve] failed to store {what} {}: {e}",
                    path.display()
                );
            }
        }
    }
}
