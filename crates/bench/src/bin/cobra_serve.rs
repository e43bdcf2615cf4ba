//! `cobra-serve` — a long-running evaluation daemon with a two-tier
//! warm-state cache, plus its load-generating client.
//!
//! ```text
//! cobra-serve                                  # daemon on tcp:127.0.0.1:7app
//! cobra-serve --listen unix:/tmp/cobra.sock    # daemon on a unix socket
//! cobra-serve --listen tcp:0.0.0.0:7040 --threads 8 --cache /var/cobra
//!
//! cobra-serve --bench-client --listen unix:/tmp/cobra.sock
//! #   drive the fig. 10 grid (all designs x SPECint17) through the
//! #   daemon from 2 pipelined connections; report lines on stdout
//! cobra-serve --bench-client --connections 4 --expect-cache hit
//! cobra-serve --bench-client --shutdown        # ... then drain the daemon
//!
//! cobra-serve --direct                         # same grid, no daemon: the
//! #   byte-identical baseline the CI smoke leg diffs served output against
//! ```
//!
//! The wire protocol is specified in `docs/SERVE_PROTOCOL.md`; the
//! environment knobs (`COBRA_SERVE_CACHE`, `COBRA_SERVE_QUEUE`,
//! `COBRA_SERVE_PROGRESS`, `COBRA_SERVE_INSTS_CAP`, and the shared
//! `COBRA_THREADS` / `COBRA_INSTS` / `COBRA_METRICS`) in
//! `docs/CONFIG.md`. CLI flags override the environment.
//!
//! On SIGTERM or SIGINT the daemon drains: it stops admitting, finishes
//! every queued job, flushes each connection, and exits.
//!
//! Exit status follows the README's command-line conventions; 1 means a
//! runtime failure (connection lost, job rejected, `--expect-cache`
//! mismatch).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cobra_bench::cli::{self, Stop};
use cobra_bench::jsonv::{self, Json};
use cobra_bench::serve::client::Client;
use cobra_bench::serve::exec::execute_job;
use cobra_bench::serve::protocol::{self, JobTarget};
use cobra_bench::serve::server::{Listen, ServeConfig, Server};
use cobra_bench::{runner, workload_by_name};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::SPEC17_NAMES;

const DEFAULT_LISTEN: &str = "tcp:127.0.0.1:7040";

const USAGE: &str = "usage: cobra-serve [OPTIONS]

Daemon mode (default): accept evaluation jobs over newline-delimited
JSON (docs/SERVE_PROTOCOL.md) and shard them across a worker pool,
caching warm state across jobs.

  --listen EP           tcp:HOST:PORT or unix:PATH [tcp:127.0.0.1:7040]
  --threads N           worker pool size [COBRA_THREADS]
  --queue N             admission-queue bound [COBRA_SERVE_QUEUE, 64]
  --cache DIR           warm-cache root; `off` disables
                        [COBRA_SERVE_CACHE, serve-cache]
  --insts-cap N         largest accepted per-job insts
                        [COBRA_SERVE_INSTS_CAP, 5000000]
  --progress N          progress-event stride in committed insts; 0
                        disables [COBRA_SERVE_PROGRESS, insts/4]

Client modes:
  --bench-client        drive the fig. 10 grid (all designs x SPECint17)
                        through the daemon; canonical report JSON lines
                        on stdout in grid order
  --connections C       client connections to spread the grid over [2]
  --insts N             measured insts per job [COBRA_INSTS, 500000]
  --expect-cache D      exit 1 unless every job reports disposition D
                        (hit, warm, or miss)
  --shutdown            after the sweep (or alone), ask the daemon to
                        drain and exit
  --direct              run the same grid in-process with no daemon and
                        print byte-identical report lines (CI baseline)

  -h, --help            print this help";

struct Options {
    listen: Listen,
    threads: usize,
    queue_cap: usize,
    cache_dir: Option<PathBuf>,
    insts_cap: u64,
    progress: Option<u64>,
    bench_client: bool,
    direct: bool,
    connections: usize,
    insts: u64,
    expect_cache: Option<String>,
    shutdown: bool,
}

/// Parses `args` over the environment knobs: each flag overrides the
/// config field it duplicates.
fn parse_args(args: &mut cli::Args) -> Result<Options, Stop> {
    let config = cobra_core::config::get();
    let mut o = Options {
        listen: Listen::parse(DEFAULT_LISTEN).expect("default listen endpoint parses"),
        threads: config.threads,
        queue_cap: config.serve_queue,
        cache_dir: config.serve_cache.clone(),
        insts_cap: config.serve_insts_cap,
        progress: config.serve_progress,
        bench_client: false,
        direct: false,
        connections: 2,
        insts: config.insts,
        expect_cache: None,
        shutdown: false,
    };
    while let Some(a) = args.next_arg()? {
        match a.as_str() {
            "--listen" => o.listen = Listen::parse(&args.value()?)?,
            "--threads" => o.threads = args.parse::<usize>()?.max(1),
            "--queue" => o.queue_cap = args.parse::<usize>()?.max(1),
            "--cache" => {
                let v = args.value()?;
                o.cache_dir = if v == "off" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            "--insts-cap" => o.insts_cap = args.parse()?,
            "--progress" => o.progress = Some(args.parse()?),
            "--bench-client" => o.bench_client = true,
            "--direct" => o.direct = true,
            "--connections" => o.connections = args.parse::<usize>()?.max(1),
            "--insts" => o.insts = args.parse::<u64>()?.max(1),
            "--expect-cache" => {
                let v = args.value()?;
                match v.as_str() {
                    "hit" | "warm" | "miss" => o.expect_cache = Some(v),
                    other => {
                        return Err(
                            format!("`--expect-cache` takes hit/warm/miss, got `{other}`").into(),
                        )
                    }
                }
            }
            "--shutdown" => o.shutdown = true,
            _ => return Err(cli::unexpected(&a)),
        }
    }
    if o.direct && (o.bench_client || o.shutdown) {
        return Err("`--direct` runs without a daemon; drop `--bench-client`/`--shutdown`".into());
    }
    Ok(o)
}

/// The fig. 10 grid in design-major order — the same cell order the
/// batch harness uses, so served and direct outputs line up row for row.
fn grid() -> Vec<(String, String)> {
    let mut cells = Vec::new();
    for d in designs::all() {
        for w in SPEC17_NAMES {
            cells.push((d.name.clone(), (*w).to_string()));
        }
    }
    cells
}

fn main() -> ExitCode {
    let o = match cli::parse("cobra-serve", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let outcome = if o.direct {
        run_direct(&o)
    } else if o.bench_client || o.shutdown {
        run_client(&o)
    } else {
        run_daemon(o)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cobra-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- daemon ---------------------------------------------------------------

/// Set by the signal handler; only async-signal-safe work happens there.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // libc is already linked by std; declaring `signal` here avoids an
    // external dependency. Handler work is a single atomic store, which
    // is async-signal-safe; a watcher thread does the actual drain.
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn run_daemon(o: Options) -> Result<(), String> {
    let cfg = ServeConfig {
        listen: o.listen.clone(),
        threads: o.threads,
        queue_cap: o.queue_cap,
        cache_dir: o.cache_dir.clone(),
        insts_cap: o.insts_cap,
        progress_stride: o.progress,
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind failed: {e}"))?;
    let listen_desc = match (&o.listen, server.local_addr()) {
        (Listen::Tcp(_), Some(addr)) => format!("tcp:{addr}"),
        #[cfg(unix)]
        (Listen::Unix(p), _) => format!("unix:{}", p.display()),
        _ => format!("{:?}", o.listen),
    };
    eprintln!(
        "[cobra-serve] listening on {listen_desc} ({} workers, queue {}, cache {})",
        o.threads,
        o.queue_cap,
        o.cache_dir
            .as_ref()
            .map_or("off".to_string(), |p| p.display().to_string())
    );
    install_signal_handlers();
    let drain = server.drain_handle();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("[cobra-serve] signal received; draining");
            drain.drain();
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    });
    server.run();
    Ok(())
}

// --- bench client ---------------------------------------------------------

struct CellOutcome {
    cell: usize,
    report_bytes: String,
    report: cobra_uarch::PerfReport,
    cache: String,
    wall_s: f64,
}

/// Drives `cells` (indices into the grid) through one connection,
/// pipelining every submit before collecting results.
fn drive_connection(
    listen: &Listen,
    grid: &[(String, String)],
    cells: &[usize],
    insts: u64,
) -> Result<Vec<CellOutcome>, String> {
    let mut client = Client::connect(listen).map_err(|e| format!("connect: {e}"))?;
    for &cell in cells {
        let (design, workload) = &grid[cell];
        let line = protocol::submit_line(
            cell as u64,
            &JobTarget::Named(design.clone()),
            workload,
            insts,
        );
        client.send(&line).map_err(|e| format!("send: {e}"))?;
    }
    let mut outcomes = Vec::with_capacity(cells.len());
    while outcomes.len() < cells.len() {
        let Some((line, parsed)) = client
            .recv_until("result", |other_line, other| {
                if other.get("ev").and_then(Json::as_str) == Some("rejected") {
                    eprintln!("[serve-client] rejected: {other_line}");
                }
            })
            .map_err(|e| e.to_string())?
        else {
            return Err(format!(
                "server closed the connection after {} of {} results",
                outcomes.len(),
                cells.len()
            ));
        };
        let cell = parsed
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("result event without an id")? as usize;
        let cache = parsed
            .get("cache")
            .and_then(Json::as_str)
            .ok_or("result event without a cache disposition")?
            .to_string();
        let wall_s = parsed
            .get("wall_s")
            .and_then(Json::as_num)
            .ok_or("result event without wall_s")?;
        let bytes = protocol::report_bytes(&line)
            .ok_or("result event without a trailing report")?
            .to_string();
        let report = protocol::report_from_json(
            parsed
                .get("report")
                .ok_or("result event without a report")?,
        )?;
        outcomes.push(CellOutcome {
            cell,
            report_bytes: bytes,
            report,
            cache,
            wall_s,
        });
    }
    Ok(outcomes)
}

fn run_client(o: &Options) -> Result<(), String> {
    let listen_desc = match &o.listen {
        Listen::Tcp(a) => format!("tcp:{a}"),
        #[cfg(unix)]
        Listen::Unix(p) => format!("unix:{}", p.display()),
    };
    if o.bench_client {
        let grid = grid();
        // Round-robin the grid cells over the connections, then drive
        // every connection from its own thread so submits interleave at
        // the daemon the way real concurrent clients would.
        let assignments: Vec<Vec<usize>> = (0..o.connections)
            .map(|c| (c..grid.len()).step_by(o.connections).collect())
            .collect();
        let started = std::time::Instant::now();
        let outcomes: Vec<Result<Vec<CellOutcome>, String>> =
            runner::parallel_map_on(o.connections, &assignments, |_, cells| {
                drive_connection(&o.listen, &grid, cells, o.insts)
            });
        let wall = started.elapsed();
        let mut by_cell: Vec<Option<CellOutcome>> = (0..grid.len()).map(|_| None).collect();
        for conn in outcomes {
            for c in conn? {
                let slot = c.cell;
                by_cell[slot] = Some(c);
            }
        }
        let mut counts = std::collections::BTreeMap::new();
        let mut metrics_lines = Vec::new();
        let mut mismatched = 0usize;
        for (i, slot) in by_cell.iter().enumerate() {
            let c = slot
                .as_ref()
                .ok_or_else(|| format!("no result for grid cell {i} ({:?})", grid[i]))?;
            println!("{}", c.report_bytes);
            *counts.entry(c.cache.clone()).or_insert(0u64) += 1;
            let job = runner::JobResult {
                report: c.report.clone(),
                wall: Duration::from_secs_f64(c.wall_s),
                trace: None,
                checkpoint: None,
                metrics: None,
                sampled: None,
                served: Some(listen_desc.clone()),
                cache: Some(c.cache.clone()),
            };
            eprintln!(
                "[serve-client] {} {:<28} {:>7.2}s{}",
                runner::job_id(i),
                format!("{}/{}", grid[i].0, grid[i].1),
                c.wall_s,
                job.provenance_note()
            );
            metrics_lines.push(runner::metrics_record(&runner::job_id(i), &job));
            if o.expect_cache.as_deref().is_some_and(|e| e != c.cache) {
                eprintln!(
                    "[serve-client] {} expected cache={} but got {}",
                    runner::job_id(i),
                    o.expect_cache.as_deref().unwrap_or(""),
                    c.cache
                );
                mismatched += 1;
            }
        }
        let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!(
            "[serve-client] {} jobs via {} over {} connection(s) in {:.2}s ({})",
            grid.len(),
            listen_desc,
            o.connections,
            wall.as_secs_f64(),
            summary.join(" ")
        );
        if let Some(path) = &cobra_core::config::get().metrics {
            runner::write_metrics(path, &metrics_lines)
                .map_err(|e| format!("COBRA_METRICS {}: {e}", path.display()))?;
        }
        if mismatched > 0 {
            return Err(format!(
                "{mismatched} job(s) missed the expected cache disposition"
            ));
        }
    }
    if o.shutdown {
        let mut client = Client::connect(&o.listen).map_err(|e| format!("connect: {e}"))?;
        client
            .send("{\"op\":\"shutdown\"}")
            .map_err(|e| format!("send: {e}"))?;
        // Read until bye or EOF so the daemon has acknowledged the drain.
        while let Some(line) = client.recv().map_err(|e| e.to_string())? {
            if jsonv::parse(&line)
                .ok()
                .and_then(|v| v.get("ev").and_then(Json::as_str).map(str::to_string))
                .as_deref()
                == Some("bye")
            {
                break;
            }
        }
        eprintln!("[serve-client] daemon draining");
    }
    Ok(())
}

// --- direct baseline ------------------------------------------------------

fn run_direct(o: &Options) -> Result<(), String> {
    let grid = grid();
    let lines = runner::parallel_map_on(o.threads, &grid, |_, (design, workload)| {
        let design = designs::by_name(design).expect("grid uses catalog names");
        let spec = workload_by_name(workload).expect("grid uses known workloads");
        let outcome = execute_job(
            &design,
            CoreConfig::boom_4wide(),
            &spec,
            o.insts,
            None,
            None,
        );
        protocol::report_json(&outcome.report)
    });
    for line in lines {
        println!("{line}");
    }
    eprintln!(
        "[serve-direct] {} jobs at {} insts (no daemon, no cache)",
        grid.len(),
        o.insts
    );
    Ok(())
}
