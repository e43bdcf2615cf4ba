//! `serve_mixed`: an in-process `cobra-serve` daemon on a Unix socket,
//! driven closed-loop by one connection per worker thread, each keeping
//! [`WINDOW`] jobs outstanding against a queue of [`QUEUE_CAP`], so the
//! admission queue fills and `E_QUEUE_FULL` back-pressure is exercised.
//!
//! The load is a sequence of rounds. Each round starts a fresh daemon
//! with an empty cache and replays, in seeded order, the traffic of the
//! repository's own serve clients ([`ROUND_LINES`] lines):
//!
//! - the raw-topology jobs of CI's search-smoke `cobra-search` run
//!   (cold, with static analysis at admission);
//! - CI's serve-smoke `--bench-client` cold sweep (every stock design on
//!   every SPECint17 profile) and its warm sweep (tier-1 result hits);
//! - the tier-2 sweep of `EXPERIMENTS.md` "Served evaluation": the same
//!   grid at 2.5 × the cold sweep's `insts` (checkpoint restore plus the
//!   remainder);
//! - one malformed or invalid line per documented refusal path.
//!
//! A repeat is sent only once the job it repeats has answered, so its
//! cache tier is determined.

use crate::span::{self, now_ns};
use crate::{stats, Ctx, Outcome};
use cobra_bench::jsonv::{self, Json};
use cobra_bench::runner::parallel_map_on;
use cobra_bench::serve::client::Client;
use cobra_bench::serve::exec::{execute_job, warmup_for};
use cobra_bench::serve::protocol::{self, JobTarget};
use cobra_bench::serve::server::{Listen, ServeConfig, Server};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::SPEC17_NAMES;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Measured instructions of a cold job and of an exact repeat: the
/// `COBRA_INSTS` of CI's search-smoke leg and the `--insts` of its serve
/// smoke sweeps.
const COLD_INSTS: u64 = 20_000;
/// Measured instructions of a larger-`insts` repeat: 2.5 × the cold
/// sweep's, the ratio of the tier-2 sweep in `EXPERIMENTS.md` (250 000
/// after 100 000).
const LARGE_INSTS: u64 = COLD_INSTS * 5 / 2;
/// Jobs each connection keeps outstanding.
const WINDOW: usize = 3;
/// The daemon's admission-queue bound: below the clients' combined
/// window minus the workers, so some submits are refused and retried.
const QUEUE_CAP: usize = 3;
/// The candidates that `cobra-search --budget 64 --seed 7 --generations 1
/// --population 4 --workloads gcc,xz --serve <addr>` submits with
/// `COBRA_INSTS=20000`, CI's search-smoke arguments, as `(topology,
/// ghist_bits, lhist_entries)`. Each is submitted once per workload in
/// [`SEARCH_WORKLOADS`]; every one passes the lint gate.
const SEARCH_CANDIDATES: &[(&str, u32, u64)] = &[
    ("ITTAGE3 > LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", 64, 0),
    ("LOOP3 > SC3 > TAGE3 > BTB2 > BIM2 > UBTB1", 64, 0),
    ("PERC3 > BTB2 > BIM2", 32, 0),
    ("TOURNEY3 > [GBIM2 > BTB2, LBIM2]", 32, 256),
    ("PERC3 > BTB2 > GBIM2", 32, 0),
    (
        "LOOP3 > SC3 > TAGE3 > TOURNEY3 > [BTB2, BIM2 > UBTB1]",
        64,
        0,
    ),
    ("PERC3 > BTB2 > UBTB1", 32, 0),
    ("SC3 > TAGE3 > BTB2 > BIM2 > UBTB1", 64, 0),
];
/// The search-smoke leg's `--workloads`.
const SEARCH_WORKLOADS: &[&str] = &["gcc", "xz"];
/// Malformed or invalid lines per round: one per documented refusal path.
const INVALID: usize = 6;
/// Lines per round: the search jobs, the cold, warm and tier-2 sweeps
/// over the 30 Fig-10 cells, and the invalid lines.
const ROUND_LINES: usize = SEARCH_CANDIDATES.len() * SEARCH_WORKLOADS.len() + 3 * 30 + INVALID;

/// What a job identity names: its target, workload and length.
type Identity = (JobTarget, String, u64);

/// The answer a line must get.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    /// A result served from this cache tier.
    Result(&'static str),
    /// A rejection with this code.
    Reject(&'static str),
}

struct Job {
    line: String,
    expect: Expect,
    /// A job that must have answered before this one is sent.
    dep: Option<usize>,
    identity: Option<Identity>,
    /// `(design index, profile index)` of a cold stock-design cell.
    cell: Option<(usize, usize)>,
    /// Instructions the daemon simulates for this job on its expected
    /// cache tier: warm-up plus measured on a miss, the part past the
    /// restored warm-up boundary on a tier-2 restore, none on a hit.
    simulated: u64,
}

/// The round's jobs, job `i` carrying id `i + 1`, and the seeded order
/// in which they are sent.
fn round_jobs(seed: u64) -> (Vec<Job>, Vec<usize>) {
    let stock = designs::all();
    let mut jobs = Vec::new();
    let named = |d: usize| JobTarget::Named(stock[d].name.clone());
    let push = |jobs: &mut Vec<Job>,
                target: JobTarget,
                w: &str,
                insts: u64,
                (expect, simulated): (Expect, u64),
                dep: Option<usize>,
                cell: Option<(usize, usize)>| {
        let id = jobs.len() as u64 + 1;
        jobs.push(Job {
            line: protocol::submit_line(id, &target, w, insts),
            expect,
            dep,
            identity: Some((target, w.to_string(), insts)),
            cell,
            simulated,
        });
    };
    let miss = |insts: u64| (Expect::Result("miss"), insts + warmup_for(insts));
    for &(topology, ghist_bits, lhist_entries) in SEARCH_CANDIDATES {
        for w in SEARCH_WORKLOADS {
            let target = JobTarget::Topology {
                topology: topology.to_string(),
                ghist_bits,
                lhist_entries,
            };
            push(
                &mut jobs,
                target,
                w,
                COLD_INSTS,
                miss(COLD_INSTS),
                None,
                None,
            );
        }
    }
    let mut cold = Vec::new();
    for d in 0..stock.len() {
        for (s, w) in SPEC17_NAMES.iter().enumerate() {
            cold.push(jobs.len());
            push(
                &mut jobs,
                named(d),
                w,
                COLD_INSTS,
                miss(COLD_INSTS),
                None,
                Some((d, s)),
            );
        }
    }
    let hit = (Expect::Result("hit"), 0);
    let warm = (
        Expect::Result("warm"),
        LARGE_INSTS + warmup_for(LARGE_INSTS) - warmup_for(COLD_INSTS),
    );
    for (insts, tier) in [(COLD_INSTS, hit), (LARGE_INSTS, warm)] {
        for &c in &cold {
            let (d, s) = jobs[c].cell.expect("cold jobs are cells");
            push(
                &mut jobs,
                named(d),
                SPEC17_NAMES[s],
                insts,
                tier.clone(),
                Some(c),
                None,
            );
        }
    }
    let n = jobs.len() as u64;
    let invalid: [(String, &'static str); INVALID] = [
        ("{\"op\":\"submit\",\"id\":".into(), protocol::E_PARSE),
        ("{\"op\":\"frobnicate\"}".into(), protocol::E_PARSE),
        (
            protocol::submit_line(n + 3, &named(0), "no_such_workload", COLD_INSTS),
            protocol::E_WORKLOAD,
        ),
        (
            protocol::submit_line(
                n + 4,
                &JobTarget::Named("NoSuchDesign".into()),
                "gcc",
                COLD_INSTS,
            ),
            protocol::E_TOPOLOGY,
        ),
        (
            protocol::submit_line(
                n + 5,
                &JobTarget::Topology {
                    topology: "TAGE3 >".into(),
                    ghist_bits: 32,
                    lhist_entries: 0,
                },
                "gcc",
                COLD_INSTS,
            ),
            protocol::E_TOPOLOGY,
        ),
        (
            protocol::submit_line(n + 6, &named(1), "gcc", 0),
            protocol::E_INSTS,
        ),
    ];
    for (line, code) in invalid {
        jobs.push(Job {
            line,
            expect: Expect::Reject(code),
            dep: None,
            identity: None,
            cell: None,
            simulated: 0,
        });
    }
    assert_eq!(jobs.len(), ROUND_LINES);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    crate::shuffle(&mut order, seed ^ 0x5e_7e);
    (jobs, order)
}

/// Hands out the round's jobs in seeded order to the connections,
/// holding back a repeat until the job it repeats has answered.
struct Dispatcher {
    st: Mutex<DispState>,
    cv: Condvar,
}

struct DispState {
    order: Vec<usize>,
    sent: Vec<bool>,
    answered: Vec<bool>,
}

enum Take {
    Job(usize),
    Blocked,
    Finished,
}

impl Dispatcher {
    fn new(order: &[usize]) -> Dispatcher {
        Dispatcher {
            st: Mutex::new(DispState {
                order: order.to_vec(),
                sent: vec![false; order.len()],
                answered: vec![false; order.len()],
            }),
            cv: Condvar::new(),
        }
    }

    fn take(&self, jobs: &[Job]) -> Take {
        let mut st = self.st.lock().expect("dispatcher poisoned");
        let mut blocked = false;
        for k in 0..st.order.len() {
            let i = st.order[k];
            if st.sent[i] {
                continue;
            }
            if jobs[i].dep.is_some_and(|d| !st.answered[d]) {
                blocked = true;
                continue;
            }
            st.sent[i] = true;
            return Take::Job(i);
        }
        if blocked {
            Take::Blocked
        } else {
            Take::Finished
        }
    }

    fn answered(&self, i: usize) {
        self.st.lock().expect("dispatcher poisoned").answered[i] = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let st = self.st.lock().expect("dispatcher poisoned");
        let _ = self.cv.wait_timeout(st, Duration::from_millis(20));
    }
}

/// One answered job, as the client saw it.
struct Served {
    job: usize,
    /// First submit, `accepted`, and `result`, on the span clock.
    sent_ns: u64,
    accepted_ns: u64,
    result_ns: u64,
    /// The result's own execution time.
    exec_s: f64,
    cache: String,
    report: String,
    mpki: f64,
}

#[derive(Default)]
struct ConnLog {
    served: Vec<Served>,
    /// Jobs refused with their expected code.
    refused_ok: u64,
    retries: u64,
    failures: Vec<String>,
    /// Lines that got the wrong answer or none.
    failed: u64,
}

/// Drives one connection until the round's jobs are all answered.
///
/// A lost connection, or an event that matches no job this connection
/// is waiting on, ends the drive: every line still unanswered counts as
/// failed (and the stray event once more) and is released in the
/// dispatcher, so neither connection waits on an answer that will not
/// come.
fn drive(mut conn: Client, disp: &Dispatcher, jobs: &[Job]) -> ConnLog {
    let mut log = ConnLog::default();
    // Sent and not yet answered.
    let mut inflight: BTreeSet<usize> = BTreeSet::new();
    // Sent and not yet accepted or rejected, in submit order: the daemon
    // answers admission in that order on each connection.
    let mut awaiting: VecDeque<usize> = VecDeque::new();
    let mut sent_ns: BTreeMap<usize, u64> = BTreeMap::new();
    let mut accepted_ns: BTreeMap<usize, u64> = BTreeMap::new();
    let abandon = |log: &mut ConnLog, inflight: &BTreeSet<usize>, stray: bool, why: String| {
        log.failures
            .push(format!("{why}; {} line(s) left unanswered", inflight.len()));
        log.failed += inflight.len() as u64 + u64::from(stray);
        for &i in inflight {
            disp.answered(i);
        }
    };
    loop {
        let mut finished = false;
        while inflight.len() < WINDOW {
            match disp.take(jobs) {
                Take::Job(i) => {
                    sent_ns.insert(i, now_ns());
                    if let Err(e) = conn.send(&jobs[i].line) {
                        log.failures.push(format!("send: {e}"));
                        log.failed += 1;
                        disp.answered(i);
                        continue;
                    }
                    awaiting.push_back(i);
                    inflight.insert(i);
                }
                Take::Blocked => break,
                Take::Finished => {
                    finished = true;
                    break;
                }
            }
        }
        if inflight.is_empty() {
            if finished {
                return log;
            }
            disp.wait();
            continue;
        }
        let (line, v) = match conn.recv() {
            Ok(Some(line)) => match jsonv::parse(&line) {
                Ok(v) => (line, v),
                Err(e) => {
                    abandon(
                        &mut log,
                        &inflight,
                        true,
                        format!("unparsable event {line:?}: {e}"),
                    );
                    return log;
                }
            },
            other => {
                abandon(
                    &mut log,
                    &inflight,
                    false,
                    format!("connection lost: {other:?}"),
                );
                return log;
            }
        };
        match v.get("ev").and_then(Json::as_str).unwrap_or("") {
            "accepted" => {
                // A fast job's result may already have arrived.
                let id = v.get("id").and_then(Json::as_u64);
                let Some(i) = awaiting.pop_front().filter(|&i| id == Some(i as u64 + 1)) else {
                    abandon(&mut log, &inflight, true, format!("unexpected {line}"));
                    return log;
                };
                accepted_ns.insert(i, now_ns());
            }
            "rejected" => {
                let Some(i) = awaiting.pop_front().filter(|i| inflight.contains(i)) else {
                    abandon(&mut log, &inflight, true, format!("unexpected {line}"));
                    return log;
                };
                let code = v.get("code").and_then(Json::as_str).unwrap_or("");
                if code == protocol::E_QUEUE_FULL {
                    log.retries += 1;
                    let wait = v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(50);
                    std::thread::sleep(Duration::from_millis(wait.min(1000)));
                    if conn.send(&jobs[i].line).is_ok() {
                        awaiting.push_back(i);
                        continue;
                    }
                }
                inflight.remove(&i);
                if matches!(jobs[i].expect, Expect::Reject(c) if c == code) {
                    log.refused_ok += 1;
                } else {
                    log.failed += 1;
                    log.failures.push(format!(
                        "line {:?}: expected {:?}, got {line}",
                        jobs[i].line, jobs[i].expect
                    ));
                }
                disp.answered(i);
            }
            "result" => {
                let id = v.get("id").and_then(Json::as_u64);
                let job = id.and_then(|id| usize::try_from(id).ok()?.checked_sub(1));
                let Some(i) = job.filter(|i| inflight.remove(i)) else {
                    abandon(
                        &mut log,
                        &inflight,
                        true,
                        format!("result for no line in flight: {line}"),
                    );
                    return log;
                };
                let now = now_ns();
                let report = protocol::report_bytes(&line).unwrap_or("").to_string();
                let mpki = match v.get("report").map(protocol::report_from_json) {
                    Some(Ok(r)) => r.counters.mpki(),
                    _ => 0.0,
                };
                let s = Served {
                    job: i,
                    sent_ns: sent_ns.get(&i).copied().unwrap_or(now),
                    accepted_ns: accepted_ns.get(&i).copied().unwrap_or(now),
                    result_ns: now,
                    exec_s: v.get("wall_s").and_then(Json::as_num).unwrap_or(0.0),
                    cache: v
                        .get("cache")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    report,
                    mpki,
                };
                record_spans(&s);
                log.served.push(s);
                disp.answered(i);
            }
            _ => {}
        }
    }
}

impl Served {
    /// Splits the client-observed latency into admit, queue-wait and
    /// execution parts that add up to it exactly: execution is the
    /// result's own `wall_s`, ending at the result; admission ends at the
    /// `accepted` event or when execution began, if that event was
    /// delivered late; the queue wait is what lies between. Also returns
    /// by how much execution overruns the whole window (0 when the
    /// daemon's time fits inside the client's, as it must).
    fn phases(&self) -> [u64; 4] {
        let exec_ns = (self.exec_s * 1e9) as u64;
        let exec_start = self.result_ns.saturating_sub(exec_ns).max(self.sent_ns);
        let admit_end = self.accepted_ns.clamp(self.sent_ns, exec_start);
        let over = exec_ns.saturating_sub(self.result_ns - self.sent_ns);
        [
            admit_end - self.sent_ns,
            exec_start - admit_end,
            self.result_ns - exec_start,
            over,
        ]
    }
}

/// The traced run's spans of one answered job: the job (first submit to
/// result) and its admit, queue-wait and execution parts.
fn record_spans(s: &Served) {
    let [admit, queue, _, _] = s.phases();
    let (a, q) = (s.sent_ns + admit, s.sent_ns + admit + queue);
    let job = span::record("serve.job", None, s.sent_ns, s.result_ns);
    span::record("serve.admit", Some(job), s.sent_ns, a);
    span::record("serve.queue", Some(job), a, q);
    span::record("serve.exec", Some(job), q, s.result_ns);
}

/// Bytes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    wall_s: f64,
    traced: bool,
    logs: Vec<ConnLog>,
    stats: Option<Json>,
    cache_bytes: u64,
}

/// Starts a daemon with an empty cache, runs one round of the mix over
/// `threads` connections, and shuts the daemon down.
fn run_round(ctx: &Ctx, k: usize, jobs: &[Job], order: &[usize]) -> Result<Round, String> {
    let t = Instant::now();
    // A path relative to the working directory keeps the socket name
    // under the Unix-socket length limit wherever the checkout lives.
    let rel = ctx.tmp.strip_prefix(&ctx.root).unwrap_or(&ctx.tmp);
    let dir = rel.join(format!("round{k}"));
    let listen = Listen::Unix(dir.join("serve.sock"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Server::bind(ServeConfig {
        listen: listen.clone(),
        threads: ctx.threads,
        queue_cap: QUEUE_CAP,
        cache_dir: Some(dir.join("cache")),
        insts_cap: cobra_bench::serve::DEFAULT_INSTS_CAP,
        progress_stride: Some(0),
    })
    .map_err(|e| format!("bind {}: {e}", dir.display()))?;
    let drain = server.drain_handle();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let result = (|| {
            let mut conns = Vec::new();
            for _ in 0..ctx.threads {
                let mut c = Client::connect(&listen).map_err(|e| format!("connect: {e}"))?;
                c.recv_until("hello", |_, _| {})
                    .map_err(|e| format!("hello: {e}"))?
                    .ok_or("daemon closed before hello")?;
                conns.push(c);
            }
            let setup_s = t.elapsed().as_secs_f64();
            let disp = Dispatcher::new(order);
            let t = Instant::now();
            let logs: Vec<ConnLog> = std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .into_iter()
                    .map(|c| {
                        let disp = &disp;
                        s.spawn(move || {
                            let log = drive(c, disp, jobs);
                            span::flush_thread();
                            log
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("connection driver panicked"))
                    .collect()
            });
            let wall_s = t.elapsed().as_secs_f64();
            let mut control = Client::connect(&listen).map_err(|e| format!("connect: {e}"))?;
            control
                .send("{\"op\":\"stats\"}")
                .map_err(|e| format!("stats: {e}"))?;
            let stats = control
                .recv_until("stats", |_, _| {})
                .map_err(|e| format!("stats: {e}"))?
                .map(|(_, v)| v);
            Ok(Round {
                setup_s,
                wall_s,
                traced: false,
                logs,
                stats,
                cache_bytes: dir_bytes(&dir.join("cache")),
            })
        })();
        // Clients are dropped by now; drain and wait for the daemon.
        drain.drain();
        daemon.join().map_err(|_| "daemon panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        result
    })
}

/// The cache-less oracle: each distinct identity's report, rendered the
/// way the daemon renders it.
fn oracle(ctx: &Ctx, ids: &[Identity]) -> Vec<String> {
    parallel_map_on(ctx.threads, ids, |_, (target, workload, insts)| {
        let design = match target {
            JobTarget::Named(n) => designs::by_name(n).expect("mix names stock designs"),
            JobTarget::Topology {
                topology,
                ghist_bits,
                lhist_entries,
            } => designs::from_topology(topology, *ghist_bits, *lhist_entries),
        };
        let spec = cobra_bench::workload_by_name(workload).expect("mix names known workloads");
        let o = execute_job(&design, CoreConfig::boom_4wide(), &spec, *insts, None, None);
        protocol::report_json(&o.report)
    })
}

/// `serve_mixed`.
pub fn serve_mixed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (jobs, order) = round_jobs(ctx.seed);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // Untraced rounds for the end-to-end numbers; in a traced run,
    // untraced and traced rounds alternate so their walls compare.
    while rounds.len() < 2 || started.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && rounds.len() % 2 == 1;
        span::set_enabled(traced);
        let mut r = run_round(ctx, rounds.len(), &jobs, &order)?;
        span::set_enabled(false);
        r.traced = traced;
        rounds.push(r);
    }

    // Output checks: each line's answer, and every served report against
    // the cache-less oracle.
    let mut ids: Vec<Identity> = Vec::new();
    for j in &jobs {
        if let Some(id) = &j.identity {
            if !ids.contains(id) {
                ids.push(id.clone());
            }
        }
    }
    let expected = oracle(ctx, &ids);
    let want: BTreeMap<usize, &str> = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, j)| {
            let id = j.identity.as_ref()?;
            let k = ids.iter().position(|x| x == id)?;
            Some((i, expected[k].as_str()))
        })
        .collect();
    let valid = jobs.iter().filter(|j| j.identity.is_some()).count();
    for r in &rounds {
        for log in &r.logs {
            for f in &log.failures {
                out.note(f.clone());
            }
            for _ in 0..log.refused_ok {
                out.op(true, String::new);
            }
            for _ in 0..log.failed {
                out.op(false, String::new);
            }
            for s in &log.served {
                let job = &jobs[s.job];
                let bytes_ok = want.get(&s.job) == Some(&s.report.as_str());
                let tier_ok = matches!(job.expect, Expect::Result(t) if t == s.cache);
                out.op(bytes_ok && tier_ok, || {
                    format!(
                        "{}: {}{}",
                        job.line,
                        if bytes_ok {
                            ""
                        } else {
                            "report differs from the cache-less oracle; "
                        },
                        if tier_ok {
                            String::new()
                        } else {
                            format!("served as {}, expected {:?}", s.cache, job.expect)
                        }
                    )
                });
            }
        }
        let served: usize = r.logs.iter().map(|l| l.served.len()).sum();
        out.op(served == valid, || {
            format!("round answered {served} of {valid} valid jobs")
        });
    }

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let lat: Vec<f64> = served_in(&plain)
        .iter()
        .map(|s| (s.result_ns - s.sent_ns) as f64 / 1e6)
        .collect();
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| r.logs.iter().map(|l| l.served.len()).sum::<usize>() as f64 / r.wall_s)
        .collect();
    let mips: Vec<f64> = plain
        .iter()
        .map(|r| {
            r.logs
                .iter()
                .flat_map(|l| &l.served)
                .map(|s| jobs[s.job].simulated as f64)
                .sum::<f64>()
                / r.wall_s
                / 1e6
        })
        .collect();
    let first = plain[0];
    let cells: Vec<f64> = first
        .logs
        .iter()
        .flat_map(|l| &l.served)
        .filter_map(|s| {
            let (d, w) = jobs[s.job].cell?;
            let paper = crate::fixture::paper_mpki(&designs::all()[d].name, w);
            Some(crate::fixture::err_pct(s.mpki, paper))
        })
        .collect();
    out.set(
        "setup_s",
        stats::median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    out.set("wall_s", stats::median(&walls));
    out.set("jobs_per_s", stats::median(&rates));
    out.set("sim_mips", stats::median(&mips));
    out.set("latency_p50_ms", stats::percentile(&lat, 50.0));
    out.set("latency_p90_ms", stats::percentile(&lat, 90.0));
    out.set(
        "paper_mpki_err_pct",
        cells.iter().sum::<f64>() / cells.len().max(1) as f64,
    );
    out.samples("latency", &lat);
    out.info(format!("untraced rounds: {}", plain.len()));

    // Per-layer: the serve path's own timings, from the client's view.
    let rs: Vec<&Round> = rounds.iter().collect();
    let served = served_in(&rs);
    let ms = |f: &dyn Fn(&Served) -> Option<f64>| -> f64 {
        stats::median(&served.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
    };
    out.set("serve.admit_ms", ms(&|s| Some(s.phases()[0] as f64 / 1e6)));
    out.set(
        "serve.queue_wait_ms",
        ms(&|s| Some(s.phases()[1] as f64 / 1e6)),
    );
    for (tier, name) in [
        ("hit", "serve.hit_ms"),
        ("warm", "serve.warm_ms"),
        ("miss", "serve.miss_ms"),
    ] {
        out.set(name, ms(&|s| (s.cache == tier).then_some(s.exec_s * 1e3)));
    }
    let per_round =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let cache_stat = |r: &Round, k: &str| {
        r.stats
            .as_ref()
            .and_then(|v| v.get("cache"))
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    out.set(
        "serve.hit_ratio",
        per_round(&|r| {
            let h = cache_stat(r, "hits");
            h / (h + cache_stat(r, "warm") + cache_stat(r, "miss")).max(1.0)
        }),
    );
    out.set("serve.stores", per_round(&|r| cache_stat(r, "stores")));
    out.set(
        "serve.refusals_expected",
        per_round(&|r| r.logs.iter().map(|l| l.refused_ok).sum::<u64>() as f64),
    );
    out.set(
        "serve.retries",
        per_round(&|r| r.logs.iter().map(|l| l.retries).sum::<u64>() as f64),
    );
    out.set("serve.cache_bytes", per_round(&|r| r.cache_bytes as f64));

    // Reconciliation: admit + queue wait + execution = latency by
    // construction (see `Served::phases`), which holds only if the
    // daemon's own execution time fits inside the client's submit ->
    // result window (1 ms tolerance for clock reads).
    let mut worst = 0.0f64;
    for s in &served {
        let [_, _, _, over] = s.phases();
        let latency = (s.result_ns - s.sent_ns) as f64;
        worst = worst.max(over as f64 * 100.0 / latency.max(1.0));
        out.op(over <= 1_000_000, || {
            format!(
                "execution {:.3} ms exceeds the submit->result window {:.3} ms",
                s.exec_s * 1e3,
                latency / 1e6
            )
        });
    }
    out.set("trace.reconcile_err_pct", worst);
    if ctx.trace {
        let traced: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall_s)
            .collect();
        let untraced = stats::median(&walls);
        out.set(
            "trace.overhead_pct",
            (stats::median(&traced) - untraced) * 100.0 / untraced,
        );
        ctx.write_spans(&span::take_all())?;
    }
    Ok(())
}

/// Every answered job of `rounds`.
fn served_in<'a>(rounds: &[&'a Round]) -> Vec<&'a Served> {
    rounds
        .iter()
        .flat_map(|r| r.logs.iter().flat_map(|l| l.served.iter()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    /// A daemon that answers with a result for a line never sent must
    /// fail the connection's lines at once, not leave it waiting for
    /// answers that will not come.
    #[test]
    fn a_stray_event_fails_the_lines_in_flight() {
        let dir = std::env::temp_dir().join(format!("perfbench-drive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sock");
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let fake = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(sock.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            writeln!(sock, "{{\"ev\":\"result\",\"id\":999}}").unwrap();
            // Hold the connection open, as a live daemon would.
            let _ = done_rx.recv_timeout(Duration::from_secs(30));
        });
        let conn = Client::connect(&Listen::Unix(path.clone())).unwrap();
        let (jobs, order) = round_jobs(1);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let disp = Dispatcher::new(&order);
            let _ = tx.send(drive(conn, &disp, &jobs));
        });
        let log = rx.recv_timeout(Duration::from_secs(10));
        done_tx.send(()).unwrap();
        fake.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let log = log.expect("drive returned");
        assert!(log.served.is_empty());
        // The window's lines plus the stray event itself.
        assert_eq!(log.failed, WINDOW as u64 + 1);
        assert_eq!(log.failures.len(), 1, "{:?}", log.failures);
    }
}
