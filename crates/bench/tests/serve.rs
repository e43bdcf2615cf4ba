//! End-to-end tests for the `cobra-serve` daemon: served reports must be
//! byte-identical to direct in-process runs on every cache path, the
//! golden fixture must agree with what the daemon serves, admission must
//! answer bad jobs with precise reject codes, and the bounded queue must
//! push back instead of stalling.
//!
//! Each test binds an ephemeral TCP port (`tcp:127.0.0.1:0`), runs the
//! real server on a background thread, and talks the real wire protocol
//! through `serve::client::Client` — nothing is mocked.

use std::path::PathBuf;

use cobra_bench::jsonv::{self, Json};
use cobra_bench::serve::client::Client;
use cobra_bench::serve::exec::execute_job;
use cobra_bench::serve::protocol::{self, JobTarget};
use cobra_bench::serve::server::{DrainHandle, Listen, ServeConfig, Server};
use cobra_bench::workload_by_name;
use cobra_core::designs;
use cobra_uarch::CoreConfig;

/// Matches the golden fixture's measured region
/// (`crates/bench/tests/golden/reports.jsonl`), so served counters can be
/// cross-checked against the committed goldens.
const INSTS: u64 = 20_000;

struct TestServer {
    listen: Listen,
    drain: DrainHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(threads: usize, queue_cap: usize, cache_dir: Option<PathBuf>) -> TestServer {
        let server = Server::bind(ServeConfig {
            listen: Listen::parse("tcp:127.0.0.1:0").unwrap(),
            threads,
            queue_cap,
            cache_dir,
            insts_cap: 1_000_000,
            progress_stride: None,
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("tcp listener has an address");
        let drain = server.drain_handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            listen: Listen::Tcp(addr.to_string()),
            drain,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.listen).expect("connect to test server")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.drain.drain();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread exits on drain");
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits `cells` over one connection (pipelined) and returns, per cell
/// id, the result event's `(raw report bytes, cache disposition)`.
fn sweep(
    client: &mut Client,
    cells: &[(u64, &str, &str)],
    insts: u64,
) -> std::collections::BTreeMap<u64, (String, String)> {
    for (id, design, workload) in cells {
        let line = protocol::submit_line(
            *id,
            &JobTarget::Named((*design).to_string()),
            workload,
            insts,
        );
        client.send(&line).expect("send submit");
    }
    let mut out = std::collections::BTreeMap::new();
    while out.len() < cells.len() {
        let (line, parsed) = client
            .recv_until("result", |l, v| {
                let ev = v.get("ev").and_then(Json::as_str).unwrap_or("");
                assert!(
                    matches!(ev, "hello" | "accepted" | "progress"),
                    "unexpected event during sweep: {l}"
                );
            })
            .expect("recv")
            .expect("server stayed up");
        let id = parsed.get("id").and_then(Json::as_u64).unwrap();
        let cache = parsed
            .get("cache")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let bytes = protocol::report_bytes(&line).unwrap().to_string();
        out.insert(id, (bytes, cache));
    }
    out
}

/// The direct (no daemon, no cache) rendering of one grid cell — the
/// byte-identity baseline.
fn direct(design: &str, workload: &str, insts: u64) -> String {
    let design = designs::by_name(design).unwrap();
    let spec = workload_by_name(workload).unwrap();
    let outcome = execute_job(&design, CoreConfig::boom_4wide(), &spec, insts, None, None);
    protocol::report_json(&outcome.report)
}

#[test]
fn served_reports_are_byte_identical_to_direct_runs() {
    let cache = scratch("e2e");
    let server = TestServer::start(3, 64, Some(cache.clone()));

    // The golden grid — every stock design on two contrasting profiles —
    // driven cold from two concurrent connections.
    let mut cells: Vec<(u64, String, String)> = Vec::new();
    for (d, design) in designs::all().iter().enumerate() {
        for (w, workload) in ["gcc", "xz"].iter().enumerate() {
            cells.push((
                (d * 2 + w) as u64,
                design.name.clone(),
                workload.to_string(),
            ));
        }
    }
    let all: Vec<(u64, &str, &str)> = cells
        .iter()
        .map(|(i, d, w)| (*i, d.as_str(), w.as_str()))
        .collect();
    let left: Vec<_> = all.iter().step_by(2).copied().collect();
    let right: Vec<_> = all.iter().skip(1).step_by(2).copied().collect();

    let (cold_left, cold_right) = std::thread::scope(|s| {
        let mut c1 = server.connect();
        let mut c2 = server.connect();
        let t1 = s.spawn(move || sweep(&mut c1, &left, INSTS));
        let t2 = s.spawn(move || sweep(&mut c2, &right, INSTS));
        (t1.join().unwrap(), t2.join().unwrap())
    });
    let mut cold = cold_left;
    cold.extend(cold_right);
    assert_eq!(cold.len(), cells.len());

    // Byte-identity against direct runs, and a cold sweep never hits.
    for (id, design, workload) in cells.iter().map(|(i, d, w)| (*i, d.as_str(), w.as_str())) {
        let (bytes, cache_tag) = &cold[&id];
        assert_eq!(cache_tag, "miss", "cold sweep cell {design}/{workload}");
        assert_eq!(
            *bytes,
            direct(design, workload, INSTS),
            "served vs direct for {design}/{workload}"
        );
    }

    // Cross-check the served counters against the committed golden
    // fixture: same designs, same workloads, same measured region.
    let fixture = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reports.jsonl"),
    )
    .expect("golden fixture exists");
    for line in fixture.lines() {
        let g = jsonv::parse(line).unwrap();
        let (gd, gw) = (
            g.get("design").and_then(Json::as_str).unwrap(),
            g.get("workload").and_then(Json::as_str).unwrap(),
        );
        let id = cells
            .iter()
            .find(|(_, d, w)| d == gd && w == gw)
            .map(|(i, _, _)| *i)
            .expect("fixture cell is in the sweep");
        let served = jsonv::parse(&cold[&id].0).unwrap();
        for key in [
            "cycles",
            "committed_insts",
            "cond_mispredicts",
            "fetch_bubbles",
        ] {
            assert_eq!(
                served
                    .get("counters")
                    .unwrap()
                    .get(key)
                    .and_then(Json::as_u64),
                g.get(key).and_then(Json::as_u64),
                "golden {key} for {gd}/{gw}"
            );
        }
    }

    // Second sweep: every cell is a tier-1 hit, bytes unchanged.
    let warm = sweep(&mut server.connect(), &all, INSTS);
    for (id, _, _) in &all {
        let (bytes, cache_tag) = &warm[id];
        assert_eq!(cache_tag, "hit", "second sweep cell {id}");
        assert_eq!(bytes, &cold[id].0, "tier-1 hit bytes for cell {id}");
    }

    // Larger measured region over the same design/workload: tier 2
    // restores the 8 000-instruction warmup checkpoint (20 000-inst jobs
    // store w8000; a 30 000-inst job wants w12000, so the best eligible
    // boundary is 8 000) and still matches the direct run byte for byte.
    let longer = sweep(&mut server.connect(), &[(99, "B2", "gcc")], 30_000);
    let (bytes, cache_tag) = &longer[&99];
    assert_eq!(cache_tag, "warm");
    assert_eq!(*bytes, direct("B2", "gcc", 30_000));

    drop(server);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn admission_rejects_are_precise() {
    let server = TestServer::start(1, 8, None);
    let mut c = server.connect();

    let expect_reject = |c: &mut Client, send: &str, code: &str| -> Json {
        c.send(send).unwrap();
        let (_, parsed) = c
            .recv_until("rejected", |_, _| {})
            .unwrap()
            .expect("server stayed up");
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some(code),
            "for request {send}"
        );
        parsed
    };

    expect_reject(&mut c, "this is not json", protocol::E_PARSE);
    expect_reject(&mut c, "{\"op\":\"frobnicate\"}", protocol::E_PARSE);
    // Nesting past the parser's cap is a parse reject, not a stack
    // overflow that would take the daemon down.
    let deep = format!("{{\"op\":\"submit\",\"id\":{}", "[".repeat(10_000));
    let r = expect_reject(&mut c, &deep, protocol::E_PARSE);
    assert!(r
        .get("msg")
        .and_then(Json::as_str)
        .unwrap()
        .contains(&format!("nesting deeper than {}", jsonv::MAX_DEPTH)));
    expect_reject(
        &mut c,
        "{\"op\":\"submit\",\"id\":1,\"design\":\"B2\",\"workload\":\"notaworkload\"}",
        protocol::E_WORKLOAD,
    );
    expect_reject(
        &mut c,
        "{\"op\":\"submit\",\"id\":2,\"design\":\"NoSuchDesign\",\"workload\":\"gcc\"}",
        protocol::E_TOPOLOGY,
    );
    expect_reject(
        &mut c,
        "{\"op\":\"submit\",\"id\":3,\"design\":\"B2\",\"workload\":\"gcc\",\"insts\":0}",
        protocol::E_INSTS,
    );
    expect_reject(
        &mut c,
        "{\"op\":\"submit\",\"id\":4,\"design\":\"B2\",\"workload\":\"gcc\",\
         \"insts\":999999999}",
        protocol::E_INSTS,
    );
    // A topology that fails to parse reports the span.
    let r = expect_reject(
        &mut c,
        "{\"op\":\"submit\",\"id\":5,\"topology\":\"TAGE3 >\",\"workload\":\"gcc\"}",
        protocol::E_TOPOLOGY,
    );
    assert!(r
        .get("msg")
        .and_then(Json::as_str)
        .unwrap()
        .contains("parse"));
    // A topology that parses but fails the lint gate carries structured
    // C-code diagnostics, exactly what `cobra-lint` would print.
    let r = expect_reject(
        &mut c,
        "{\"op\":\"submit\",\"id\":6,\"topology\":\"UBTB1 > BIM2\",\"workload\":\"gcc\"}",
        protocol::E_TOPOLOGY,
    );
    let diags = r
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("lint failure carries diagnostics");
    assert!(!diags.is_empty());
    assert!(diags[0]
        .get("code")
        .and_then(Json::as_str)
        .is_some_and(|code| code.starts_with('C')));

    // The connection is still healthy after every rejection.
    c.send("{\"op\":\"ping\"}").unwrap();
    assert!(c.recv_until("pong", |_, _| {}).unwrap().is_some());
}

#[test]
fn full_queue_pushes_back_with_retry_hint() {
    // One worker and a one-deep queue: pipelining a burst must produce
    // at least one E_QUEUE_FULL with a retry hint, and every accepted
    // job must still complete.
    let server = TestServer::start(1, 1, None);
    let mut c = server.connect();
    let burst = 8u64;
    for id in 0..burst {
        let line = protocol::submit_line(id, &JobTarget::Named("B2".into()), "gcc", 2_000);
        c.send(&line).unwrap();
    }
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut results = 0u64;
    while accepted + rejected < burst || results < accepted {
        let line = c.recv().unwrap().expect("server stayed up");
        let v = jsonv::parse(&line).unwrap();
        match v.get("ev").and_then(Json::as_str).unwrap() {
            "accepted" => accepted += 1,
            "rejected" => {
                assert_eq!(
                    v.get("code").and_then(Json::as_str),
                    Some(protocol::E_QUEUE_FULL),
                    "only backpressure rejections expected: {line}"
                );
                assert!(
                    v.get("retry_after_ms").and_then(Json::as_u64).unwrap() >= 50,
                    "retry hint present and sane: {line}"
                );
                rejected += 1;
            }
            "result" => results += 1,
            "hello" | "progress" => {}
            other => panic!("unexpected event {other}: {line}"),
        }
    }
    assert!(rejected >= 1, "burst of {burst} never hit the queue bound");
    assert_eq!(results, accepted);
}

#[test]
fn progress_streams_and_shutdown_drains() {
    let mut server = TestServer::start(1, 8, None);
    let mut c = server.connect();
    c.send(&protocol::submit_line(
        7,
        &JobTarget::Named("TAGE-L".into()),
        "xz",
        INSTS,
    ))
    .unwrap();
    let mut progress = 0u64;
    let (_, result) = c
        .recv_until("result", |_, v| {
            if v.get("ev").and_then(Json::as_str) == Some("progress") {
                assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
                let insts = v.get("insts").and_then(Json::as_u64).unwrap();
                let target = v.get("target").and_then(Json::as_u64).unwrap();
                assert!(insts <= target);
                progress += 1;
            }
        })
        .unwrap()
        .expect("server stayed up");
    assert!(progress >= 1, "default stride emits progress events");
    assert_eq!(result.get("cache").and_then(Json::as_str), Some("miss"));

    // stats reflects the finished job.
    c.send("{\"op\":\"stats\"}").unwrap();
    let (_, stats) = c.recv_until("stats", |_, _| {}).unwrap().unwrap();
    assert_eq!(stats.get("done").and_then(Json::as_u64), Some(1));

    // A protocol-level shutdown answers bye and drains the server; the
    // run() thread must come home without the Drop-side drain.
    c.send("{\"op\":\"shutdown\"}").unwrap();
    assert!(c.recv_until("bye", |_, _| {}).unwrap().is_some());
    server
        .thread
        .take()
        .unwrap()
        .join()
        .expect("server drained after shutdown op");
}

#[test]
fn raw_topology_jobs_are_served() {
    let server = TestServer::start(1, 8, None);
    let mut c = server.connect();
    // The B2 design's own topology, submitted raw: admission lints it,
    // a worker builds it from the stock registry, and the measured
    // region commits exactly the requested instructions past warm-up.
    let b2 = designs::b2();
    c.send(&protocol::submit_line(
        11,
        &JobTarget::Topology {
            topology: b2.topology.clone(),
            ghist_bits: b2.ghist_bits,
            lhist_entries: b2.lhist_entries,
        },
        "mcf",
        10_000,
    ))
    .unwrap();
    let (line, parsed) = c
        .recv_until("result", |_, _| {})
        .unwrap()
        .expect("server stayed up");
    let report = protocol::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert_eq!(report.design, b2.topology);
    assert_eq!(report.workload, "mcf");
    // Commit proceeds in fetch packets, so the measured region may run a
    // couple of instructions past the bound — never short of it.
    assert!(report.counters.committed_insts >= 10_000);
    assert!(report.counters.committed_insts < 10_100);
    assert!(protocol::report_bytes(&line).is_some());
}
