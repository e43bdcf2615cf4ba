//! The `cobra-serve` wire protocol: newline-delimited JSON, one message
//! per line in both directions.
//!
//! Client→server lines are *requests* keyed by `"op"`; server→client
//! lines are *events* keyed by `"ev"`. The normative specification —
//! every line type, error code, the backpressure contract, and a worked
//! session transcript — is `docs/SERVE_PROTOCOL.md`; this module is the
//! reference implementation. Rendering is canonical (fixed field order,
//! no whitespace), so a served report is byte-identical to the same
//! report rendered directly by [`report_json`] — the property the CI
//! smoke leg diffs.

use crate::jsonv::{self, Json};
use cobra_core::obs::{AttributionReport, ComponentAttribution, ComponentCounters, OverrideEdge};
use cobra_uarch::{PerfCounters, PerfReport};

/// Protocol version, announced in the `hello` event. Bumped on any
/// incompatible wire change.
pub const PROTO_VERSION: u32 = 1;

/// The longest request line the daemon reads, in bytes without the
/// newline: far above any valid request (a submit with a whitespace-padded
/// raw topology can pass 4 KiB), and the bound on what one connection can
/// make the daemon buffer. A longer line is answered with `E_PARSE` and
/// the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reject code: the request line is not valid JSON or not a known `op`.
pub const E_PARSE: &str = "E_PARSE";
/// Reject code: the design/topology failed admission (unknown name,
/// parse error, or error-level lint diagnostics — carried in the event).
pub const E_TOPOLOGY: &str = "E_TOPOLOGY";
/// Reject code: the workload name is not a SPECint17 profile or named
/// kernel.
pub const E_WORKLOAD: &str = "E_WORKLOAD";
/// Reject code: the instruction bound is zero or above the server's cap.
pub const E_INSTS: &str = "E_INSTS";
/// Reject code: the admission queue is full; retry after `retry_after_ms`.
pub const E_QUEUE_FULL: &str = "E_QUEUE_FULL";
/// Reject code: the server is draining and accepts no new jobs.
pub const E_DRAINING: &str = "E_DRAINING";

/// What a `submit` request asks to evaluate: a catalog design by name, or
/// a raw topology string resolved against the stock registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobTarget {
    /// A built-in design, resolved via `cobra_core::designs::by_name`.
    Named(String),
    /// A raw topology in the paper's notation, linted at admission.
    Topology {
        /// The topology text, e.g. `"TAGE3 > BTB2 > BIM2"`.
        topology: String,
        /// Global-history bits for the ad-hoc design.
        ghist_bits: u32,
        /// Local-history table entries for the ad-hoc design.
        lhist_entries: u64,
    },
}

impl JobTarget {
    /// The display label of the target (design name or topology text).
    pub fn label(&self) -> &str {
        match self {
            JobTarget::Named(n) => n,
            JobTarget::Topology { topology, .. } => topology,
        }
    }
}

/// A parsed and well-formed `submit` request (identity not yet checked —
/// admission validates the workload and target separately, so it can
/// answer with the precise reject code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReq {
    /// Client-chosen job id, echoed on every event about this job.
    pub id: u64,
    /// What to evaluate.
    pub target: JobTarget,
    /// Workload name.
    pub workload: String,
    /// Measured instruction bound; `None` means the server default.
    pub insts: Option<u64>,
}

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake: asks the server to (re-)send its `hello` event.
    Hello,
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Asks for the `stats` event (queue depths, cache counters).
    Stats,
    /// Asks the server to drain: finish queued jobs, then exit.
    Shutdown,
    /// Submits one evaluation job.
    Submit(SubmitReq),
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message for the `E_PARSE` reject event.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = jsonv::parse(line).map_err(|e| e.to_string())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    match op {
        "hello" => Ok(Request::Hello),
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let id = v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("submit requires an unsigned integer `id`")?;
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("submit requires a string `workload`")?
                .to_string();
            let insts = match v.get("insts") {
                None => None,
                Some(j) => Some(j.as_u64().ok_or("`insts` must be an unsigned integer")?),
            };
            let target = match (v.get("design"), v.get("topology")) {
                (Some(d), None) => {
                    JobTarget::Named(d.as_str().ok_or("`design` must be a string")?.to_string())
                }
                (None, Some(t)) => JobTarget::Topology {
                    topology: t.as_str().ok_or("`topology` must be a string")?.to_string(),
                    ghist_bits: match v.get("ghist_bits") {
                        None => 32,
                        Some(g) => u32::try_from(
                            g.as_u64()
                                .ok_or("`ghist_bits` must be an unsigned integer")?,
                        )
                        .map_err(|_| "`ghist_bits` out of range")?,
                    },
                    lhist_entries: match v.get("lhist_entries") {
                        None => 0,
                        Some(l) => l
                            .as_u64()
                            .ok_or("`lhist_entries` must be an unsigned integer")?,
                    },
                },
                (Some(_), Some(_)) => {
                    return Err("submit takes `design` or `topology`, not both".into())
                }
                (None, None) => return Err("submit requires `design` or `topology`".into()),
            };
            Ok(Request::Submit(SubmitReq {
                id,
                target,
                workload,
                insts,
            }))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders a `submit` request line — the client-side inverse of
/// [`parse_request`].
pub fn submit_line(id: u64, target: &JobTarget, workload: &str, insts: u64) -> String {
    match target {
        JobTarget::Named(name) => format!(
            "{{\"op\":\"submit\",\"id\":{id},\"design\":{},\"workload\":{},\"insts\":{insts}}}",
            jsonv::escape(name),
            jsonv::escape(workload)
        ),
        JobTarget::Topology {
            topology,
            ghist_bits,
            lhist_entries,
        } => format!(
            "{{\"op\":\"submit\",\"id\":{id},\"topology\":{},\"ghist_bits\":{ghist_bits},\
             \"lhist_entries\":{lhist_entries},\"workload\":{},\"insts\":{insts}}}",
            jsonv::escape(topology),
            jsonv::escape(workload)
        ),
    }
}

/// The `hello` event, sent once on connect (and again on a `hello` op).
pub fn ev_hello(threads: usize, queue_cap: usize, insts_cap: u64) -> String {
    format!(
        "{{\"ev\":\"hello\",\"proto\":{PROTO_VERSION},\"threads\":{threads},\
         \"queue_cap\":{queue_cap},\"insts_cap\":{insts_cap}}}"
    )
}

/// The `accepted` event: the job passed admission and is queued at depth
/// `queued` (jobs ahead of it across all connections).
pub fn ev_accepted(id: u64, queued: usize) -> String {
    format!("{{\"ev\":\"accepted\",\"id\":{id},\"queued\":{queued}}}")
}

/// The `rejected` event. `id` is absent for lines that failed before an
/// id could be parsed; `retry_after_ms` is present only for
/// [`E_QUEUE_FULL`]; `diagnostics` is a pre-rendered JSON array of
/// C-code diagnostic objects, present only for [`E_TOPOLOGY`] lint
/// failures.
pub fn ev_rejected(
    id: Option<u64>,
    code: &str,
    msg: &str,
    retry_after_ms: Option<u64>,
    diagnostics: Option<&str>,
) -> String {
    let mut out = String::from("{\"ev\":\"rejected\"");
    if let Some(id) = id {
        out.push_str(&format!(",\"id\":{id}"));
    }
    out.push_str(&format!(
        ",\"code\":{},\"msg\":{}",
        jsonv::escape(code),
        jsonv::escape(msg)
    ));
    if let Some(ms) = retry_after_ms {
        out.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    if let Some(d) = diagnostics {
        out.push_str(&format!(",\"diagnostics\":{d}"));
    }
    out.push('}');
    out
}

/// The `progress` event: the job has committed `insts` of `target`
/// instructions (warm-up plus measured region).
pub fn ev_progress(id: u64, insts: u64, target: u64) -> String {
    format!("{{\"ev\":\"progress\",\"id\":{id},\"insts\":{insts},\"target\":{target}}}")
}

/// The `result` event. `report` is rendered by [`report_json`] and is
/// deliberately the *last* field, so a client can recover the report's
/// exact bytes as the substring after `"report":` minus the final `}` —
/// no re-serialization, no byte drift.
pub fn ev_result(id: u64, cache: &str, wall_s: f64, report: &PerfReport) -> String {
    format!(
        "{{\"ev\":\"result\",\"id\":{id},\"cache\":{},\"wall_s\":{wall_s:.6},\"report\":{}}}",
        jsonv::escape(cache),
        report_json(report)
    )
}

/// The `pong` event.
pub fn ev_pong() -> String {
    "{\"ev\":\"pong\"}".to_string()
}

/// The `bye` event, the last line before the server closes a draining
/// connection.
pub fn ev_bye() -> String {
    "{\"ev\":\"bye\"}".to_string()
}

/// The canonical JSON rendering of a [`PerfReport`] — fixed field order,
/// no whitespace, every counter and the full attribution (component rows
/// in dataflow order, override edges in histogram order). This is the
/// byte-identity unit: a served report and a direct run's report render
/// to identical bytes exactly when the reports are equal.
pub fn report_json(r: &PerfReport) -> String {
    let c = &r.counters;
    let mut out = format!(
        "{{\"design\":{},\"workload\":{},\"counters\":{{\"cycles\":{},\
         \"committed_insts\":{},\"cond_branches\":{},\"cfis\":{},\
         \"cond_mispredicts\":{},\"target_mispredicts\":{},\
         \"override_redirects\":{},\"history_replays\":{},\"fetch_bubbles\":{},\
         \"icache_stall_cycles\":{},\"rob_stall_cycles\":{}}}",
        jsonv::escape(&r.design),
        jsonv::escape(&r.workload),
        c.cycles,
        c.committed_insts,
        c.cond_branches,
        c.cfis,
        c.cond_mispredicts,
        c.target_mispredicts,
        c.override_redirects,
        c.history_replays,
        c.fetch_bubbles,
        c.icache_stall_cycles,
        c.rob_stall_cycles
    );
    let a = &r.attribution;
    out.push_str(",\"attribution\":{\"components\":[");
    for (i, comp) in a.components.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let d = &comp.counters;
        out.push_str(&format!(
            "{{\"label\":{},\"queries\":{},\"fires\":{},\"mispredict_events\":{},\
             \"repairs\":{},\"updates\":{},\"provided_final\":{},\"overridden\":{},\
             \"direction_blame\":{},\"target_blame\":{}}}",
            jsonv::escape(&comp.label),
            d.queries,
            d.fires,
            d.mispredict_events,
            d.repairs,
            d.updates,
            d.provided_final,
            d.overridden,
            d.direction_blame,
            d.target_blame
        ));
    }
    out.push_str(&format!(
        "],\"packets_with_prediction\":{},\"hf_high_water\":{},\
         \"ghist_snapshot_repairs\":{},\"lhist_repairs\":{},\"overrides\":[",
        a.packets_with_prediction, a.hf_high_water, a.ghist_snapshot_repairs, a.lhist_repairs
    ));
    for (i, e) in a.overrides.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"winner\":{},\"loser\":{},\"count\":{}}}",
            jsonv::escape(&e.winner),
            jsonv::escape(&e.loser),
            e.count
        ));
    }
    out.push_str("]}}");
    out
}

/// Recovers the exact bytes of the `report` field from a `result` event
/// line — the substring after `"report":` minus the event's closing `}`.
/// Valid because [`ev_result`] renders the report last.
pub fn report_bytes(result_line: &str) -> Option<&str> {
    let start = result_line.find("\"report\":")? + "\"report\":".len();
    let end = result_line.len().checked_sub(1)?;
    (end > start && result_line.ends_with('}')).then(|| &result_line[start..end])
}

/// Decodes a [`report_json`] rendering (or any JSON value matching its
/// schema) back into a [`PerfReport`].
///
/// # Errors
///
/// Names the first missing or ill-typed field.
pub fn report_from_json(v: &Json) -> Result<PerfReport, String> {
    let design = v
        .get("design")
        .and_then(Json::as_str)
        .ok_or("missing `design`")?
        .to_string();
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("missing `workload`")?
        .to_string();
    let cv = v.get("counters").ok_or("missing `counters`")?;
    let cf = |k: &str| -> Result<u64, String> {
        cv.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing counter `{k}`"))
    };
    let counters = PerfCounters {
        cycles: cf("cycles")?,
        committed_insts: cf("committed_insts")?,
        cond_branches: cf("cond_branches")?,
        cfis: cf("cfis")?,
        cond_mispredicts: cf("cond_mispredicts")?,
        target_mispredicts: cf("target_mispredicts")?,
        override_redirects: cf("override_redirects")?,
        history_replays: cf("history_replays")?,
        fetch_bubbles: cf("fetch_bubbles")?,
        icache_stall_cycles: cf("icache_stall_cycles")?,
        rob_stall_cycles: cf("rob_stall_cycles")?,
    };
    let av = v.get("attribution").ok_or("missing `attribution`")?;
    let af = |k: &str| -> Result<u64, String> {
        av.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing attribution field `{k}`"))
    };
    let mut components = Vec::new();
    for comp in av
        .get("components")
        .and_then(Json::as_arr)
        .ok_or("missing `components`")?
    {
        let label = comp
            .get("label")
            .and_then(Json::as_str)
            .ok_or("component missing `label`")?
            .to_string();
        let g = |k: &str| -> Result<u64, String> {
            comp.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("component missing `{k}`"))
        };
        components.push(ComponentAttribution {
            label,
            counters: ComponentCounters {
                queries: g("queries")?,
                fires: g("fires")?,
                mispredict_events: g("mispredict_events")?,
                repairs: g("repairs")?,
                updates: g("updates")?,
                provided_final: g("provided_final")?,
                overridden: g("overridden")?,
                direction_blame: g("direction_blame")?,
                target_blame: g("target_blame")?,
            },
        });
    }
    let mut overrides = Vec::new();
    for e in av
        .get("overrides")
        .and_then(Json::as_arr)
        .ok_or("missing `overrides`")?
    {
        overrides.push(OverrideEdge {
            winner: e
                .get("winner")
                .and_then(Json::as_str)
                .ok_or("override missing `winner`")?
                .to_string(),
            loser: e
                .get("loser")
                .and_then(Json::as_str)
                .ok_or("override missing `loser`")?
                .to_string(),
            count: e
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("override missing `count`")?,
        });
    }
    Ok(PerfReport {
        workload,
        design,
        counters,
        attribution: AttributionReport {
            components,
            packets_with_prediction: af("packets_with_prediction")?,
            hf_high_water: af("hf_high_water")?,
            ghist_snapshot_repairs: af("ghist_snapshot_repairs")?,
            lhist_repairs: af("lhist_repairs")?,
            overrides,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            workload: "gcc".into(),
            design: "B2".into(),
            counters: PerfCounters {
                cycles: 100,
                committed_insts: 200,
                cond_branches: 30,
                cfis: 40,
                cond_mispredicts: 5,
                target_mispredicts: 1,
                override_redirects: 2,
                history_replays: 3,
                fetch_bubbles: 9,
                icache_stall_cycles: 4,
                rob_stall_cycles: 6,
            },
            attribution: AttributionReport {
                components: vec![ComponentAttribution {
                    label: "GBIM2".into(),
                    counters: ComponentCounters {
                        queries: 7,
                        ..Default::default()
                    },
                }],
                packets_with_prediction: 11,
                hf_high_water: 12,
                ghist_snapshot_repairs: 13,
                lhist_repairs: 14,
                overrides: vec![OverrideEdge {
                    winner: "GBIM2".into(),
                    loser: "BIM1".into(),
                    count: 15,
                }],
            },
        }
    }

    #[test]
    fn submit_round_trips() {
        let line = submit_line(7, &JobTarget::Named("TAGE-L".into()), "gcc", 20_000);
        match parse_request(&line).unwrap() {
            Request::Submit(s) => {
                assert_eq!(s.id, 7);
                assert_eq!(s.target, JobTarget::Named("TAGE-L".into()));
                assert_eq!(s.workload, "gcc");
                assert_eq!(s.insts, Some(20_000));
            }
            other => panic!("parsed {other:?}"),
        }
        let line = submit_line(
            8,
            &JobTarget::Topology {
                topology: "TAGE3 > BIM2".into(),
                ghist_bits: 64,
                lhist_entries: 128,
            },
            "xz",
            9,
        );
        match parse_request(&line).unwrap() {
            Request::Submit(s) => {
                assert_eq!(
                    s.target,
                    JobTarget::Topology {
                        topology: "TAGE3 > BIM2".into(),
                        ghist_bits: 64,
                        lhist_entries: 128,
                    }
                );
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_rejections_are_precise() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"warp\"}").is_err());
        assert!(
            parse_request("{\"op\":\"submit\",\"id\":1,\"workload\":\"gcc\"}")
                .unwrap_err()
                .contains("design")
        );
        assert!(parse_request(
            "{\"op\":\"submit\",\"id\":1,\"design\":\"B2\",\"topology\":\"X\",\"workload\":\"gcc\"}"
        )
        .unwrap_err()
        .contains("not both"));
        assert!(
            parse_request("{\"op\":\"submit\",\"design\":\"B2\",\"workload\":\"gcc\"}").is_err()
        );
    }

    #[test]
    fn report_json_round_trips_and_is_recoverable() {
        let r = sample();
        let rendered = report_json(&r);
        let parsed = jsonv::parse(&rendered).unwrap();
        assert_eq!(report_from_json(&parsed).unwrap(), r);
        // The result event carries the report as its last field, so the
        // raw bytes are recoverable without re-serialization.
        let line = ev_result(3, "miss", 1.25, &r);
        assert_eq!(report_bytes(&line), Some(rendered.as_str()));
        let parsed_line = jsonv::parse(&line).unwrap();
        assert_eq!(
            parsed_line.get("cache").and_then(Json::as_str),
            Some("miss")
        );
        assert_eq!(parsed_line.get("id").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn events_are_valid_json() {
        for line in [
            ev_hello(8, 64, 5_000_000),
            ev_accepted(1, 3),
            ev_rejected(Some(2), E_QUEUE_FULL, "queue full", Some(120), None),
            ev_rejected(None, E_PARSE, "bad line", None, None),
            ev_rejected(
                Some(4),
                E_TOPOLOGY,
                "lint failed",
                None,
                Some("[{\"code\":\"C0201\"}]"),
            ),
            ev_progress(1, 5_000, 28_000),
            ev_pong(),
            ev_bye(),
        ] {
            jsonv::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }
}
