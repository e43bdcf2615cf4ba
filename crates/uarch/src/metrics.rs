//! The COBRA Binary Metrics (CBM) format — interval telemetry streams.
//!
//! A `.cbm` file carries one run's interval telemetry series (see
//! [`cobra_core::obs::interval`]): an identity header naming the design,
//! configuration, workload, and interval length, followed by one record
//! per closed interval — host counter delta, per-component attribution
//! delta, occupancy gauges, and the phase-signature vector — and a
//! totals section holding the end-of-run measured deltas the records
//! must sum to. A reader can therefore verify *self-contained* that the
//! telemetry reconciles bit-exactly with the run's `PerfReport` /
//! [`AttributionReport`] ([`reconcile`]), with no side channel.
//!
//! The file is a [`cobra_sim::container`] frame: the shared prefix and
//! identity head, then the telemetry geometry and label table, the
//! header CRC, and one CRC-framed payload. The payload schema, with a
//! decoded worked example, is in `docs/METRICS_FORMAT.md` at the
//! repository root; this module is the reference implementation.

use cobra_core::obs::interval::{HostCounters, IntervalGauges, IntervalRecord, IntervalSeries};
use cobra_core::obs::{AttributionReport, ComponentAttribution, ComponentCounters, OverrideEdge};
use cobra_sim::container::{self, cap, put_str, take_varint, ContainerError, Format, Identity};
use cobra_sim::varint;
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// The `.cbm` framing: magic `COBRACBM`, footer `CBMX`, version 1, and a
/// 64 MiB cap on the payload.
pub const FORMAT: Format = Format {
    name: "CBM",
    magic: *b"COBRACBM",
    footer_magic: *b"CBMX",
    version: 1,
    max_payload: 1 << 26,
};
/// Cap on interval records per file.
pub const MAX_RECORDS: u64 = 1 << 20;
/// Cap on component rows (labels) per file; shared with `.cbr`.
pub const MAX_LABELS: u64 = 64;
/// Cap on phase-signature buckets per record.
pub const MAX_SIG_BUCKETS: u64 = 4096;

/// The identity a metrics file is bound to: which design, configuration,
/// and workload produced it, plus the telemetry geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbmMeta {
    /// Design name (e.g. `"TAGE-L"`).
    pub design: String,
    /// Topology string in the paper's notation.
    pub topology: String,
    /// FNV-1a hash over the full design + core configuration (see
    /// [`crate::checkpoint::config_hash`]).
    pub config_hash: u64,
    /// Workload name the run simulated.
    pub workload: String,
    /// Warmup boundary (committed instructions) the intervals start at.
    pub warmup_insts: u64,
    /// Requested interval length in committed instructions.
    pub interval_n: u64,
    /// Phase-signature buckets per record.
    pub sig_buckets: u64,
}

impl CbmMeta {
    fn identity(&self) -> Identity<&str> {
        Identity {
            design: &self.design,
            topology: &self.topology,
            config_hash: self.config_hash,
            workload: &self.workload,
        }
    }
}

/// A fully decoded and validated `.cbm` file.
#[derive(Debug, Clone, PartialEq)]
pub struct CbmFile {
    /// The identity header.
    pub meta: CbmMeta,
    /// Component row labels (dataflow order, then the static row).
    pub labels: Vec<String>,
    /// The interval records in time order.
    pub records: Vec<IntervalRecord>,
    /// End-of-run host counter delta over the measured region.
    pub totals_host: HostCounters,
    /// End-of-run attribution delta over the measured region.
    pub totals_attr: AttributionReport,
}

/// Serializes an interval series plus its end-of-run totals into `w` as
/// a `.cbm` file bound to `meta`, and returns the bytes written.
///
/// The totals are the *measured-region* deltas of the run that produced
/// `series` — exactly the `PerfReport` counters and attribution that
/// `run_with_warmup` returns — so any reader can check reconciliation
/// without rerunning anything.
///
/// # Errors
///
/// [`ContainerError::Malformed`] if a record's component rows disagree
/// with the series label table, and [`ContainerError::LimitExceeded`] if
/// a name, count, or the payload is over the format's caps — in both
/// cases nothing is written. I/O errors propagate.
pub fn save_metrics<W: Write>(
    w: W,
    meta: &CbmMeta,
    series: &IntervalSeries,
    totals_host: &HostCounters,
    totals_attr: &AttributionReport,
) -> Result<u64, ContainerError> {
    let labels = &series.labels;
    let n_components = labels.len().saturating_sub(1);
    let row_index: BTreeMap<&str, u64> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i as u64))
        .collect();

    let mut header = container::begin_header(&FORMAT);
    container::put_identity(&mut header, &meta.identity())?;
    for v in [
        meta.warmup_insts,
        meta.interval_n,
        cap(
            "header signature buckets",
            meta.sig_buckets,
            MAX_SIG_BUCKETS,
        )?,
        cap("header label count", labels.len() as u64, MAX_LABELS)?,
    ] {
        varint::write_u64(&mut header, v);
    }
    for l in labels {
        put_str(&mut header, "header component label", l)?;
    }

    let mut payload = Vec::with_capacity(series.records.len() * 256 + 256);
    let n_records = cap("record count", series.records.len() as u64, MAX_RECORDS)?;
    varint::write_u64(&mut payload, n_records);
    for rec in &series.records {
        if rec.attr.components.len() != labels.len()
            || rec.gauges.sram_rows.len() != n_components
            || rec.sig.len() as u64 != meta.sig_buckets
        {
            return Err(ContainerError::Malformed {
                what: "record shape disagrees with the header label table",
            });
        }
        varint::write_u64(&mut payload, rec.seq);
        varint::write_u64(&mut payload, rec.start_inst);
        encode_host(&mut payload, &rec.host);
        encode_attr(&mut payload, &rec.attr, &row_index)?;
        varint::write_u64(&mut payload, rec.gauges.hf_occupancy);
        varint::write_u64(&mut payload, rec.gauges.ras_depth);
        varint::write_u64(&mut payload, rec.gauges.ras_high_water);
        for &(touched, total) in &rec.gauges.sram_rows {
            varint::write_u64(&mut payload, touched);
            varint::write_u64(&mut payload, total);
        }
        for &s in &rec.sig {
            varint::write_u64(&mut payload, u64::from(s));
        }
    }
    if totals_attr.components.len() != labels.len() {
        return Err(ContainerError::Malformed {
            what: "totals shape disagrees with the header label table",
        });
    }
    encode_host(&mut payload, totals_host);
    encode_attr(&mut payload, totals_attr, &row_index)?;

    container::write_frame(w, &FORMAT, &header, &payload)
}

/// Parses and checksums a `.cbm` header, returning the identity record
/// and label table without touching the payload.
///
/// # Errors
///
/// Any [`ContainerError`] describing the first malformed header structure.
pub fn read_meta<R: Read>(mut r: R) -> Result<(CbmMeta, Vec<String>), ContainerError> {
    let mut h = container::read_header(&mut r, &FORMAT)?;
    let Identity {
        design,
        topology,
        config_hash,
        workload,
    } = h.identity()?;
    let warmup_insts = h.varint("header warmup boundary")?;
    let interval_n = h.varint("header interval length")?;
    let sig_buckets = h.capped("header signature buckets", MAX_SIG_BUCKETS)?;
    let n_labels = h.capped("header label count", MAX_LABELS)?;
    let labels = (0..n_labels)
        .map(|_| h.string("header component label"))
        .collect::<Result<Vec<_>, _>>()?;
    h.check("header checksum")?;
    let meta = CbmMeta {
        design,
        topology,
        config_hash,
        workload,
        warmup_insts,
        interval_n,
        sig_buckets,
    };
    Ok((meta, labels))
}

/// Reads, checksums, and fully decodes a `.cbm` file.
///
/// # Errors
///
/// Any [`ContainerError`]; nothing about the file is trusted before its
/// checksums and shape checks pass.
pub fn read_metrics<R: Read>(mut r: R) -> Result<CbmFile, ContainerError> {
    let (meta, labels) = read_meta(&mut r)?;
    let payload = container::read_payload(&mut r, &FORMAT)?;

    let n_components = labels.len().saturating_sub(1);
    let mut pos = 0usize;
    let n_records = cap(
        "record count",
        take_varint(&payload, &mut pos, "record count")?,
        MAX_RECORDS,
    )?;
    let mut records = Vec::with_capacity(n_records as usize);
    for _ in 0..n_records {
        let seq = take_varint(&payload, &mut pos, "record seq")?;
        let start_inst = take_varint(&payload, &mut pos, "record start")?;
        let host = decode_host(&payload, &mut pos, "record host counters")?;
        let attr = decode_attr(&payload, &mut pos, &labels, "record attribution")?;
        let hf_occupancy = take_varint(&payload, &mut pos, "record hf occupancy")?;
        let ras_depth = take_varint(&payload, &mut pos, "record ras depth")?;
        let ras_high_water = take_varint(&payload, &mut pos, "record ras high water")?;
        let mut sram_rows = Vec::with_capacity(n_components);
        for _ in 0..n_components {
            let touched = take_varint(&payload, &mut pos, "record sram touched rows")?;
            let total = take_varint(&payload, &mut pos, "record sram total rows")?;
            sram_rows.push((touched, total));
        }
        let mut sig = Vec::with_capacity(meta.sig_buckets as usize);
        for _ in 0..meta.sig_buckets {
            let v = take_varint(&payload, &mut pos, "record signature bucket")?;
            if v > u64::from(u32::MAX) {
                return Err(ContainerError::Malformed {
                    what: "signature bucket exceeds u32",
                });
            }
            sig.push(v as u32);
        }
        records.push(IntervalRecord {
            seq,
            start_inst,
            host,
            attr,
            gauges: IntervalGauges {
                hf_occupancy,
                ras_depth,
                ras_high_water,
                sram_rows,
            },
            sig,
        });
    }
    let totals_host = decode_host(&payload, &mut pos, "totals host counters")?;
    let totals_attr = decode_attr(&payload, &mut pos, &labels, "totals attribution")?;
    if pos != payload.len() {
        return Err(ContainerError::Malformed {
            what: "payload bytes remain after the totals section",
        });
    }
    Ok(CbmFile {
        meta,
        labels,
        records,
        totals_host,
        totals_attr,
    })
}

/// Checks that the interval records reconcile bit-exactly with the
/// file's totals section: the host counter deltas sum field-for-field
/// to `totals_host`, the per-component attribution counters, scalars,
/// and override edges sum to `totals_attr`, and the high-water gauge of
/// the last record equals the end-of-run value (it is monotone, not
/// additive).
///
/// # Errors
///
/// A human-readable description of the first field that fails.
pub fn reconcile(file: &CbmFile) -> Result<(), String> {
    let mut host = HostCounters::default();
    for r in &file.records {
        host.accumulate(&r.host);
    }
    if host != file.totals_host {
        return Err(format!(
            "host counters do not reconcile: intervals sum to {:?}, totals say {:?}",
            host, file.totals_host
        ));
    }
    let mut counters = vec![ComponentCounters::default(); file.labels.len()];
    let mut packets = 0u64;
    let mut ghist = 0u64;
    let mut lhist = 0u64;
    let mut edges: BTreeMap<(String, String), u64> = BTreeMap::new();
    for r in &file.records {
        for (sum, c) in counters.iter_mut().zip(&r.attr.components) {
            let d = &c.counters;
            sum.queries += d.queries;
            sum.fires += d.fires;
            sum.mispredict_events += d.mispredict_events;
            sum.repairs += d.repairs;
            sum.updates += d.updates;
            sum.provided_final += d.provided_final;
            sum.overridden += d.overridden;
            sum.direction_blame += d.direction_blame;
            sum.target_blame += d.target_blame;
        }
        packets += r.attr.packets_with_prediction;
        ghist += r.attr.ghist_snapshot_repairs;
        lhist += r.attr.lhist_repairs;
        for e in &r.attr.overrides {
            *edges
                .entry((e.winner.clone(), e.loser.clone()))
                .or_insert(0) += e.count;
        }
    }
    for ((sum, total), label) in counters
        .iter()
        .zip(&file.totals_attr.components)
        .zip(&file.labels)
    {
        if *sum != total.counters {
            return Err(format!(
                "component `{label}` counters do not reconcile: intervals sum to {:?}, totals say {:?}",
                sum, total.counters
            ));
        }
    }
    if packets != file.totals_attr.packets_with_prediction {
        return Err(format!(
            "packets_with_prediction does not reconcile: {} vs {}",
            packets, file.totals_attr.packets_with_prediction
        ));
    }
    if ghist != file.totals_attr.ghist_snapshot_repairs || lhist != file.totals_attr.lhist_repairs {
        return Err(format!(
            "history repair gauges do not reconcile: ghist {} vs {}, lhist {} vs {}",
            ghist, file.totals_attr.ghist_snapshot_repairs, lhist, file.totals_attr.lhist_repairs
        ));
    }
    let mut total_edges: BTreeMap<(String, String), u64> = BTreeMap::new();
    for e in &file.totals_attr.overrides {
        *total_edges
            .entry((e.winner.clone(), e.loser.clone()))
            .or_insert(0) += e.count;
    }
    if edges != total_edges {
        return Err("override edges do not reconcile with the totals section".to_string());
    }
    if let Some(last) = file.records.last() {
        if last.attr.hf_high_water != file.totals_attr.hf_high_water {
            return Err(format!(
                "hf high-water gauge does not reconcile: last interval {} vs totals {}",
                last.attr.hf_high_water, file.totals_attr.hf_high_water
            ));
        }
    }
    Ok(())
}

pub(crate) fn encode_host(out: &mut Vec<u8>, h: &HostCounters) {
    for v in h.to_array() {
        varint::write_u64(out, v);
    }
}

pub(crate) fn decode_host(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<HostCounters, ContainerError> {
    let mut a = [0u64; 11];
    for v in a.iter_mut() {
        *v = take_varint(buf, pos, what)?;
    }
    Ok(HostCounters::from_array(a))
}

pub(crate) fn encode_attr(
    out: &mut Vec<u8>,
    attr: &AttributionReport,
    row_index: &BTreeMap<&str, u64>,
) -> Result<(), ContainerError> {
    for c in &attr.components {
        let d = &c.counters;
        for v in [
            d.queries,
            d.fires,
            d.mispredict_events,
            d.repairs,
            d.updates,
            d.provided_final,
            d.overridden,
            d.direction_blame,
            d.target_blame,
        ] {
            varint::write_u64(out, v);
        }
    }
    varint::write_u64(out, attr.packets_with_prediction);
    varint::write_u64(out, attr.hf_high_water);
    varint::write_u64(out, attr.ghist_snapshot_repairs);
    varint::write_u64(out, attr.lhist_repairs);
    let rows = attr.components.len() as u64;
    let n_edges = cap(
        "override edge count",
        attr.overrides.len() as u64,
        rows * rows,
    )?;
    varint::write_u64(out, n_edges);
    for e in &attr.overrides {
        let (Some(&w), Some(&l)) = (
            row_index.get(e.winner.as_str()),
            row_index.get(e.loser.as_str()),
        ) else {
            return Err(ContainerError::Malformed {
                what: "override edge names a component not in the label table",
            });
        };
        varint::write_u64(out, w);
        varint::write_u64(out, l);
        varint::write_u64(out, e.count);
    }
    Ok(())
}

pub(crate) fn decode_attr(
    buf: &[u8],
    pos: &mut usize,
    labels: &[String],
    what: &'static str,
) -> Result<AttributionReport, ContainerError> {
    let mut components = Vec::with_capacity(labels.len());
    for label in labels {
        let mut v = [0u64; 9];
        for x in v.iter_mut() {
            *x = take_varint(buf, pos, what)?;
        }
        components.push(ComponentAttribution {
            label: label.clone(),
            counters: ComponentCounters {
                queries: v[0],
                fires: v[1],
                mispredict_events: v[2],
                repairs: v[3],
                updates: v[4],
                provided_final: v[5],
                overridden: v[6],
                direction_blame: v[7],
                target_blame: v[8],
            },
        });
    }
    let packets_with_prediction = take_varint(buf, pos, what)?;
    let hf_high_water = take_varint(buf, pos, what)?;
    let ghist_snapshot_repairs = take_varint(buf, pos, what)?;
    let lhist_repairs = take_varint(buf, pos, what)?;
    let rows = labels.len() as u64;
    let n_edges = cap(
        "override edge count",
        take_varint(buf, pos, what)?,
        rows * rows,
    )?;
    let mut overrides = Vec::with_capacity(n_edges as usize);
    for _ in 0..n_edges {
        let w = take_varint(buf, pos, what)?;
        let l = take_varint(buf, pos, what)?;
        let count = take_varint(buf, pos, what)?;
        if w >= labels.len() as u64 || l >= labels.len() as u64 {
            return Err(ContainerError::Malformed {
                what: "override edge row index out of range",
            });
        }
        overrides.push(OverrideEdge {
            winner: labels[w as usize].clone(),
            loser: labels[l as usize].clone(),
            count,
        });
    }
    Ok(AttributionReport {
        components,
        packets_with_prediction,
        hf_high_water,
        ghist_snapshot_repairs,
        lhist_repairs,
        overrides,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::obs::interval::{IntervalEngine, SIG_BUCKETS};

    fn attr(queries: u64, blame: u64, edge: u64) -> AttributionReport {
        let row = |label: &str, q, b| ComponentAttribution {
            label: label.into(),
            counters: ComponentCounters {
                queries: q,
                fires: q / 2,
                direction_blame: b,
                target_blame: b / 2,
                provided_final: q / 3,
                ..ComponentCounters::default()
            },
        };
        AttributionReport {
            components: vec![
                row("bim", queries, blame),
                row("gshare", queries, blame / 2),
                row("(static)", 0, 1),
            ],
            packets_with_prediction: queries,
            hf_high_water: 12,
            ghist_snapshot_repairs: blame,
            lhist_repairs: blame / 3,
            overrides: if edge > 0 {
                vec![OverrideEdge {
                    winner: "gshare".into(),
                    loser: "bim".into(),
                    count: edge,
                }]
            } else {
                Vec::new()
            },
        }
    }

    fn host(cycles: u64, insts: u64) -> HostCounters {
        HostCounters {
            cycles,
            committed_insts: insts,
            cond_branches: insts / 5,
            cfis: insts / 4,
            cond_mispredicts: insts / 50,
            target_mispredicts: insts / 100,
            ..HostCounters::default()
        }
    }

    fn gauges() -> IntervalGauges {
        IntervalGauges {
            hf_occupancy: 3,
            ras_depth: 2,
            ras_high_water: 5,
            sram_rows: vec![(10, 64), (0, 0)],
        }
    }

    fn sample_series() -> (IntervalSeries, HostCounters, AttributionReport) {
        let base_h = host(100, 40);
        let base_a = attr(7, 2, 1);
        let mut e = IntervalEngine::new(50, base_h, base_a.clone());
        e.note_branch(0x4000);
        e.note_branch(0x4008);
        e.close(host(300, 90), attr(30, 6, 3), gauges());
        e.note_branch(0x4000);
        let end_h = host(500, 160);
        let end_a = attr(55, 11, 8);
        let series = e.finish(end_h, end_a.clone(), gauges());
        (series, end_h.delta(&base_h), end_a.delta(&base_a))
    }

    fn meta() -> CbmMeta {
        CbmMeta {
            design: "B2".into(),
            topology: "GBIM2(BIM1)".into(),
            config_hash: 0x1234_5678_9abc_def0,
            workload: "gcc".into(),
            warmup_insts: 40,
            interval_n: 50,
            sig_buckets: SIG_BUCKETS as u64,
        }
    }

    fn encode() -> Vec<u8> {
        let (series, th, ta) = sample_series();
        let mut buf = Vec::new();
        save_metrics(&mut buf, &meta(), &series, &th, &ta).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_exact() {
        let (series, th, ta) = sample_series();
        let bytes = encode();
        let file = read_metrics(&bytes[..]).unwrap();
        assert_eq!(file.meta, meta());
        assert_eq!(file.labels, series.labels);
        assert_eq!(file.records, series.records);
        assert_eq!(file.totals_host, th);
        assert_eq!(file.totals_attr, ta);
        reconcile(&file).unwrap();
    }

    #[test]
    fn meta_reads_without_payload() {
        let bytes = encode();
        let (m, labels) = read_meta(&bytes[..]).unwrap();
        assert_eq!(m, meta());
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[2], "(static)");
    }

    #[test]
    fn tampered_totals_fail_reconciliation() {
        let (series, th, mut ta) = sample_series();
        ta.components[0].counters.queries += 1;
        let mut buf = Vec::new();
        save_metrics(&mut buf, &meta(), &series, &th, &ta).unwrap();
        let file = read_metrics(&buf[..]).unwrap();
        let err = reconcile(&file).unwrap_err();
        assert!(err.contains("bim"), "{err}");

        let (series, mut th, ta) = sample_series();
        th.cycles += 1;
        let mut buf = Vec::new();
        save_metrics(&mut buf, &meta(), &series, &th, &ta).unwrap();
        let file = read_metrics(&buf[..]).unwrap();
        assert!(reconcile(&file).unwrap_err().contains("host counters"));
    }

    #[test]
    fn shape_mismatch_is_rejected_at_write() {
        let (mut series, th, ta) = sample_series();
        series.records[0].sig.pop();
        let mut buf = Vec::new();
        assert!(matches!(
            save_metrics(&mut buf, &meta(), &series, &th, &ta),
            Err(ContainerError::Malformed { .. })
        ));
    }

    #[test]
    fn error_messages_are_precise() {
        assert!(ContainerError::BadMagic(&FORMAT)
            .to_string()
            .contains("COBRACBM"));
        let e = cap("record count", 9, 3).unwrap_err();
        assert!(e.to_string().contains("record count"));
    }
}
