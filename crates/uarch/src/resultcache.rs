//! The COBRA Binary Result (CBR) format — persisted evaluation results.
//!
//! A `.cbr` file is one measured [`PerfReport`] bound to the exact
//! experiment that produced it: design, topology, FNV-1a configuration
//! hash (see [`crate::checkpoint::config_hash`]), workload, measured
//! instruction bound, and warmup boundary. It is the tier-1 entry of the
//! `cobra-serve` warm cache: an exact identity match returns the stored
//! report instead of re-simulating, and because the simulator is
//! deterministic the stored report *is* the report a fresh run would
//! produce — byte-for-byte once rendered.
//!
//! The file is a [`cobra_sim::container`] frame: the shared prefix and
//! identity head, then the instruction bound and warmup boundary, the
//! header CRC, and one CRC-framed payload. [`read_result`] verifies the
//! *whole* file and every identity field before a byte of payload is
//! trusted, so a truncated, bit-flipped, or stale entry can never poison
//! a served result. The payload reuses the `.cbm` counter and
//! attribution codecs ([`crate::metrics`]), so the two formats cannot
//! drift. Its schema is in `docs/CONTAINER_FORMAT.md`.

use crate::metrics::{decode_attr, decode_host, encode_attr, encode_host, MAX_LABELS};
use crate::PerfReport;
use cobra_sim::container::{
    self, cap, check_field, put_str, take_str, take_varint, ContainerError, Format, Identity,
};
use cobra_sim::varint;
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// The `.cbr` framing: magic `COBRACBR`, footer `CBRX`, version 1, and a
/// 1 MiB cap on the payload.
pub const FORMAT: Format = Format {
    name: "CBR",
    magic: *b"COBRACBR",
    footer_magic: *b"CBRX",
    version: 1,
    max_payload: 1 << 20,
};

/// The identity a persisted result is bound to — the full cache key.
///
/// [`read_result`] compares every field against the file header and
/// refuses on any mismatch, so a hash-prefix filename collision or a
/// hand-renamed file can never serve the wrong experiment's numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbrMeta {
    /// The run that produced the result (see
    /// [`run_identity`](crate::run_identity)).
    pub id: Identity,
    /// Measured instruction bound of the run.
    pub insts: u64,
    /// Warmup boundary (committed instructions) excluded from the
    /// measurement.
    pub warmup_insts: u64,
}

/// Serializes `report` into `w` as a `.cbr` file bound to `meta`, and
/// returns the bytes written.
///
/// # Errors
///
/// [`ContainerError::LimitExceeded`] if a name, the label table, or the
/// payload is over the format's caps, and [`ContainerError::Malformed`]
/// if the report's override edges name components missing from its own
/// rows — in both cases nothing is written. I/O errors propagate.
pub fn save_result<W: Write>(
    w: W,
    meta: &CbrMeta,
    report: &PerfReport,
) -> Result<u64, ContainerError> {
    let labels: Vec<&str> = report
        .attribution
        .components
        .iter()
        .map(|c| c.label.as_str())
        .collect();
    let row_index: BTreeMap<&str, u64> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (*l, i as u64))
        .collect();

    let mut header = container::begin_header(&FORMAT);
    container::put_identity(&mut header, &meta.id)?;
    varint::write_u64(&mut header, meta.insts);
    varint::write_u64(&mut header, meta.warmup_insts);

    let mut payload = Vec::with_capacity(512);
    put_str(&mut payload, "payload workload name", &report.workload)?;
    put_str(&mut payload, "payload design name", &report.design)?;
    varint::write_u64(
        &mut payload,
        cap("payload label count", labels.len() as u64, MAX_LABELS)?,
    );
    for l in &labels {
        put_str(&mut payload, "payload component label", l)?;
    }
    encode_host(&mut payload, &report.counters);
    encode_attr(&mut payload, &report.attribution, &row_index)?;
    container::write_frame(w, &FORMAT, &header, &payload)
}

/// Parses and checksums a `.cbr` header, returning the identity record
/// without touching the payload.
///
/// # Errors
///
/// Any [`ContainerError`] describing the first malformed header structure.
pub fn read_result_meta<R: Read>(mut r: R) -> Result<CbrMeta, ContainerError> {
    let mut h = container::read_header(&mut r, &FORMAT)?;
    let id = h.identity()?;
    let insts = h.varint("header instruction bound")?;
    let warmup_insts = h.varint("header warmup boundary")?;
    h.check("header checksum")?;
    Ok(CbrMeta {
        id,
        insts,
        warmup_insts,
    })
}

/// Reads, checksums, identity-verifies, and fully decodes a `.cbr` file.
///
/// Every header field must equal `expected` — the caller states which
/// experiment it is about to serve, and the file must agree. Nothing
/// about the file is trusted before its checksums, identity, and shape
/// checks pass.
///
/// # Errors
///
/// Any [`ContainerError`]; [`ContainerError::IdentityMismatch`] names the
/// first identity field that differs.
pub fn read_result<R: Read>(mut r: R, expected: &CbrMeta) -> Result<PerfReport, ContainerError> {
    let meta = read_result_meta(&mut r)?;
    meta.id.check(&expected.id)?;
    check_field("instruction bound", meta.insts, expected.insts)?;
    check_field("warmup boundary", meta.warmup_insts, expected.warmup_insts)?;
    let payload = container::read_payload(&mut r, &FORMAT)?;

    let mut pos = 0usize;
    let workload = take_str(&payload, &mut pos, "payload workload name")?;
    let design = take_str(&payload, &mut pos, "payload design name")?;
    let n_labels = cap(
        "payload label count",
        take_varint(&payload, &mut pos, "payload label count")?,
        MAX_LABELS,
    )?;
    let labels = (0..n_labels)
        .map(|_| take_str(&payload, &mut pos, "payload component label"))
        .collect::<Result<Vec<_>, _>>()?;
    let host = decode_host(&payload, &mut pos, "payload counters")?;
    let attribution = decode_attr(&payload, &mut pos, &labels, "payload attribution")?;
    let malformed = |what| Err(ContainerError::Malformed { what });
    if pos != payload.len() {
        return malformed("payload bytes remain after the attribution section");
    }
    if workload != meta.id.workload {
        return malformed("payload workload disagrees with the header");
    }
    if design != meta.id.design {
        return malformed("payload design disagrees with the header");
    }
    Ok(PerfReport {
        workload,
        design,
        counters: host,
        attribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerfCounters;
    use cobra_core::obs::{
        AttributionReport, ComponentAttribution, ComponentCounters, OverrideEdge,
    };

    fn sample_report() -> PerfReport {
        let row = |label: &str, q: u64, b: u64| ComponentAttribution {
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
        PerfReport {
            workload: "gcc".into(),
            design: "B2".into(),
            counters: PerfCounters {
                cycles: 12_345,
                committed_insts: 20_000,
                cond_branches: 4_100,
                cfis: 5_000,
                cond_mispredicts: 210,
                target_mispredicts: 33,
                override_redirects: 40,
                history_replays: 7,
                fetch_bubbles: 900,
                icache_stall_cycles: 120,
                rob_stall_cycles: 310,
            },
            attribution: AttributionReport {
                components: vec![
                    row("GBIM2", 900, 40),
                    row("BIM1", 700, 11),
                    row("(static)", 0, 1),
                ],
                packets_with_prediction: 1_500,
                hf_high_water: 9,
                ghist_snapshot_repairs: 13,
                lhist_repairs: 2,
                overrides: vec![OverrideEdge {
                    winner: "GBIM2".into(),
                    loser: "BIM1".into(),
                    count: 77,
                }],
            },
        }
    }

    fn sample_meta() -> CbrMeta {
        CbrMeta {
            id: Identity {
                design: "B2".into(),
                topology: "GBIM2(BIM1)".into(),
                config_hash: 0x1234_5678_9abc_def0,
                workload: "gcc".into(),
            },
            insts: 20_000,
            warmup_insts: 8_000,
        }
    }

    fn encode() -> Vec<u8> {
        let mut buf = Vec::new();
        save_result(&mut buf, &sample_meta(), &sample_report()).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_exact() {
        let bytes = encode();
        let report = read_result(&bytes[..], &sample_meta()).unwrap();
        assert_eq!(report, sample_report());
    }

    #[test]
    fn meta_reads_without_payload() {
        let bytes = encode();
        assert_eq!(read_result_meta(&bytes[..]).unwrap(), sample_meta());
    }

    #[test]
    fn identity_mismatches_are_precise() {
        let bytes = encode();
        let mut m = sample_meta();
        m.id.design = "TAGE-L".into();
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "design",
                ..
            })
        ));
        let mut m = sample_meta();
        m.id.topology = "BIM2".into();
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "topology",
                ..
            })
        ));
        let mut m = sample_meta();
        m.id.config_hash ^= 1;
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "config hash",
                ..
            })
        ));
        let mut m = sample_meta();
        m.id.workload = "xz".into();
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "workload",
                ..
            })
        ));
        let mut m = sample_meta();
        m.insts += 1;
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "instruction bound",
                ..
            })
        ));
        let mut m = sample_meta();
        m.warmup_insts += 1;
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "warmup boundary",
                ..
            })
        ));
    }

    #[test]
    fn error_messages_are_precise() {
        assert!(ContainerError::BadMagic(&FORMAT)
            .to_string()
            .contains("COBRACBR"));
        let s = check_field("design", "B2", "TAGE-L")
            .unwrap_err()
            .to_string();
        assert!(s.contains("B2") && s.contains("TAGE-L"), "{s}");
    }
}
