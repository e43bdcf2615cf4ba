//! Byte pins and the poisoning suite for the four binary containers.
//!
//! Each pin encodes one small deterministic file and asserts its length
//! and whole-file CRC-32C. The `.cbm` pin is the worked example of
//! `docs/METRICS_FORMAT.md`, whose first 0x56 bytes are also asserted
//! verbatim.
//!
//! The poisoning suite runs over the shared `cobra_sim::container` frame
//! — a synthetic frame, and the pinned `.cbm`, `.cbr` and `.cbt` files.
//! It cuts every file at every length, flips every bit, appends a byte,
//! and breaks the magic, version and flags, and each case asserts the
//! precise error its position in the file layout predicts.

use cobra::core::designs;
use cobra::sim::container::{self, ContainerError, Format, Identity, MAX_NAME_BYTES};
use cobra::sim::{crc32c, varint};
use cobra::uarch::{
    read_metrics, read_result, run_identity, save_checkpoint, save_metrics, save_result,
    CacheConfig, CbmMeta, CbrMeta, CbsMeta, CfiOutcome, Core, CoreConfig, DynInst, Op, PerfReport,
};
use cobra::workloads::cbt::{self, CbtReader};
use cobra::workloads::{spec17, CbtWriter, StaticImage};

/// A 200-record connected stream with loads, dependencies and taken and
/// not-taken conditionals.
fn sample_stream() -> Vec<DynInst> {
    let mut v = Vec::new();
    let mut pc = 0x1000u64;
    for i in 0..200u64 {
        if i % 5 == 4 {
            let taken = i % 10 == 9;
            let target = if taken { 0x1000 } else { pc + 10 };
            v.push(DynInst {
                pc,
                op: Op::Cfi,
                cfi: Some(CfiOutcome {
                    kind: cobra::core::BranchKind::Conditional,
                    taken,
                    target,
                    sfb: false,
                }),
                dep: 0,
            });
            pc = if taken { 0x1000 } else { pc + 2 };
        } else if i % 7 == 3 {
            v.push(DynInst {
                pc,
                op: Op::Load {
                    addr: 0x1000_0000 + i * 64,
                },
                cfi: None,
                dep: (i % 3) as u8,
            });
            pc += 2;
        } else {
            v.push(DynInst::int(pc));
            pc += 2;
        }
    }
    v
}

/// The pinned `.cbt`: [`sample_stream`] in 16-record blocks, with a
/// static image holding one load and one targeted conditional.
fn cbt_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = CbtWriter::new(&mut buf, "sample", 0x1000).unwrap();
    w.set_records_per_block(16);
    for inst in &sample_stream() {
        w.push(inst).unwrap();
    }
    let image = StaticImage::probe(0x1000, 0x1000, 0x1008, |pc| match pc {
        0x1002 => cobra::uarch::StaticInst {
            op: Op::Load { addr: 0x40 },
            cfi_kind: None,
            target: None,
        },
        0x1008 => cobra::uarch::StaticInst {
            op: Op::Cfi,
            cfi_kind: Some(cobra::core::BranchKind::Conditional),
            target: Some(0x1000),
        },
        _ => cobra::uarch::StaticInst::filler(),
    });
    w.finish(&image).unwrap();
    buf
}

const WARMUP: u64 = 1_600;
const MEASURE: u64 = 4_000;

/// B2 on `xz`, 4,000 measured instructions after a 1,600-instruction
/// warm-up, with 1,000-instruction telemetry intervals: the run of the
/// `docs/METRICS_FORMAT.md` worked example. Returns the `.cbm` and
/// `.cbr` files of that run.
fn b2_xz_run() -> (Vec<u8>, Vec<u8>) {
    let design = designs::b2();
    let cfg = CoreConfig::boom_4wide();
    let mut core = Core::new(&design, cfg, spec17("xz").build()).unwrap();
    core.set_interval(1_000);
    let report: PerfReport = core.run_with_warmup(WARMUP, MEASURE, "xz");
    let series = core.take_intervals().unwrap();
    let id = run_identity(&design, &cfg, "xz");
    let mut cbm = Vec::new();
    save_metrics(
        &mut cbm,
        &CbmMeta {
            id: id.clone(),
            warmup_insts: WARMUP,
            interval_n: series.interval_n,
            sig_buckets: series.records[0].sig.len() as u64,
        },
        &series,
        &report.counters,
        &report.attribution,
    )
    .unwrap();
    let mut cbr = Vec::new();
    save_result(
        &mut cbr,
        &CbrMeta {
            id,
            insts: MEASURE,
            warmup_insts: WARMUP,
        },
        &report,
    )
    .unwrap();
    (cbm, cbr)
}

/// B2 on `xz` checkpointed at the 1,600-instruction warm-up boundary,
/// on a Table II core whose caches shrink to four sets each (the cache
/// hierarchy is otherwise the bulk of a checkpoint).
fn cbs_bytes() -> Vec<u8> {
    let design = designs::b2();
    let base = CoreConfig::boom_4wide();
    let shrink = |mut c: CacheConfig| {
        c.size_bytes = c.ways * c.line_bytes * 4;
        c
    };
    let cfg = CoreConfig {
        l1i: shrink(base.l1i),
        l1d: shrink(base.l1d),
        l2: shrink(base.l2),
        l3: shrink(base.l3),
        ..base
    };
    let mut core = Core::new(&design, cfg, spec17("xz").build()).unwrap();
    core.run(WARMUP, "xz");
    let mut buf = Vec::new();
    save_checkpoint(
        &mut buf,
        &CbsMeta::for_run(&design, &cfg, "xz", WARMUP),
        &core,
    )
    .unwrap();
    buf
}

fn assert_pin(what: &str, bytes: &[u8], len: usize, crc: u32) {
    assert_eq!(
        (bytes.len(), crc32c(bytes)),
        (len, crc),
        "{what}: length / CRC-32C moved (got {} bytes, crc {:#010x})",
        bytes.len(),
        crc32c(bytes)
    );
}

#[test]
fn cbt_bytes_are_pinned() {
    assert_pin(".cbt", &cbt_bytes(), 984, 0x785d_58c5);
}

#[test]
fn cbs_bytes_are_pinned() {
    assert_pin(".cbs", &cbs_bytes(), 110_170, 0x3e09_8faf);
}

#[test]
fn cbr_bytes_are_pinned() {
    assert_pin(".cbr", &b2_xz_run().1, 181, 0x1bed_3f07);
}

#[test]
fn cbm_bytes_match_the_worked_example() {
    let (cbm, _) = b2_xz_run();
    assert_pin(".cbm", &cbm, 807, 0x0d92_faa3);
    // Offsets 0x00..0x56 of the METRICS_FORMAT.md worked example.
    let doc: &[u8] = &[
        0x43, 0x4f, 0x42, 0x52, 0x41, 0x43, 0x42, 0x4d, // "COBRACBM"
        0x01, 0x00, // version = 1
        0x00, 0x00, // flags = 0
        0x02, 0x42, 0x32, // "B2"
        0x13, 0x47, 0x54, 0x41, 0x47, 0x33, 0x20, 0x3e, 0x20, 0x42, 0x54, // "GTAG3 > BT"
        0x42, 0x32, 0x20, 0x3e, 0x20, 0x42, 0x49, 0x4d, 0x32, // "B2 > BIM2"
        0x99, 0x99, 0x44, 0xc6, 0x67, 0xd5, 0xe6, 0x17, // config_hash
        0x02, 0x78, 0x7a, // "xz"
        0xc0, 0x0c, // warmup_insts = 1600
        0xe8, 0x07, // interval_n = 1000
        0x40, // sig_buckets = 64
        0x04, // n_labels = 4
        0x04, 0x42, 0x49, 0x4d, 0x32, // "BIM2"
        0x04, 0x42, 0x54, 0x42, 0x32, // "BTB2"
        0x05, 0x47, 0x54, 0x41, 0x47, 0x33, // "GTAG3"
        0x08, 0x28, 0x73, 0x74, 0x61, 0x74, 0x69, 0x63, 0x29, // "(static)"
        0x97, 0xba, 0x6d, 0x5b, // header CRC-32C
        0xca, 0x02, 0x00, 0x00, // payload_len = 714
        0x04, // n_records = 4
    ];
    assert_eq!(doc.len(), 0x56);
    assert_eq!(&cbm[..0x56], doc);
}

// ------------------------------------------------------------ poisoning

/// What a byte of a file is, for predicting the error a corruption of it
/// must produce.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// The 12-byte magic/version/flags prefix.
    Prefix,
    /// Header bytes whose corruption only changes the header CRC.
    Fixed,
    /// A header varint value.
    Varint,
    /// A header varint that sizes what follows, capped at the value.
    Len(u64),
    HeaderCrc,
    PayloadLen,
    Payload,
    PayloadCrc,
    Footer,
    // `.cbt` sections; blocks carry their number.
    BlockLen(u32),
    BlockCount(u32),
    BlockBody(u32),
    BlockCrc(u32),
    StaticVarint,
    StaticLen(u64),
    StaticBody,
    StaticCrc,
    FooterBody,
    FooterCrc,
    FooterLen,
}

#[derive(Debug)]
struct Field {
    what: &'static str,
    start: usize,
    end: usize,
    kind: Kind,
}

/// A file's bytes with every field located.
struct Layout<'a> {
    bytes: &'a [u8],
    fields: Vec<Field>,
}

impl<'a> Layout<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut l = Self {
            bytes,
            fields: Vec::new(),
        };
        l.push("header", 12, Kind::Prefix);
        l
    }

    fn pos(&self) -> usize {
        self.fields.last().map_or(0, |f| f.end)
    }

    fn push(&mut self, what: &'static str, len: usize, kind: Kind) {
        let start = self.pos();
        self.fields.push(Field {
            what,
            start,
            end: start + len,
            kind,
        });
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap())
    }

    /// Locates a varint at the current position and returns its value.
    fn varint(&mut self, what: &'static str, kind: Kind) -> u64 {
        let mut end = self.pos();
        let v = varint::read_u64(self.bytes, &mut end).unwrap();
        self.push(what, end - self.pos(), kind);
        v
    }

    fn string(&mut self, what: &'static str) {
        let n = self.varint(what, Kind::Len(MAX_NAME_BYTES));
        self.push(what, n as usize, Kind::Fixed);
    }

    fn identity(&mut self) {
        self.string("header design name");
        self.string("header topology");
        self.push("header config hash", 8, Kind::Fixed);
        self.string("header workload name");
    }

    /// The header CRC, then the single-payload frame to the end of file.
    fn frame(mut self) -> Self {
        self.push("header checksum", 4, Kind::HeaderCrc);
        let n = self.u32_at(self.pos());
        self.push("payload length", 4, Kind::PayloadLen);
        self.push("payload", n as usize, Kind::Payload);
        self.push("payload checksum", 4, Kind::PayloadCrc);
        self.push("footer magic", 4, Kind::Footer);
        assert_eq!(self.pos(), self.bytes.len());
        self
    }

    fn field_at(&self, at: usize) -> &Field {
        self.fields
            .iter()
            .find(|f| f.start <= at && at < f.end)
            .unwrap()
    }

    fn first(&self, kind: Kind) -> &Field {
        self.fields.iter().find(|f| f.kind == kind).unwrap()
    }

    /// The CRC stored in the 4 bytes of the first field of `kind`.
    fn stored(&self, kind: Kind) -> u32 {
        self.u32_at(self.first(kind).start)
    }
}

/// The error a read of `bytes[..cut]` must report: the field that ran
/// out, or for `.cbt`, whose footer is read from the end, the footer.
fn expect_cut(l: &Layout, cut: usize, seekable: bool) -> Vec<String> {
    let f = l.field_at(cut);
    let header_end = l.first(Kind::HeaderCrc).end;
    vec![if !seekable || cut < header_end {
        format!("Truncated({})", f.what)
    } else if cut < header_end + 8 {
        "Truncated(footer)".into()
    } else {
        "BadFooterMagic".into()
    }]
}

/// Errors a corrupted length can lead to: reading on from the wrong
/// place ends at some check of the same section.
fn reframed(checksum: &str) -> Vec<String> {
    [checksum, "Truncated", "LimitExceeded", "BadVarint"]
        .iter()
        .map(|k| format!("{k}*"))
        .collect()
}

/// The error flipping `bit` of `bytes[at]` must produce.
fn expect_flip(l: &Layout, format: &Format, at: usize, bit: u32) -> Vec<String> {
    let f = l.field_at(at);
    let mut bad = l.bytes.to_vec();
    bad[at] ^= 1 << bit;
    let u32_at = |at: usize| u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
    let varint_at = |at: usize| varint::read_u64(&bad, &mut at.clone());
    let over = |what: &str, got: u64, max: u64| {
        (got > max).then(|| vec![format!("LimitExceeded({what}, {got}, {max})")])
    };
    let header_crc = || {
        vec![format!(
            "Checksum(header checksum, stored {:#x})",
            l.stored(Kind::HeaderCrc)
        )]
    };
    match f.kind {
        Kind::Prefix if at < 8 => vec!["BadMagic".into()],
        Kind::Prefix if at < 10 => vec![format!(
            "UnsupportedVersion({})",
            u16::from_le_bytes([bad[8], bad[9]])
        )],
        Kind::Prefix => vec![format!(
            "UnsupportedFlags({:#x})",
            u16::from_le_bytes([bad[10], bad[11]])
        )],
        Kind::Fixed => header_crc(),
        Kind::Varint if bit < 7 => header_crc(),
        Kind::Varint => reframed("Checksum(header"),
        Kind::Len(max) => varint_at(f.start)
            .and_then(|v| over(f.what, v, max))
            .unwrap_or_else(|| reframed("Checksum(header")),
        Kind::HeaderCrc => vec![format!(
            "Checksum(header checksum, stored {:#x})",
            u32_at(f.start)
        )],
        Kind::PayloadLen => {
            let n = u64::from(u32_at(f.start));
            let body = f.end as u64 + n;
            over("payload length", n, format.max_payload).unwrap_or_else(|| {
                vec![if body > l.bytes.len() as u64 {
                    "Truncated(payload)".into()
                } else if body + 4 > l.bytes.len() as u64 {
                    "Truncated(payload checksum)".into()
                } else {
                    "Checksum(payload checksum*".into()
                }]
            })
        }
        Kind::Payload => vec![format!(
            "Checksum(payload checksum, stored {:#x})",
            l.stored(Kind::PayloadCrc)
        )],
        Kind::PayloadCrc => vec![format!(
            "Checksum(payload checksum, stored {:#x})",
            u32_at(f.start)
        )],
        Kind::Footer => vec!["BadFooterMagic".into()],
        Kind::BlockLen(b) => {
            let n = u64::from(u32_at(f.start));
            over("block payload length", n, format.max_payload).unwrap_or_else(|| {
                vec![if f.start as u64 + 20 + n > l.bytes.len() as u64 {
                    "Truncated(block payload)".into()
                } else {
                    block_crc(l, b)
                }]
            })
        }
        Kind::BlockCount(b) => over(
            "block record count",
            u64::from(u32_at(f.start)),
            u64::from(cbt::MAX_BLOCK_RECORDS),
        )
        .unwrap_or_else(|| vec![block_crc(l, b)]),
        Kind::BlockBody(b) => vec![block_crc(l, b)],
        Kind::BlockCrc(b) => vec![format!("BlockChecksum({b}, stored {:#x})", u32_at(f.start))],
        Kind::StaticVarint if bit < 7 => vec![static_crc(l)],
        Kind::StaticVarint => reframed("Checksum(static-image"),
        Kind::StaticLen(max) => varint_at(f.start)
            .and_then(|v| over(f.what, v, max))
            .unwrap_or_else(|| reframed("Checksum(static-image")),
        Kind::StaticBody => vec![static_crc(l)],
        Kind::StaticCrc => vec![format!(
            "Checksum(static-image checksum, stored {:#x})",
            u32_at(f.start)
        )],
        Kind::FooterBody => vec![format!(
            "Checksum(footer checksum, stored {:#x})",
            l.stored(Kind::FooterCrc)
        )],
        Kind::FooterCrc => vec![format!(
            "Checksum(footer checksum, stored {:#x})",
            u32_at(f.start)
        )],
        Kind::FooterLen => {
            let n = u64::from(u32_at(f.start));
            let room = (l.bytes.len() - l.first(Kind::HeaderCrc).end - 8) as u64;
            vec![if !(24..=room).contains(&n) {
                "Truncated(footer)".into()
            } else {
                format!(
                    "Checksum(footer checksum, stored {:#x})",
                    l.stored(Kind::FooterCrc)
                )
            }]
        }
    }
}

fn block_crc(l: &Layout, b: u32) -> String {
    format!(
        "BlockChecksum({b}, stored {:#x})",
        l.stored(Kind::BlockCrc(b))
    )
}

fn static_crc(l: &Layout) -> String {
    format!(
        "Checksum(static-image checksum, stored {:#x})",
        l.stored(Kind::StaticCrc)
    )
}

/// Renders the parts of an error the suite pins.
fn key(e: &ContainerError) -> String {
    use ContainerError as E;
    match e {
        E::BadMagic(_) => "BadMagic".into(),
        E::UnsupportedVersion { got, .. } => format!("UnsupportedVersion({got})"),
        E::UnsupportedFlags(f) => format!("UnsupportedFlags({f:#x})"),
        E::Truncated { what } => format!("Truncated({what})"),
        E::LimitExceeded { what, got, max } => format!("LimitExceeded({what}, {got}, {max})"),
        E::Checksum {
            what,
            stored,
            computed,
        } => {
            assert_ne!(stored, computed);
            format!("Checksum({what}, stored {stored:#x})")
        }
        E::BlockChecksum { block, stored, .. } => {
            format!("BlockChecksum({block}, stored {stored:#x})")
        }
        E::BadVarint { what } => format!("BadVarint({what})"),
        E::TrailingBytes {
            what: "footer magic",
            count,
        } => format!("TrailingBytes({count})"),
        other => format!("{other:?}"),
    }
}

fn assert_expected(case: &str, got: Result<(), ContainerError>, expected: &[String]) {
    let got = match got {
        Ok(()) => panic!("{case}: accepted, expected {expected:?}"),
        Err(e) => key(&e),
    };
    let hit = expected.iter().any(|x| match x.strip_suffix('*') {
        Some(prefix) => got.starts_with(prefix),
        None => got == *x,
    });
    assert!(hit, "{case}: got {got}, expected {expected:?}");
}

/// A format only this suite uses, with a small payload cap.
const SYNTH: Format = Format {
    name: "TST",
    magic: *b"COBRATST",
    footer_magic: *b"TSTX",
    version: 3,
    max_payload: 64,
};

fn synth_identity() -> Identity<&'static str> {
    Identity {
        design: "B2",
        topology: "GTAG3 > BTB2 > BIM2",
        config_hash: 0x0123_4567_89ab_cdef,
        workload: "xz",
    }
}

fn synth_bytes() -> Vec<u8> {
    let mut header = container::begin_header(&SYNTH);
    container::put_identity(&mut header, &synth_identity()).unwrap();
    varint::write_u64(&mut header, 1_600);
    let payload: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
    let mut buf = Vec::new();
    container::write_frame(&mut buf, &SYNTH, &header, &payload).unwrap();
    buf
}

fn read_synth(mut r: &[u8]) -> Result<(), ContainerError> {
    let mut h = container::read_header(&mut r, &SYNTH)?;
    let id = h.identity()?;
    h.varint("header warmup boundary")?;
    h.check("header checksum")?;
    id.check(&synth_identity())?;
    container::read_payload(&mut r, &SYNTH).map(|_| ())
}

fn cbr_meta() -> CbrMeta {
    let design = designs::b2();
    CbrMeta {
        id: run_identity(&design, &CoreConfig::boom_4wide(), "xz"),
        insts: MEASURE,
        warmup_insts: WARMUP,
    }
}

fn open_cbt(bytes: &[u8]) -> Result<(), ContainerError> {
    CbtReader::open(std::io::Cursor::new(bytes))?.validate()
}

fn cbt_layout(bytes: &[u8]) -> Layout<'_> {
    let mut l = Layout::new(bytes);
    l.string("workload name");
    l.varint("header entry PC", Kind::Varint);
    l.push("header checksum", 4, Kind::HeaderCrc);
    let footer_len = l.u32_at(bytes.len() - 8) as usize;
    let footer_start = bytes.len() - 8 - footer_len;
    let static_offset =
        u64::from_le_bytes(bytes[footer_start..footer_start + 8].try_into().unwrap()) as usize;
    let mut block = 0;
    while l.pos() < static_offset {
        let n = l.u32_at(l.pos()) as usize;
        l.push("block payload length", 4, Kind::BlockLen(block));
        l.push("block record count", 4, Kind::BlockCount(block));
        l.push("block first PC", 8, Kind::BlockBody(block));
        l.push("block checksum", 4, Kind::BlockCrc(block));
        l.push("block payload", n, Kind::BlockBody(block));
        block += 1;
    }
    l.varint("static-image base PC", Kind::StaticVarint);
    l.varint(
        "static-image parcel count",
        Kind::StaticLen(cbt::MAX_STATIC_PARCELS),
    );
    let n = l.varint(
        "static-image payload length",
        Kind::StaticLen(cbt::MAX_STATIC_BYTES),
    );
    l.push("static-image payload", n as usize, Kind::StaticBody);
    l.push("static-image checksum", 4, Kind::StaticCrc);
    l.push("footer", footer_len - 4, Kind::FooterBody);
    l.push("footer", 4, Kind::FooterCrc);
    l.push("footer length", 4, Kind::FooterLen);
    l.push("footer magic", 4, Kind::Footer);
    assert_eq!(l.pos(), bytes.len());
    l
}

/// One poisoning table row: a file, its layout, the format it claims,
/// whether its reader seeks to the footer first, and its reader.
struct Case<'a> {
    name: &'static str,
    layout: Layout<'a>,
    format: &'static Format,
    seekable: bool,
    read: &'a dyn Fn(&[u8]) -> Result<(), ContainerError>,
}

#[test]
fn every_poisoning_is_rejected_with_the_precise_error() {
    let synth = synth_bytes();
    let (cbm, cbr) = b2_xz_run();
    let cbt = cbt_bytes();
    let read_cbm = |b: &[u8]| read_metrics(b).map(|_| ());
    let read_cbr = |b: &[u8]| read_result(b, &cbr_meta()).map(|_| ());
    let cases = [
        Case {
            name: "synthetic",
            layout: {
                let mut l = Layout::new(&synth);
                l.identity();
                l.varint("header warmup boundary", Kind::Varint);
                l.frame()
            },
            format: &SYNTH,
            seekable: false,
            read: &read_synth,
        },
        Case {
            name: ".cbm",
            layout: {
                let mut l = Layout::new(&cbm);
                l.identity();
                l.varint("header warmup boundary", Kind::Varint);
                l.varint("header interval length", Kind::Varint);
                l.varint("header signature buckets", Kind::Len(4096));
                for _ in 0..l.varint("header label count", Kind::Len(64)) {
                    l.string("header component label");
                }
                l.frame()
            },
            format: &cobra::uarch::metrics::FORMAT,
            seekable: false,
            read: &read_cbm,
        },
        Case {
            name: ".cbr",
            layout: {
                let mut l = Layout::new(&cbr);
                l.identity();
                l.varint("header instruction bound", Kind::Varint);
                l.varint("header warmup boundary", Kind::Varint);
                l.frame()
            },
            format: &cobra::uarch::resultcache::FORMAT,
            seekable: false,
            read: &read_cbr,
        },
        Case {
            name: ".cbt",
            layout: cbt_layout(&cbt),
            format: &cbt::FORMAT,
            seekable: true,
            read: &open_cbt,
        },
    ];
    for c in &cases {
        let bytes = c.layout.bytes;
        (c.read)(bytes).unwrap_or_else(|e| panic!("{}: intact file rejected: {e}", c.name));
        for cut in 0..bytes.len() {
            assert_expected(
                &format!("{} cut at {cut}", c.name),
                (c.read)(&bytes[..cut]),
                &expect_cut(&c.layout, cut, c.seekable),
            );
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.to_vec();
                bad[at] ^= 1 << bit;
                assert_expected(
                    &format!("{} bit {bit} of byte {at}", c.name),
                    (c.read)(&bad),
                    &expect_flip(&c.layout, c.format, at, bit),
                );
            }
        }
        let mut long = bytes.to_vec();
        long.push(0);
        let trailing = if c.seekable {
            "BadFooterMagic"
        } else {
            "TrailingBytes(1)"
        };
        assert_expected(
            &format!("{} + 1 byte", c.name),
            (c.read)(&long),
            &[trailing.into()],
        );
        let prefix_cases: [(&str, usize, &[u8], String); 3] = [
            ("bad magic", 0, b"COBRAXYZ", "BadMagic".into()),
            (
                "bad version",
                8,
                &(c.format.version + 1).to_le_bytes(),
                format!("UnsupportedVersion({})", c.format.version + 1),
            ),
            (
                "bad flags",
                10,
                &[0, 0x80],
                "UnsupportedFlags(0x8000)".into(),
            ),
        ];
        for (what, at, patch, expected) in prefix_cases {
            let mut bad = bytes.to_vec();
            bad[at..at + patch.len()].copy_from_slice(patch);
            assert_expected(&format!("{} {what}", c.name), (c.read)(&bad), &[expected]);
        }
    }
}

#[test]
fn identity_check_names_the_first_differing_field() {
    let file = synth_bytes();
    let read_and_check = |expected: &Identity<&str>| {
        let mut r = &file[..];
        container::read_header(&mut r, &SYNTH)?
            .identity()?
            .check(expected)
    };
    read_and_check(&synth_identity()).unwrap();
    let base = synth_identity();
    for (field, expected) in [
        (
            "design",
            Identity {
                design: "TAGE-L",
                ..base
            },
        ),
        (
            "topology",
            Identity {
                topology: "BIM2",
                ..base
            },
        ),
        (
            "config hash",
            Identity {
                config_hash: base.config_hash ^ 1,
                ..base
            },
        ),
        (
            "workload",
            Identity {
                workload: "gcc",
                ..base
            },
        ),
    ] {
        match read_and_check(&expected) {
            Err(ContainerError::IdentityMismatch { field: f, .. }) if f == field => {}
            other => panic!("{field}: {other:?}"),
        }
    }
}

#[test]
fn writers_refuse_what_readers_refuse() {
    let long = "x".repeat(MAX_NAME_BYTES as usize + 1);
    let mut out = Vec::new();
    assert!(matches!(
        container::put_str(&mut out, "header design name", &long),
        Err(ContainerError::LimitExceeded {
            what: "header design name",
            got: 4097,
            max: 4096
        })
    ));
    let mut file = Vec::new();
    let header = container::begin_header(&SYNTH);
    assert!(matches!(
        container::write_frame(&mut file, &SYNTH, &header, &[0; 65]),
        Err(ContainerError::LimitExceeded {
            what: "payload length",
            got: 65,
            max: 64
        })
    ));
    assert!(file.is_empty(), "nothing is written for a refused payload");

    // Each real format refuses an over-cap name before writing a byte.
    let mut meta = cbr_meta();
    meta.id.topology = long.clone();
    let (_, cbr) = b2_xz_run();
    let report = read_result(&cbr[..], &cbr_meta()).unwrap();
    let mut file = Vec::new();
    assert!(matches!(
        save_result(&mut file, &meta, &report),
        Err(ContainerError::LimitExceeded {
            what: "header topology",
            ..
        })
    ));
    assert!(file.is_empty());
    assert!(matches!(
        CbtWriter::new(Vec::new(), &long, 0),
        Err(ContainerError::LimitExceeded {
            what: "workload name",
            ..
        })
    ));
}
