//! The COBRA Binary Trace (CBT) format — capture, store, and stream
//! branch/instruction traces.
//!
//! A `.cbt` file is a versioned, self-contained serialization of an
//! [`InstructionStream`](cobra_uarch::InstructionStream) prefix: the
//! dynamic instruction records (compact per-record encoding, with
//! per-branch PC/target/kind/taken), plus the static-decode image the
//! core's wrong-path fetch consults, so a replayed run reproduces the
//! execution-driven run *byte-identically* (see
//! [`replay::TraceProgram`](crate::replay::TraceProgram)).
//!
//! The format is block-structured: records are grouped into blocks, each
//! independently decodable and protected by a CRC-32C, and a footer index
//! lets readers validate, seek, and stream without ever holding more than
//! one block in memory. The normative specification, including a worked
//! hex example, is in [`docs/TRACE_FORMAT.md`] at the repository root;
//! this module is the reference implementation.
//!
//! [`docs/TRACE_FORMAT.md`]: https://github.com/cobra-bp/cobra-rs/blob/main/docs/TRACE_FORMAT.md
//!
//! The header is the shared [`cobra_sim::container`] prefix, the
//! workload name, the entry PC, and the header CRC; errors are the
//! shared [`ContainerError`]. Integers are little-endian when
//! fixed-width; variable-length values use LEB128
//! ([`cobra_sim::varint`]), with ZigZag folding for signed deltas.
//! Record PCs are never stored — each record's PC is derived from its
//! predecessor (fall-through or taken target), which is also what makes
//! the per-record encoding 1–5 bytes instead of 16+.

use cobra_core::BranchKind;
use cobra_sim::container::{
    self, cap, read_exact, read_u32, read_u64, ContainerError, CrcReader, Format,
};
use cobra_sim::{varint, Crc32c};
use cobra_uarch::{CfiOutcome, DynInst, Op, StaticInst};
use std::io::{Read, Seek, SeekFrom, Write};

/// The `.cbt` framing: magic `COBRACBT`, footer `CBTX`, version 1, and a
/// 64 MiB cap on each block payload.
pub const FORMAT: Format = Format {
    name: "CBT",
    magic: *b"COBRACBT",
    footer_magic: *b"CBTX",
    version: 1,
    max_payload: 1 << 26,
};
/// Records per block written by [`CbtWriter`] (readers accept any count
/// up to [`MAX_BLOCK_RECORDS`]).
pub const DEFAULT_BLOCK_RECORDS: u32 = 32_768;
/// Cap on records per block.
pub const MAX_BLOCK_RECORDS: u32 = 1 << 22;
/// Cap on static-image parcels.
pub const MAX_STATIC_PARCELS: u64 = 1 << 22;
/// Cap on the static-image payload size.
pub const MAX_STATIC_BYTES: u64 = 1 << 26;
/// Cap on the block count.
pub const MAX_BLOCKS: u32 = 1 << 20;

/// Fixed bytes in a block header: `payload_len` (u32), `record_count`
/// (u32), `first_pc` (u64), `block_crc` (u32).
const BLOCK_HEADER_BYTES: u64 = 4 + 4 + 8 + 4;
/// Bytes per footer index entry: `offset`, `first_index`, `first_pc`.
const INDEX_ENTRY_BYTES: u64 = 24;

// Record tag layout: low nibble = opcode, high nibble = flags.
const OP_INT: u8 = 0;
const OP_MUL: u8 = 1;
const OP_DIV: u8 = 2;
const OP_FP: u8 = 3;
const OP_LOAD: u8 = 4;
const OP_STORE: u8 = 5;
const OP_COND: u8 = 8;
const OP_JUMP: u8 = 9;
const OP_CALL: u8 = 10;
const OP_RET: u8 = 11;
const OP_INDIRECT: u8 = 12;
const FLAG_TAKEN: u8 = 1 << 4;
const FLAG_SFB: u8 = 1 << 5;
const FLAG_DEP: u8 = 1 << 6;
const FLAG_RESERVED: u8 = 1 << 7;
// Static-parcel-only flag: a CFI parcel with a statically-known target.
const FLAG_TARGET: u8 = 1 << 4;

// ------------------------------------------------------------ static image

/// The static-decode image: what
/// [`InstructionStream::inst_at`](cobra_uarch::InstructionStream::inst_at)
/// answers over a contiguous PC window, captured so wrong-path fetch
/// behaves identically under replay.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticImage {
    base: u64,
    parcels: Vec<StaticInst>,
}

/// Consecutive filler parcels past the last interesting one before
/// probing stops (code is dense; real decode information never hides
/// behind a gap this long).
const PROBE_GUARD: u64 = 8192;

impl StaticImage {
    /// An empty image (every lookup is filler).
    pub fn empty() -> Self {
        Self {
            base: 0,
            parcels: Vec::new(),
        }
    }

    /// Captures the static image around the dynamic PC window
    /// `[lo, hi]` by probing `look` parcel-by-parcel, starting at
    /// `min(entry, lo)` and continuing until well past both `hi` and the
    /// last non-filler parcel. Trailing filler is trimmed; lookups
    /// outside the stored window answer filler, exactly as the probed
    /// stream does past its code.
    pub fn probe(entry: u64, lo: u64, hi: u64, look: impl Fn(u64) -> StaticInst) -> Self {
        let base = entry.min(lo) & !1;
        let mut parcels = Vec::new();
        let mut trailing = 0u64;
        let mut pc = base;
        while parcels.len() < MAX_STATIC_PARCELS as usize {
            if pc > hi && trailing >= PROBE_GUARD {
                break;
            }
            let si = look(pc);
            if si == StaticInst::filler() {
                trailing += 1;
            } else {
                trailing = 0;
            }
            parcels.push(si);
            pc += 2;
        }
        while parcels.last() == Some(&StaticInst::filler()) {
            parcels.pop();
        }
        Self { base, parcels }
    }

    /// Base PC of the stored window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of stored 2-byte parcels.
    pub fn parcels(&self) -> usize {
        self.parcels.len()
    }

    /// Static decode at `pc`: the stored parcel inside the window,
    /// filler outside it (and at odd addresses).
    pub fn lookup(&self, pc: u64) -> StaticInst {
        if pc < self.base || pc & 1 != 0 {
            return StaticInst::filler();
        }
        let idx = ((pc - self.base) / 2) as usize;
        self.parcels
            .get(idx)
            .copied()
            .unwrap_or_else(StaticInst::filler)
    }

    /// Encodes the image's parcel payload (not the section framing).
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.parcels.len() * 2);
        for (i, p) in self.parcels.iter().enumerate() {
            let pc = self.base + i as u64 * 2;
            match (p.op, p.cfi_kind) {
                (op, None) => {
                    let (code, addr) = match op {
                        Op::Int => (OP_INT, None),
                        Op::Mul => (OP_MUL, None),
                        Op::Div => (OP_DIV, None),
                        Op::Fp => (OP_FP, None),
                        Op::Load { addr } => (OP_LOAD, Some(addr)),
                        Op::Store { addr } => (OP_STORE, Some(addr)),
                        // A CFI op without a kind has no meaning for
                        // wrong-path predecode; store as filler.
                        Op::Cfi => (OP_INT, None),
                    };
                    out.push(code);
                    if let Some(a) = addr {
                        varint::write_u64(&mut out, a);
                    }
                }
                (_, Some(kind)) => {
                    let code = kind_code(kind);
                    match p.target {
                        Some(t) => {
                            out.push(code | FLAG_TARGET);
                            varint::write_i64(&mut out, t.wrapping_sub(pc) as i64);
                        }
                        None => out.push(code),
                    }
                }
            }
        }
        out
    }

    /// Decodes a parcel payload produced by [`Self::encode_payload`].
    fn decode_payload(base: u64, count: u64, payload: &[u8]) -> Result<Self, ContainerError> {
        let mut parcels = Vec::with_capacity(count.min(MAX_STATIC_PARCELS) as usize);
        let mut pos = 0usize;
        for i in 0..count {
            let pc = base + i * 2;
            let tag = *payload.get(pos).ok_or(ContainerError::StaticShape {
                detail: format!("payload ends inside parcel {i}"),
            })?;
            pos += 1;
            let opcode = tag & 0x0f;
            let flags = tag & 0xf0;
            let parcel = if opcode < 8 {
                if flags != 0 {
                    return Err(ContainerError::StaticShape {
                        detail: format!("parcel {i}: flags {flags:#04x} on non-CFI tag"),
                    });
                }
                let op = match opcode {
                    OP_INT => Op::Int,
                    OP_MUL => Op::Mul,
                    OP_DIV => Op::Div,
                    OP_FP => Op::Fp,
                    OP_LOAD | OP_STORE => {
                        let addr = varint::read_u64(payload, &mut pos).ok_or(
                            ContainerError::BadVarint {
                                what: "static parcel address",
                            },
                        )?;
                        if opcode == OP_LOAD {
                            Op::Load { addr }
                        } else {
                            Op::Store { addr }
                        }
                    }
                    _ => {
                        return Err(ContainerError::StaticShape {
                            detail: format!("parcel {i}: unknown opcode {opcode}"),
                        })
                    }
                };
                StaticInst {
                    op,
                    cfi_kind: None,
                    target: None,
                }
            } else {
                let kind = code_kind(opcode).ok_or_else(|| ContainerError::StaticShape {
                    detail: format!("parcel {i}: unknown CFI opcode {opcode}"),
                })?;
                if flags & !FLAG_TARGET != 0 {
                    return Err(ContainerError::StaticShape {
                        detail: format!("parcel {i}: reserved flags {flags:#04x}"),
                    });
                }
                let target = if flags & FLAG_TARGET != 0 {
                    let d =
                        varint::read_i64(payload, &mut pos).ok_or(ContainerError::BadVarint {
                            what: "static parcel target",
                        })?;
                    Some(pc.wrapping_add(d as u64))
                } else {
                    None
                };
                StaticInst {
                    op: Op::Cfi,
                    cfi_kind: Some(kind),
                    target,
                }
            };
            parcels.push(parcel);
        }
        if pos != payload.len() {
            return Err(ContainerError::StaticShape {
                detail: format!(
                    "{} trailing bytes after the last parcel",
                    payload.len() - pos
                ),
            });
        }
        Ok(Self { base, parcels })
    }
}

fn kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => OP_COND,
        BranchKind::Jump => OP_JUMP,
        BranchKind::Call => OP_CALL,
        BranchKind::Ret => OP_RET,
        BranchKind::Indirect => OP_INDIRECT,
    }
}

fn code_kind(code: u8) -> Option<BranchKind> {
    Some(match code {
        OP_COND => BranchKind::Conditional,
        OP_JUMP => BranchKind::Jump,
        OP_CALL => BranchKind::Call,
        OP_RET => BranchKind::Ret,
        OP_INDIRECT => BranchKind::Indirect,
        _ => return None,
    })
}

// ------------------------------------------------------------------ writer

/// Per-block metadata, as stored in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Absolute file offset of the block header.
    pub offset: u64,
    /// Index of the block's first record within the whole trace.
    pub first_index: u64,
    /// PC of the block's first record.
    pub first_pc: u64,
    /// Records in the block.
    pub records: u32,
}

/// Summary statistics returned by [`CbtWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbtSummary {
    /// Dynamic records written.
    pub records: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Total file bytes, framing included.
    pub bytes: u64,
    /// Static-image parcels stored.
    pub static_parcels: u64,
}

/// Streams an instruction sequence into the CBT on-disk format.
///
/// Memory stays O(block): each block's payload is buffered, checksummed,
/// and written as it fills; only the (small) footer index accumulates.
#[derive(Debug)]
pub struct CbtWriter<W: Write> {
    w: W,
    offset: u64,
    payload: Vec<u8>,
    block_records: u32,
    block_first_pc: u64,
    block_first_index: u64,
    records_per_block: u32,
    prev_mem_addr: u64,
    next_pc: Option<u64>,
    index: Vec<BlockMeta>,
    total: u64,
    pc_window: Option<(u64, u64)>,
    entry_pc: u64,
}

impl<W: Write> CbtWriter<W> {
    /// Writes the file header for a trace of `name` entering at
    /// `entry_pc`, and returns the writer ready for [`Self::push`].
    ///
    /// # Errors
    ///
    /// [`ContainerError::LimitExceeded`] if `name` is over the string
    /// cap; I/O errors propagate.
    pub fn new(mut w: W, name: &str, entry_pc: u64) -> Result<Self, ContainerError> {
        let mut header = container::begin_header(&FORMAT);
        container::put_str(&mut header, "workload name", name)?;
        varint::write_u64(&mut header, entry_pc);
        let offset = container::write_section(&mut w, &header)?;
        Ok(Self {
            w,
            offset,
            payload: Vec::new(),
            block_records: 0,
            block_first_pc: 0,
            block_first_index: 0,
            records_per_block: DEFAULT_BLOCK_RECORDS,
            prev_mem_addr: 0,
            next_pc: None,
            index: Vec::new(),
            total: 0,
            pc_window: None,
            entry_pc,
        })
    }

    /// Overrides the records-per-block target (clamped to ≥ 1); useful in
    /// tests to force multi-block files from short streams.
    pub fn set_records_per_block(&mut self, n: u32) {
        self.records_per_block = n.max(1);
    }

    /// The dynamic PC window `(min, max)` observed so far, if any record
    /// has been pushed — the probe window for [`StaticImage::probe`].
    pub fn pc_window(&self) -> Option<(u64, u64)> {
        self.pc_window
    }

    /// Appends one dynamic instruction.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Unencodable`] if the instruction's op/CFI fields are
    /// inconsistent, an unconditional CFI is marked not-taken, or its PC
    /// does not follow from the previous record (CBT derives PCs, so the
    /// stream must be a connected path). I/O errors propagate.
    pub fn push(&mut self, inst: &DynInst) -> Result<(), ContainerError> {
        if let Some(expected) = self.next_pc {
            if inst.pc != expected {
                return Err(ContainerError::Unencodable {
                    pc: inst.pc,
                    detail: format!(
                        "PC does not follow from the previous record (expected {expected:#x})"
                    ),
                });
            }
        }
        if self.block_records == 0 {
            self.block_first_pc = inst.pc;
            self.block_first_index = self.total;
            self.prev_mem_addr = 0;
        }
        let mut tag: u8;
        let mut dep = inst.dep;
        match (inst.op, inst.cfi) {
            (Op::Cfi, Some(c)) => {
                if c.kind != BranchKind::Conditional && !c.taken {
                    return Err(ContainerError::Unencodable {
                        pc: inst.pc,
                        detail: format!("not-taken unconditional {:?}", c.kind),
                    });
                }
                tag = kind_code(c.kind);
                if c.taken {
                    tag |= FLAG_TAKEN;
                }
                if c.sfb {
                    tag |= FLAG_SFB;
                }
            }
            (Op::Cfi, None) => {
                return Err(ContainerError::Unencodable {
                    pc: inst.pc,
                    detail: "Op::Cfi without a CfiOutcome".into(),
                })
            }
            (op, Some(_)) => {
                return Err(ContainerError::Unencodable {
                    pc: inst.pc,
                    detail: format!("CfiOutcome on non-CFI op {op:?}"),
                })
            }
            (Op::Int, None) => tag = OP_INT,
            (Op::Mul, None) => tag = OP_MUL,
            (Op::Div, None) => tag = OP_DIV,
            (Op::Fp, None) => tag = OP_FP,
            (Op::Load { .. }, None) => tag = OP_LOAD,
            (Op::Store { .. }, None) => tag = OP_STORE,
        }
        if dep != 0 {
            tag |= FLAG_DEP;
        } else {
            dep = 0;
        }
        self.payload.push(tag);
        if dep != 0 {
            self.payload.push(dep);
        }
        if let Op::Load { addr } | Op::Store { addr } = inst.op {
            let delta = addr.wrapping_sub(self.prev_mem_addr) as i64;
            varint::write_i64(&mut self.payload, delta);
            self.prev_mem_addr = addr;
        }
        if let Some(c) = inst.cfi {
            let delta = c.target.wrapping_sub(inst.pc + 2) as i64;
            varint::write_i64(&mut self.payload, delta);
            self.next_pc = Some(if c.taken { c.target } else { inst.pc + 2 });
        } else {
            self.next_pc = Some(inst.pc + 2);
        }
        self.pc_window = Some(match self.pc_window {
            None => (inst.pc, inst.pc),
            Some((lo, hi)) => (lo.min(inst.pc), hi.max(inst.pc)),
        });
        self.total += 1;
        self.block_records += 1;
        if self.block_records >= self.records_per_block {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), ContainerError> {
        if self.block_records == 0 {
            return Ok(());
        }
        cap(
            "block record count",
            self.block_records.into(),
            MAX_BLOCK_RECORDS.into(),
        )?;
        cap(
            "block count",
            self.index.len() as u64 + 1,
            MAX_BLOCKS.into(),
        )?;
        let payload_len = cap(
            "block payload length",
            self.payload.len() as u64,
            FORMAT.max_payload,
        )? as u32;
        let mut crc = Crc32c::new();
        crc.update(&payload_len.to_le_bytes());
        crc.update(&self.block_records.to_le_bytes());
        crc.update(&self.block_first_pc.to_le_bytes());
        crc.update(&self.payload);
        self.w.write_all(&payload_len.to_le_bytes())?;
        self.w.write_all(&self.block_records.to_le_bytes())?;
        self.w.write_all(&self.block_first_pc.to_le_bytes())?;
        self.w.write_all(&crc.finish().to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        self.index.push(BlockMeta {
            offset: self.offset,
            first_index: self.block_first_index,
            first_pc: self.block_first_pc,
            records: self.block_records,
        });
        self.offset += BLOCK_HEADER_BYTES + u64::from(payload_len);
        self.payload.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Flushes the final block, writes the static image and footer, and
    /// returns summary statistics. The writer is consumed; the file is
    /// complete and self-contained afterwards.
    ///
    /// # Errors
    ///
    /// [`ContainerError::LimitExceeded`] if a block or the static image
    /// is over the format's caps; I/O errors propagate.
    pub fn finish(mut self, image: &StaticImage) -> Result<CbtSummary, ContainerError> {
        self.flush_block()?;
        let static_offset = self.offset;
        let payload = image.encode_payload();
        let mut section = Vec::with_capacity(payload.len() + 16);
        varint::write_u64(&mut section, image.base);
        let parcels = image.parcels.len() as u64;
        let parcels = cap("static-image parcel count", parcels, MAX_STATIC_PARCELS)?;
        varint::write_u64(&mut section, parcels);
        let len = cap(
            "static-image payload length",
            payload.len() as u64,
            MAX_STATIC_BYTES,
        )?;
        varint::write_u64(&mut section, len);
        section.extend_from_slice(&payload);
        self.offset += container::write_section(&mut self.w, &section)?;

        let mut footer = Vec::with_capacity(32 + self.index.len() * INDEX_ENTRY_BYTES as usize);
        footer.extend_from_slice(&static_offset.to_le_bytes());
        footer.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for b in &self.index {
            footer.extend_from_slice(&b.offset.to_le_bytes());
            footer.extend_from_slice(&b.first_index.to_le_bytes());
            footer.extend_from_slice(&b.first_pc.to_le_bytes());
        }
        footer.extend_from_slice(&self.total.to_le_bytes());
        let footer_len = footer.len() as u32 + 4;
        self.offset += container::write_section(&mut self.w, &footer)?;
        self.w.write_all(&footer_len.to_le_bytes())?;
        self.w.write_all(&FORMAT.footer_magic)?;
        self.offset += 8;
        self.w.flush()?;
        Ok(CbtSummary {
            records: self.total,
            blocks: self.index.len() as u64,
            bytes: self.offset,
            static_parcels: image.parcels.len() as u64,
        })
    }

    /// The stream entry PC recorded in the header.
    pub fn entry_pc(&self) -> u64 {
        self.entry_pc
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.total
    }
}

// ------------------------------------------------------------------ reader

/// A validating, seekable, block-streaming `.cbt` reader.
///
/// [`CbtReader::open`] parses and checks the header, footer, index, and
/// static image; individual blocks are read, checksummed, and decoded on
/// demand via [`CbtReader::read_block`], keeping memory O(block).
/// [`CbtReader::validate`] additionally streams every block once —
/// end-to-end integrity without ever holding the whole trace.
#[derive(Debug)]
pub struct CbtReader<R: Read + Seek> {
    r: R,
    name: String,
    entry_pc: u64,
    image: StaticImage,
    index: Vec<BlockMeta>,
    total: u64,
}

impl<R: Read + Seek> CbtReader<R> {
    /// Opens a trace: parses the header, locates and checks the footer,
    /// loads the block index and static image. Block payloads are not yet
    /// read; call [`Self::validate`] for a full integrity pass.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`] describing the first malformed structure found.
    pub fn open(mut r: R) -> Result<Self, ContainerError> {
        let file_len = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;

        // --- header ---
        let mut h = container::read_header(&mut r, &FORMAT)?;
        let name = h.string("workload name")?;
        let entry_pc = h.varint("header entry PC")?;
        let header_end = h.check("header checksum")?;

        // --- footer ---
        if file_len < header_end + 8 {
            return Err(ContainerError::Truncated { what: "footer" });
        }
        r.seek(SeekFrom::Start(file_len - 8))?;
        let footer_len = u64::from(read_u32(&mut r, "footer length")?);
        let mut magic = [0u8; 4];
        read_exact(&mut r, &mut magic, "footer magic")?;
        if magic != FORMAT.footer_magic {
            return Err(ContainerError::BadFooterMagic);
        }
        let min_footer = 8 + 4 + 8 + 4;
        if footer_len < min_footer || footer_len > file_len.saturating_sub(header_end + 8) {
            return Err(ContainerError::Truncated { what: "footer" });
        }
        let footer_start = file_len - 8 - footer_len;
        r.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; footer_len as usize - 4];
        let mut section = CrcReader::new(&mut r);
        section.bytes(&mut footer, "footer")?;
        section.check("footer checksum")?;
        let mut body = &footer[..];
        let static_offset = read_u64(&mut body, "footer static offset")?;
        let block_count = cap(
            "block count",
            read_u32(&mut body, "footer block count")?.into(),
            MAX_BLOCKS.into(),
        )? as u32;
        if body.len() as u64 != u64::from(block_count) * INDEX_ENTRY_BYTES + 8 {
            return Err(ContainerError::IndexMismatch {
                detail: format!(
                    "footer length {} does not fit {} index entries",
                    footer_len, block_count
                ),
            });
        }
        let mut index = Vec::with_capacity(block_count as usize);
        let mut prev_offset = header_end;
        let mut prev_index = 0u64;
        for i in 0..block_count {
            let offset = read_u64(&mut body, "index entry offset")?;
            let first_index = read_u64(&mut body, "index entry record index")?;
            let first_pc = read_u64(&mut body, "index entry PC")?;
            if offset < prev_offset || offset >= static_offset {
                return Err(ContainerError::IndexMismatch {
                    detail: format!(
                        "block {i} offset {offset:#x} out of order or outside the block region"
                    ),
                });
            }
            if i > 0 && first_index <= prev_index {
                return Err(ContainerError::IndexMismatch {
                    detail: format!("block {i} first record index {first_index} not increasing"),
                });
            }
            if i == 0 && (offset != header_end || first_index != 0) {
                return Err(ContainerError::IndexMismatch {
                    detail: "block 0 must start at the header end with record 0".into(),
                });
            }
            prev_offset = offset;
            prev_index = first_index;
            index.push(BlockMeta {
                offset,
                first_index,
                first_pc,
                records: 0, // filled from block headers on read
            });
        }
        let total = read_u64(&mut body, "footer record total")?;
        if static_offset < header_end || static_offset >= footer_start {
            return Err(ContainerError::IndexMismatch {
                detail: format!("static-image offset {static_offset:#x} outside the file body"),
            });
        }

        // --- static image ---
        r.seek(SeekFrom::Start(static_offset))?;
        let mut section = CrcReader::new(&mut r);
        let base = section.varint("static-image base PC")?;
        let parcel_count = section.capped("static-image parcel count", MAX_STATIC_PARCELS)?;
        let payload_len = section.capped("static-image payload length", MAX_STATIC_BYTES)?;
        let mut payload = vec![0u8; payload_len as usize];
        section.bytes(&mut payload, "static-image payload")?;
        section.check("static-image checksum")?;
        let image = StaticImage::decode_payload(base, parcel_count, &payload)?;

        Ok(Self {
            r,
            name,
            entry_pc,
            image,
            index,
            total,
        })
    }

    /// The workload name stored in the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream entry PC stored in the header.
    pub fn entry_pc(&self) -> u64 {
        self.entry_pc
    }

    /// The captured static-decode image.
    pub fn image(&self) -> &StaticImage {
        &self.image
    }

    /// Total dynamic records in the trace (from the footer).
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.index.len()
    }

    /// Reads, checksums, and decodes block `i` (zero-based).
    ///
    /// # Errors
    ///
    /// [`ContainerError::BlockChecksum`] on corruption, [`ContainerError::BadRecordTag`]
    /// / [`ContainerError::BlockShape`] on malformed payloads, and I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (callers iterate `0..blocks()`).
    pub fn read_block(&mut self, i: usize) -> Result<Vec<DynInst>, ContainerError> {
        let meta = self.index[i];
        let block = i as u32;
        self.r.seek(SeekFrom::Start(meta.offset))?;
        let payload_len = read_u32(&mut self.r, "block payload length")?;
        cap(
            "block payload length",
            payload_len.into(),
            FORMAT.max_payload,
        )?;
        let record_count = read_u32(&mut self.r, "block record count")?;
        cap(
            "block record count",
            record_count.into(),
            MAX_BLOCK_RECORDS.into(),
        )?;
        let first_pc = read_u64(&mut self.r, "block first PC")?;
        let stored = read_u32(&mut self.r, "block checksum")?;
        let mut payload = vec![0u8; payload_len as usize];
        read_exact(&mut self.r, &mut payload, "block payload")?;
        let mut crc = Crc32c::new();
        crc.update(&payload_len.to_le_bytes());
        crc.update(&record_count.to_le_bytes());
        crc.update(&first_pc.to_le_bytes());
        crc.update(&payload);
        let computed = crc.finish();
        if stored != computed {
            return Err(ContainerError::BlockChecksum {
                block,
                stored,
                computed,
            });
        }
        if first_pc != meta.first_pc {
            return Err(ContainerError::IndexMismatch {
                detail: format!(
                    "block {block} header PC {first_pc:#x} disagrees with the index ({:#x})",
                    meta.first_pc
                ),
            });
        }
        decode_block(block, first_pc, record_count, &payload)
    }

    /// Streams every block once, verifying checksums, record counts, the
    /// footer index, and cross-block PC chaining — a full-file integrity
    /// pass in O(block) memory.
    ///
    /// # Errors
    ///
    /// The first [`ContainerError`] encountered.
    pub fn validate(&mut self) -> Result<(), ContainerError> {
        let mut running_total = 0u64;
        let mut expected_pc: Option<u64> = None;
        for i in 0..self.index.len() {
            let meta = self.index[i];
            if meta.first_index != running_total {
                return Err(ContainerError::IndexMismatch {
                    detail: format!(
                        "block {i} first record index {} but {} records precede it",
                        meta.first_index, running_total
                    ),
                });
            }
            let insts = self.read_block(i)?;
            if let (Some(exp), Some(first)) = (expected_pc, insts.first()) {
                if first.pc != exp {
                    return Err(ContainerError::BlockShape {
                        block: i as u32,
                        detail: format!(
                            "first PC {:#x} does not chain from the previous block ({exp:#x})",
                            first.pc
                        ),
                    });
                }
            }
            if let Some(last) = insts.last() {
                expected_pc = Some(match last.cfi {
                    Some(c) if c.taken => c.target,
                    _ => last.pc + 2,
                });
            }
            running_total += insts.len() as u64;
        }
        if running_total != self.total {
            return Err(ContainerError::IndexMismatch {
                detail: format!(
                    "footer declares {} records but blocks hold {running_total}",
                    self.total
                ),
            });
        }
        Ok(())
    }
}

/// Decodes one block payload into instructions.
fn decode_block(
    block: u32,
    first_pc: u64,
    record_count: u32,
    payload: &[u8],
) -> Result<Vec<DynInst>, ContainerError> {
    let mut out = Vec::with_capacity(record_count as usize);
    let mut pos = 0usize;
    let mut pc = first_pc;
    let mut prev_mem_addr = 0u64;
    for record in 0..record_count {
        let tag = *payload.get(pos).ok_or(ContainerError::BlockShape {
            block,
            detail: format!("payload ends inside record {record}"),
        })?;
        pos += 1;
        if tag & FLAG_RESERVED != 0 {
            return Err(ContainerError::BadRecordTag { block, record, tag });
        }
        let opcode = tag & 0x0f;
        let dep = if tag & FLAG_DEP != 0 {
            let d = *payload.get(pos).ok_or(ContainerError::BlockShape {
                block,
                detail: format!("payload ends inside record {record} dep byte"),
            })?;
            pos += 1;
            if d == 0 {
                // A zero dep with the flag set is non-canonical.
                return Err(ContainerError::BadRecordTag { block, record, tag });
            }
            d
        } else {
            0
        };
        let inst = if opcode < 8 {
            if tag & (FLAG_TAKEN | FLAG_SFB) != 0 {
                return Err(ContainerError::BadRecordTag { block, record, tag });
            }
            let op = match opcode {
                OP_INT => Op::Int,
                OP_MUL => Op::Mul,
                OP_DIV => Op::Div,
                OP_FP => Op::Fp,
                OP_LOAD | OP_STORE => {
                    let delta =
                        varint::read_i64(payload, &mut pos).ok_or(ContainerError::BadVarint {
                            what: "record memory-address delta",
                        })?;
                    let addr = prev_mem_addr.wrapping_add(delta as u64);
                    prev_mem_addr = addr;
                    if opcode == OP_LOAD {
                        Op::Load { addr }
                    } else {
                        Op::Store { addr }
                    }
                }
                _ => return Err(ContainerError::BadRecordTag { block, record, tag }),
            };
            let inst = DynInst {
                pc,
                op,
                cfi: None,
                dep,
            };
            pc += 2;
            inst
        } else {
            let kind =
                code_kind(opcode).ok_or(ContainerError::BadRecordTag { block, record, tag })?;
            let taken = tag & FLAG_TAKEN != 0;
            if kind != BranchKind::Conditional && !taken {
                return Err(ContainerError::BadRecordTag { block, record, tag });
            }
            let delta = varint::read_i64(payload, &mut pos).ok_or(ContainerError::BadVarint {
                what: "record branch-target delta",
            })?;
            let target = (pc + 2).wrapping_add(delta as u64);
            let inst = DynInst {
                pc,
                op: Op::Cfi,
                cfi: Some(CfiOutcome {
                    kind,
                    taken,
                    target,
                    sfb: tag & FLAG_SFB != 0,
                }),
                dep,
            };
            pc = if taken { target } else { pc + 2 };
            inst
        };
        out.push(inst);
    }
    if pos != payload.len() {
        return Err(ContainerError::BlockShape {
            block,
            detail: format!(
                "{} trailing bytes after the last record",
                payload.len() - pos
            ),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn cond(pc: u64, taken: bool, target: u64) -> DynInst {
        DynInst {
            pc,
            op: Op::Cfi,
            cfi: Some(CfiOutcome {
                kind: BranchKind::Conditional,
                taken,
                target,
                sfb: false,
            }),
            dep: 0,
        }
    }

    fn sample_stream() -> Vec<DynInst> {
        let mut v = Vec::new();
        let mut pc = 0x1000u64;
        for i in 0..200u64 {
            if i % 5 == 4 {
                let taken = i % 10 == 9;
                let target = if taken { 0x1000 } else { pc + 10 };
                let inst = cond(pc, taken, target);
                pc = if taken { 0x1000 } else { pc + 2 };
                v.push(inst);
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

    fn write_sample(block_records: u32) -> Vec<u8> {
        let insts = sample_stream();
        let mut buf = Vec::new();
        let mut w = CbtWriter::new(&mut buf, "sample", 0x1000).unwrap();
        w.set_records_per_block(block_records);
        for i in &insts {
            w.push(i).unwrap();
        }
        let image = StaticImage::empty();
        w.finish(&image).unwrap();
        buf
    }

    #[test]
    fn round_trips_records_across_blocks() {
        for block_records in [7u32, 64, 100_000] {
            let insts = sample_stream();
            let bytes = write_sample(block_records);
            let mut r = CbtReader::open(Cursor::new(&bytes)).unwrap();
            r.validate().unwrap();
            assert_eq!(r.name(), "sample");
            assert_eq!(r.entry_pc(), 0x1000);
            assert_eq!(r.total_records(), insts.len() as u64);
            let mut decoded = Vec::new();
            for i in 0..r.blocks() {
                decoded.extend(r.read_block(i).unwrap());
            }
            assert_eq!(decoded, insts, "block_records={block_records}");
        }
    }

    #[test]
    fn static_image_round_trips() {
        let parcels = vec![
            StaticInst::filler(),
            StaticInst {
                op: Op::Load { addr: 0x1000_0000 },
                cfi_kind: None,
                target: None,
            },
            StaticInst {
                op: Op::Cfi,
                cfi_kind: Some(BranchKind::Conditional),
                target: Some(0x2000),
            },
            StaticInst {
                op: Op::Cfi,
                cfi_kind: Some(BranchKind::Ret),
                target: None,
            },
            StaticInst {
                op: Op::Mul,
                cfi_kind: None,
                target: None,
            },
        ];
        let image = StaticImage {
            base: 0x4000,
            parcels: parcels.clone(),
        };
        let payload = image.encode_payload();
        let back = StaticImage::decode_payload(0x4000, parcels.len() as u64, &payload).unwrap();
        assert_eq!(back, image);
        assert_eq!(back.lookup(0x4004).cfi_kind, Some(BranchKind::Conditional));
        assert_eq!(back.lookup(0x4003), StaticInst::filler()); // odd
        assert_eq!(back.lookup(0x3ffe), StaticInst::filler()); // below base
        assert_eq!(back.lookup(0x400a), StaticInst::filler()); // past end
    }

    #[test]
    fn probe_trims_trailing_filler() {
        let look = |pc: u64| {
            if pc == 0x1004 {
                StaticInst {
                    op: Op::Cfi,
                    cfi_kind: Some(BranchKind::Jump),
                    target: Some(0x1000),
                }
            } else {
                StaticInst::filler()
            }
        };
        let image = StaticImage::probe(0x1000, 0x1000, 0x1004, look);
        assert_eq!(image.base(), 0x1000);
        assert_eq!(image.parcels(), 3);
        assert_eq!(image.lookup(0x1004).cfi_kind, Some(BranchKind::Jump));
    }

    #[test]
    fn writer_rejects_inconsistent_instructions() {
        let mut w = CbtWriter::new(Vec::new(), "x", 0).unwrap();
        let bad = DynInst {
            pc: 0,
            op: Op::Cfi,
            cfi: None,
            dep: 0,
        };
        assert!(matches!(
            w.push(&bad),
            Err(ContainerError::Unencodable { .. })
        ));
        let not_taken_jump = DynInst {
            pc: 0,
            op: Op::Cfi,
            cfi: Some(CfiOutcome {
                kind: BranchKind::Jump,
                taken: false,
                target: 8,
                sfb: false,
            }),
            dep: 0,
        };
        assert!(matches!(
            w.push(&not_taken_jump),
            Err(ContainerError::Unencodable { .. })
        ));
    }

    #[test]
    fn writer_rejects_disconnected_pcs() {
        let mut w = CbtWriter::new(Vec::new(), "x", 0).unwrap();
        w.push(&DynInst::int(0x1000)).unwrap();
        let err = w.push(&DynInst::int(0x2000)).unwrap_err();
        assert!(matches!(err, ContainerError::Unencodable { .. }), "{err}");
    }

    #[test]
    fn block_corruption_names_the_block() {
        let insts = sample_stream();
        let mut buf = Vec::new();
        let mut w = CbtWriter::new(&mut buf, "sample", 0x1000).unwrap();
        w.set_records_per_block(50);
        for i in &insts {
            w.push(i).unwrap();
        }
        w.finish(&StaticImage::empty()).unwrap();
        let r = CbtReader::open(Cursor::new(buf.clone())).unwrap();
        assert!(r.blocks() >= 3);
        // Corrupt a byte inside block 2's payload.
        let off = {
            let mut r2 = CbtReader::open(Cursor::new(buf.clone())).unwrap();
            let _ = r2.read_block(2).unwrap();
            // Block 2's payload starts after its fixed header.
            r.index_offset_for_test(2) + BLOCK_HEADER_BYTES
        };
        let mut bad = buf;
        bad[off as usize] ^= 0xff;
        let mut r = CbtReader::open(Cursor::new(bad)).unwrap();
        match r.read_block(2) {
            Err(ContainerError::BlockChecksum { block: 2, .. }) => {}
            other => panic!("expected BlockChecksum for block 2, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_precise() {
        let e = ContainerError::BlockChecksum {
            block: 3,
            stored: 0xdead_beef,
            computed: 0x1234_5678,
        };
        let s = e.to_string();
        assert!(s.contains("block 3"), "{s}");
        assert!(s.contains("0xdeadbeef"), "{s}");
        assert!(ContainerError::BadMagic(&FORMAT)
            .to_string()
            .contains("COBRACBT"));
    }

    impl<R: Read + Seek> CbtReader<R> {
        fn index_offset_for_test(&self, i: usize) -> u64 {
            self.index[i].offset
        }
    }
}
