//! The container frame shared by the four COBRA binary formats: `.cbt`
//! traces, `.cbs` checkpoints, `.cbm` interval metrics and `.cbr`
//! served results.
//!
//! Every file opens with a 12-byte prefix — an 8-byte magic (`COBRA`
//! plus the format name), a `u16` version and a `u16` flags word, all
//! little-endian — followed by format-specific header fields and a
//! CRC-32C over every header byte. Header strings are varint
//! length-prefixed UTF-8 capped at [`MAX_NAME_BYTES`]. `.cbs`, `.cbm`
//! and `.cbr` write the same [`Identity`] head first and then carry a
//! single payload frame: a `u32` length (capped per [`Format`]), the
//! payload, a CRC-32C over the length bytes plus the payload, the
//! footer magic, and end of file. `.cbt` keeps its own block,
//! static-image and index-footer layout but reads and writes its header
//! through the same helpers.
//!
//! Caps apply on write as well as on read, so a writer never produces a
//! file its own reader refuses. The normative specification is
//! `docs/CONTAINER_FORMAT.md` at the repository root.

use crate::{varint, Crc32c, SnapError};
use std::fmt;
use std::io::{self, Read, Write};

/// Cap on any length-prefixed string, on write and on read.
pub const MAX_NAME_BYTES: u64 = 4096;

/// The fixed framing constants of one container format.
#[derive(Debug, PartialEq, Eq)]
pub struct Format {
    /// Three-letter format name, e.g. `CBS`.
    pub name: &'static str,
    /// The first 8 bytes of every file: `COBRA` plus [`Self::name`].
    pub magic: [u8; 8],
    /// The last 4 bytes of every file.
    pub footer_magic: [u8; 4],
    /// The only version this implementation reads and writes.
    pub version: u16,
    /// Cap on one CRC-framed payload (a `.cbt` block payload).
    pub max_payload: u64,
}

/// Everything that can go wrong reading or writing a container. Decode
/// errors name the structure or identity field at fault, so a stale or
/// corrupted file is diagnosable and never silently misread.
#[derive(Debug)]
pub enum ContainerError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the format's magic.
    BadMagic(&'static Format),
    /// The file does not end with the format's footer magic.
    BadFooterMagic,
    /// The file's version is not the one this implementation supports.
    UnsupportedVersion {
        /// The format being read.
        format: &'static Format,
        /// The version stored in the file.
        got: u16,
    },
    /// The header flags word has bits this implementation does not know.
    UnsupportedFlags(u16),
    /// The file ended (or a declared length ran out) while reading the
    /// named structure.
    Truncated {
        /// Which structure was being read.
        what: &'static str,
    },
    /// A declared size exceeds the format's hard limits — either corrupt
    /// or hostile; never allocated, and never written.
    LimitExceeded {
        /// Which declared quantity is over limit.
        what: &'static str,
        /// The declared value.
        got: u64,
        /// The maximum the format accepts.
        max: u64,
    },
    /// A section's CRC-32C does not match its bytes.
    Checksum {
        /// Which checksum: `header checksum`, `payload checksum`,
        /// `static-image checksum` or `footer checksum`.
        what: &'static str,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// A varint field is truncated or over-long.
    BadVarint {
        /// Which structure was being read.
        what: &'static str,
    },
    /// A string field is not valid UTF-8.
    BadName {
        /// Which string was being read.
        what: &'static str,
    },
    /// Bytes remain after the footer magic.
    TrailingBytes {
        /// How many bytes follow the footer.
        count: u64,
    },
    /// The file was written for a different experiment than expected.
    IdentityMismatch {
        /// Which identity field differs.
        field: &'static str,
        /// The value stored in the file.
        stored: String,
        /// The value the caller expected.
        expected: String,
    },
    /// The payload decoded but is semantically inconsistent, or a value
    /// handed to a writer cannot be represented.
    Malformed {
        /// What was inconsistent.
        what: &'static str,
    },
    /// A `.cbs` state payload failed to decode into the core.
    State(SnapError),
    /// A `.cbt` block's CRC-32C does not match its header and payload.
    BlockChecksum {
        /// Zero-based block number.
        block: u32,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// A `.cbt` record tag byte is malformed (unknown opcode, reserved
    /// bit set, or flags illegal for its opcode).
    BadRecordTag {
        /// Zero-based block number.
        block: u32,
        /// Record index within the block.
        record: u32,
        /// The offending tag byte.
        tag: u8,
    },
    /// A `.cbt` block decoded to a different record count than declared,
    /// left undecoded payload bytes, or does not chain from its
    /// predecessor.
    BlockShape {
        /// Zero-based block number.
        block: u32,
        /// Description of the mismatch.
        detail: String,
    },
    /// The `.cbt` footer index disagrees with the blocks present.
    IndexMismatch {
        /// Description of the disagreement.
        detail: String,
    },
    /// The `.cbt` static image decoded to the wrong parcel count or left
    /// trailing bytes.
    StaticShape {
        /// Description of the mismatch.
        detail: String,
    },
    /// An instruction cannot be represented in `.cbt`: a control-flow/op
    /// mismatch, a not-taken unconditional, or a PC that does not follow
    /// from the previous record.
    Unencodable {
        /// The instruction's PC.
        pc: u64,
        /// Why it cannot be encoded.
        detail: String,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn crc(
            f: &mut fmt::Formatter<'_>,
            what: &str,
            stored: &u32,
            computed: &u32,
        ) -> fmt::Result {
            write!(
                f,
                "{what} mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )
        }
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic(format) => write!(
                f,
                "not a {} file (bad magic; expected `COBRA{}`)",
                format.name, format.name
            ),
            Self::BadFooterMagic => write!(f, "bad footer magic (file truncated or not finalized)"),
            Self::UnsupportedVersion { format, got } => write!(
                f,
                "unsupported {} version {got} (this reader supports {})",
                format.name, format.version
            ),
            Self::UnsupportedFlags(bits) => {
                write!(
                    f,
                    "unsupported header flags {bits:#06x} (reserved bits set)"
                )
            }
            Self::Truncated { what } => write!(f, "file truncated while reading {what}"),
            Self::LimitExceeded { what, got, max } => {
                write!(f, "{what} = {got} exceeds the format limit of {max}")
            }
            Self::Checksum {
                what,
                stored,
                computed,
            } => crc(f, what, stored, computed),
            Self::BadVarint { what } => write!(f, "truncated or over-long varint in {what}"),
            Self::BadName { what } => write!(f, "{what} is not valid UTF-8"),
            Self::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the footer magic")
            }
            Self::IdentityMismatch {
                field,
                stored,
                expected,
            } => write!(f, "file is for {field} `{stored}`, not `{expected}`"),
            Self::Malformed { what } => write!(f, "malformed payload: {what}"),
            Self::State(e) => write!(f, "state payload: {e}"),
            Self::BlockChecksum {
                block,
                stored,
                computed,
            } => crc(f, &format!("block {block} checksum"), stored, computed),
            Self::BadRecordTag { block, record, tag } => write!(
                f,
                "block {block} record {record}: malformed tag byte {tag:#04x}"
            ),
            Self::BlockShape { block, detail } => write!(f, "block {block}: {detail}"),
            Self::IndexMismatch { detail } => write!(f, "footer index mismatch: {detail}"),
            Self::StaticShape { detail } => write!(f, "static image: {detail}"),
            Self::Unencodable { pc, detail } => {
                write!(f, "instruction at {pc:#x} cannot be encoded: {detail}")
            }
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<SnapError> for ContainerError {
    fn from(e: SnapError) -> Self {
        Self::State(e)
    }
}

/// Returns `got` if it is within `max`, else [`ContainerError::LimitExceeded`].
/// Writers and readers check every capped quantity through this.
pub fn cap(what: &'static str, got: u64, max: u64) -> Result<u64, ContainerError> {
    if got > max {
        return Err(ContainerError::LimitExceeded { what, got, max });
    }
    Ok(got)
}

/// Fails with [`ContainerError::IdentityMismatch`] naming `field` unless
/// `stored == expected`.
pub fn check_field<T: PartialEq + fmt::Display>(
    field: &'static str,
    stored: T,
    expected: T,
) -> Result<(), ContainerError> {
    if stored != expected {
        return Err(ContainerError::IdentityMismatch {
            field,
            stored: stored.to_string(),
            expected: expected.to_string(),
        });
    }
    Ok(())
}

/// The identity head `.cbs`, `.cbm` and `.cbr` write first, in this
/// field order: which design, configuration and workload produced the
/// file. `S` is `String` when read from a file and `&str` when borrowed
/// from a caller's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity<S = String> {
    /// Design name (e.g. `"TAGE-L"`).
    pub design: S,
    /// Topology string in the paper's notation.
    pub topology: S,
    /// FNV-1a hash over the full design and core configuration.
    pub config_hash: u64,
    /// Workload name.
    pub workload: S,
}

impl<S: AsRef<str>> Identity<S> {
    /// Compares this (stored) identity with `expected` field by field;
    /// `IdentityMismatch` names the first field that differs.
    pub fn check<T: AsRef<str>>(&self, expected: &Identity<T>) -> Result<(), ContainerError> {
        check_field("design", self.design.as_ref(), expected.design.as_ref())?;
        check_field(
            "topology",
            self.topology.as_ref(),
            expected.topology.as_ref(),
        )?;
        check_field(
            "config hash",
            format!("{:#018x}", self.config_hash),
            format!("{:#018x}", expected.config_hash),
        )?;
        check_field(
            "workload",
            self.workload.as_ref(),
            expected.workload.as_ref(),
        )
    }
}

// ------------------------------------------------------------------ writing

/// Starts a header: the 12-byte magic/version/flags prefix. Append the
/// format's fields, then write it with [`write_section`].
pub fn begin_header(format: &Format) -> Vec<u8> {
    let mut h = Vec::with_capacity(96);
    h.extend_from_slice(&format.magic);
    h.extend_from_slice(&format.version.to_le_bytes());
    h.extend_from_slice(&0u16.to_le_bytes());
    h
}

/// Appends a varint length-prefixed string; `LimitExceeded` if it is
/// over [`MAX_NAME_BYTES`].
pub fn put_str(out: &mut Vec<u8>, what: &'static str, s: &str) -> Result<(), ContainerError> {
    varint::write_u64(out, cap(what, s.len() as u64, MAX_NAME_BYTES)?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Appends the identity head; `LimitExceeded` if a name is over
/// [`MAX_NAME_BYTES`].
pub fn put_identity<S: AsRef<str>>(
    out: &mut Vec<u8>,
    id: &Identity<S>,
) -> Result<(), ContainerError> {
    put_str(out, "header design name", id.design.as_ref())?;
    put_str(out, "header topology", id.topology.as_ref())?;
    out.extend_from_slice(&id.config_hash.to_le_bytes());
    put_str(out, "header workload name", id.workload.as_ref())
}

/// Writes `bytes` — a header, or a `.cbt` static image or footer —
/// followed by their CRC-32C, and returns the bytes written. The reading
/// side is [`CrcReader`].
pub fn write_section<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<u64> {
    w.write_all(bytes)?;
    w.write_all(&crate::crc32c(bytes).to_le_bytes())?;
    Ok(bytes.len() as u64 + 4)
}

/// Writes a complete single-payload file — `header` and its CRC, the
/// payload frame, the footer magic — and returns the bytes written.
/// A payload over the format's cap is `LimitExceeded`, and nothing is
/// written.
pub fn write_frame<W: Write>(
    mut w: W,
    format: &Format,
    header: &[u8],
    payload: &[u8],
) -> Result<u64, ContainerError> {
    let len = cap("payload length", payload.len() as u64, format.max_payload)? as u32;
    let mut crc = Crc32c::new();
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    let n = write_section(&mut w, header)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc.finish().to_le_bytes())?;
    w.write_all(&format.footer_magic)?;
    w.flush()?;
    Ok(n + 4 + u64::from(len) + 4 + 4)
}

// ------------------------------------------------------------------ reading

/// Fills `buf`; end of file is `Truncated { what }`.
pub fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), ContainerError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ContainerError::Truncated { what }
        } else {
            ContainerError::Io(e)
        }
    })
}

/// Reads a little-endian `u32`; errors as [`read_exact`].
pub fn read_u32<R: Read>(r: &mut R, what: &'static str) -> Result<u32, ContainerError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`; errors as [`read_exact`].
pub fn read_u64<R: Read>(r: &mut R, what: &'static str) -> Result<u64, ContainerError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

/// Decodes a varint from an in-memory payload at `*pos`; `BadVarint`
/// if it is cut short or over-long.
pub fn take_varint(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, ContainerError> {
    varint::read_u64(buf, pos).ok_or(ContainerError::BadVarint { what })
}

/// Decodes a varint length-prefixed string from an in-memory payload:
/// `BadVarint`, `LimitExceeded` (over [`MAX_NAME_BYTES`]), `Truncated`,
/// or `BadName` (not UTF-8).
pub fn take_str(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<String, ContainerError> {
    let len = cap(what, take_varint(buf, pos, what)?, MAX_NAME_BYTES)? as usize;
    let bytes = buf
        .get(*pos..*pos + len)
        .ok_or(ContainerError::Truncated { what })?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).map_err(|_| ContainerError::BadName { what })
}

/// Reads fields from a stream while a CRC-32C accumulates over their
/// bytes — a header, a payload frame, or a `.cbt` static image or footer
/// — then checks the stored checksum that follows them ([`Self::check`]).
/// The writing side is [`write_section`].
#[derive(Debug)]
pub struct CrcReader<'r, R> {
    r: &'r mut R,
    crc: Crc32c,
    len: u64,
    /// The first string that was not UTF-8. Reported only after the
    /// checksum passes, so a flipped bit reads as a checksum error.
    bad_name: Option<&'static str>,
}

impl<'r, R: Read> CrcReader<'r, R> {
    /// Starts a checksummed section at the stream's current position.
    pub fn new(r: &'r mut R) -> Self {
        Self {
            r,
            crc: Crc32c::new(),
            len: 0,
            bad_name: None,
        }
    }

    /// Fills `buf`; errors as [`read_exact`].
    pub fn bytes(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), ContainerError> {
        read_exact(self.r, buf, what)?;
        self.crc.update(buf);
        self.len += buf.len() as u64;
        Ok(())
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        let mut b = [0u8; 8];
        self.bytes(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a varint one byte at a time: `Truncated`, or `BadVarint`
    /// past 10 bytes.
    pub fn varint(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        let mut buf = [0u8; varint::MAX_VARINT_LEN];
        for i in 0..buf.len() {
            self.bytes(&mut buf[i..=i], what)?;
            if buf[i] & 0x80 == 0 {
                return take_varint(&buf[..=i], &mut 0, what);
            }
        }
        Err(ContainerError::BadVarint { what })
    }

    /// Reads a varint and checks it against `max` (`LimitExceeded`).
    pub fn capped(&mut self, what: &'static str, max: u64) -> Result<u64, ContainerError> {
        cap(what, self.varint(what)?, max)
    }

    /// Reads a varint length-prefixed string capped at
    /// [`MAX_NAME_BYTES`]. A string that is not UTF-8 fails at
    /// [`Self::check`], after the checksum.
    pub fn string(&mut self, what: &'static str) -> Result<String, ContainerError> {
        let mut buf = vec![0u8; self.capped(what, MAX_NAME_BYTES)? as usize];
        self.bytes(&mut buf, what)?;
        String::from_utf8(buf).or_else(|e| {
            self.bad_name.get_or_insert(what);
            Ok(String::from_utf8_lossy(e.as_bytes()).into_owned())
        })
    }

    /// Reads the identity head.
    pub fn identity(&mut self) -> Result<Identity, ContainerError> {
        Ok(Identity {
            design: self.string("header design name")?,
            topology: self.string("header topology")?,
            config_hash: self.u64("header config hash")?,
            workload: self.string("header workload name")?,
        })
    }

    /// Reads the stored CRC-32C that ends the section (`what`, e.g.
    /// `header checksum`) and compares it with the bytes read, then
    /// reports a non-UTF-8 string (`BadName`). Returns the section
    /// length, checksum included.
    pub fn check(self, what: &'static str) -> Result<u64, ContainerError> {
        let stored = read_u32(self.r, what)?;
        let computed = self.crc.finish();
        if stored != computed {
            return Err(ContainerError::Checksum {
                what,
                stored,
                computed,
            });
        }
        match self.bad_name {
            Some(what) => Err(ContainerError::BadName { what }),
            None => Ok(self.len + 4),
        }
    }
}

/// Reads and validates the 12-byte prefix — magic, then version, then
/// flags, each before the header checksum so an old reader fails with the
/// actionable error — and returns a reader positioned at the first
/// format-specific header field. Finish with `check("header checksum")`.
pub fn read_header<'r, R: Read>(
    r: &'r mut R,
    format: &'static Format,
) -> Result<CrcReader<'r, R>, ContainerError> {
    let mut h = CrcReader::new(r);
    let mut prefix = [0u8; 12];
    h.bytes(&mut prefix, "header")?;
    if prefix[..8] != format.magic {
        return Err(ContainerError::BadMagic(format));
    }
    let got = u16::from_le_bytes([prefix[8], prefix[9]]);
    if got != format.version {
        return Err(ContainerError::UnsupportedVersion { format, got });
    }
    let flags = u16::from_le_bytes([prefix[10], prefix[11]]);
    if flags != 0 {
        return Err(ContainerError::UnsupportedFlags(flags));
    }
    Ok(h)
}

/// Reads the single-payload frame that follows a header: the capped
/// `u32` length, the payload (one allocation), its CRC-32C, the footer
/// magic, and end of stream (`TrailingBytes` otherwise).
pub fn read_payload<R: Read>(r: &mut R, format: &Format) -> Result<Vec<u8>, ContainerError> {
    let mut frame = CrcReader::new(r);
    let mut len = [0u8; 4];
    frame.bytes(&mut len, "payload length")?;
    let n = cap(
        "payload length",
        u32::from_le_bytes(len).into(),
        format.max_payload,
    )?;
    let mut payload = vec![0u8; n as usize];
    frame.bytes(&mut payload, "payload")?;
    frame.check("payload checksum")?;
    let mut footer = [0u8; 4];
    read_exact(r, &mut footer, "footer magic")?;
    if footer != format.footer_magic {
        return Err(ContainerError::BadFooterMagic);
    }
    let count = io::copy(r, &mut io::sink())?;
    if count != 0 {
        return Err(ContainerError::TrailingBytes { count });
    }
    Ok(payload)
}
