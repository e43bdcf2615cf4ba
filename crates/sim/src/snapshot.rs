//! Structured state serialization for warm-state checkpoints.
//!
//! The COBRA Binary Snapshot (`.cbs`) format captures a composed
//! pipeline's *complete* warm state — every component table, the history
//! file, the history providers, the host core — so a grid run can restore
//! at the warmup boundary instead of re-simulating it. The container
//! framing (magic, version, CRC-32C) lives in `cobra_uarch::checkpoint`;
//! this module provides the *payload* discipline every layer shares:
//!
//! * [`StateWriter`] — an infallible, append-only encoder. Every field is
//!   written with a one-byte type tag followed by a varint payload, and
//!   fields are grouped into named *sections* whose field counts are
//!   recorded in the stream.
//! * [`StateReader`] — the strict mirror. Every read validates the type
//!   tag, every `open_section` validates the section name, and every
//!   `close_section` compares the number of fields *read* against the
//!   number *written*. A component that skips a field — or reads one it
//!   never wrote — fails loudly, never silently misinterprets downstream
//!   bytes.
//! * [`Snapshot`] — the save/load trait implemented by every stateful
//!   simulation structure.
//!
//! Writers are infallible (they only append to a `Vec<u8>`); readers are
//! fallible, returning the [`ContainerError`] that describes the first
//! inconsistency encountered. That is the containers' one error type;
//! `TagMismatch`, `SectionName`, `FieldCount`, `BadValue` and `Shape` are
//! its state-only variants.

use crate::container::ContainerError;
use crate::varint;

/// Type tag for an unsigned varint field.
const TAG_U64: u8 = 0xD1;
/// Type tag for a ZigZag-folded signed varint field.
const TAG_I64: u8 = 0xD2;
/// Type tag for a boolean field (one payload byte, `0` or `1`).
const TAG_BOOL: u8 = 0xD3;
/// Type tag for a length-prefixed byte-string field.
const TAG_BYTES: u8 = 0xD4;
/// Type tag opening a named section.
const TAG_SEC_BEGIN: u8 = 0xD5;
/// Type tag closing a section (followed by the written field count).
const TAG_SEC_END: u8 = 0xD6;

/// Longest section name the reader will accept.
const MAX_NAME_LEN: usize = 128;

/// The infallible structured encoder for snapshot state.
///
/// Fields are type-tagged and grouped into named sections; the written
/// field count of each section is recorded so [`StateReader`] can verify
/// that the loader consumed exactly what the saver produced.
///
/// # Examples
///
/// ```
/// use cobra_sim::{StateReader, StateWriter};
///
/// let mut w = StateWriter::new();
/// w.begin_section("demo");
/// w.write_u64(7);
/// w.write_bool(true);
/// w.end_section();
/// let bytes = w.finish();
///
/// let mut r = StateReader::new(&bytes);
/// r.open_section("demo").unwrap();
/// assert_eq!(r.read_u64("seven").unwrap(), 7);
/// assert!(r.read_bool("flag").unwrap());
/// r.close_section().unwrap();
/// r.finish().unwrap();
/// ```
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
    /// Field counts: index 0 is the root scope, deeper entries are open
    /// sections (innermost last).
    counts: Vec<u64>,
}

impl StateWriter {
    /// A fresh writer with no open sections.
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            counts: vec![0],
        }
    }

    fn bump(&mut self) {
        *self.counts.last_mut().expect("root scope always present") += 1;
    }

    /// Writes an unsigned integer field.
    pub fn write_u64(&mut self, v: u64) {
        self.bump();
        self.buf.push(TAG_U64);
        varint::write_u64(&mut self.buf, v);
    }

    /// Writes a signed integer field (ZigZag-folded).
    pub fn write_i64(&mut self, v: i64) {
        self.bump();
        self.buf.push(TAG_I64);
        varint::write_i64(&mut self.buf, v);
    }

    /// Writes a boolean field.
    pub fn write_bool(&mut self, v: bool) {
        self.bump();
        self.buf.push(TAG_BOOL);
        self.buf.push(v as u8);
    }

    /// Writes a length-prefixed byte-string field.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.bump();
        self.buf.push(TAG_BYTES);
        varint::write_u64(&mut self.buf, v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a string field (UTF-8 bytes).
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Opens a named section. The section counts as one field of its
    /// parent scope.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than the reader's cap — a
    /// programming error in the saver, not a data error.
    pub fn begin_section(&mut self, name: &str) {
        assert!(
            !name.is_empty() && name.len() <= MAX_NAME_LEN,
            "section name {name:?} out of range"
        );
        self.bump();
        self.buf.push(TAG_SEC_BEGIN);
        varint::write_u64(&mut self.buf, name.len() as u64);
        self.buf.extend_from_slice(name.as_bytes());
        self.counts.push(0);
    }

    /// Closes the innermost open section, recording its field count.
    ///
    /// # Panics
    ///
    /// Panics if no section is open.
    pub fn end_section(&mut self) {
        assert!(self.counts.len() > 1, "end_section without begin_section");
        let n = self.counts.pop().expect("checked above");
        self.buf.push(TAG_SEC_END);
        varint::write_u64(&mut self.buf, n);
    }

    /// Finishes encoding and returns the byte stream.
    ///
    /// # Panics
    ///
    /// Panics if any section is still open — a saver that forgets an
    /// `end_section` must fail at save time, not at restore time.
    pub fn finish(self) -> Vec<u8> {
        assert!(
            self.counts.len() == 1,
            "{} section(s) left open at finish",
            self.counts.len() - 1
        );
        self.buf
    }

    /// Bytes encoded so far (all sections included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The strict structured decoder mirroring [`StateWriter`].
///
/// See the example on [`StateWriter`].
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Open scopes: `(section name, fields read so far)`. Index 0 is the
    /// root scope (name unused).
    scopes: Vec<(String, u64)>,
}

impl<'a> StateReader<'a> {
    /// A reader over an encoded snapshot payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            scopes: vec![(String::new(), 0)],
        }
    }

    fn bump(&mut self) {
        self.scopes.last_mut().expect("root scope always present").1 += 1;
    }

    fn take_tag(&mut self, expected: u8, label: &'static str) -> Result<(), ContainerError> {
        let at = self.pos;
        let got = *self
            .buf
            .get(self.pos)
            .ok_or(ContainerError::Truncated { what: label })?;
        if got != expected {
            return Err(ContainerError::TagMismatch {
                expected: label,
                got,
                at,
            });
        }
        self.pos += 1;
        Ok(())
    }

    fn varint_u64(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        varint::read_u64(self.buf, &mut self.pos).ok_or(ContainerError::BadVarint { what })
    }

    /// Reads an unsigned integer field; `what` names it in errors.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        self.take_tag(TAG_U64, what)?;
        let v = self.varint_u64(what)?;
        self.bump();
        Ok(v)
    }

    /// Reads a signed integer field; `what` names it in errors.
    pub fn read_i64(&mut self, what: &'static str) -> Result<i64, ContainerError> {
        self.take_tag(TAG_I64, what)?;
        let v =
            varint::read_i64(self.buf, &mut self.pos).ok_or(ContainerError::BadVarint { what })?;
        self.bump();
        Ok(v)
    }

    /// Reads a boolean field, rejecting payload bytes other than 0 or 1.
    pub fn read_bool(&mut self, what: &'static str) -> Result<bool, ContainerError> {
        self.take_tag(TAG_BOOL, what)?;
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ContainerError::Truncated { what })?;
        self.pos += 1;
        if b > 1 {
            return Err(ContainerError::BadValue {
                what,
                got: u64::from(b),
            });
        }
        self.bump();
        Ok(b == 1)
    }

    /// Reads an unsigned integer field and enforces `v <= max`.
    pub fn read_u64_capped(&mut self, what: &'static str, max: u64) -> Result<u64, ContainerError> {
        let v = self.read_u64(what)?;
        if v > max {
            return Err(ContainerError::LimitExceeded { what, got: v, max });
        }
        Ok(v)
    }

    /// Reads a byte-string field of at most `max` bytes.
    pub fn read_bytes(
        &mut self,
        what: &'static str,
        max: usize,
    ) -> Result<&'a [u8], ContainerError> {
        self.take_tag(TAG_BYTES, what)?;
        let len = self.varint_u64(what)?;
        if len > max as u64 {
            return Err(ContainerError::LimitExceeded {
                what,
                got: len,
                max: max as u64,
            });
        }
        let len = len as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ContainerError::Truncated { what })?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        self.bump();
        Ok(bytes)
    }

    /// Reads a UTF-8 string field of at most `max` bytes.
    pub fn read_str(&mut self, what: &'static str, max: usize) -> Result<String, ContainerError> {
        let bytes = self.read_bytes(what, max)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ContainerError::BadName { what })
    }

    /// Opens a section, validating its stored name equals `name`.
    pub fn open_section(&mut self, name: &str) -> Result<(), ContainerError> {
        self.take_tag(TAG_SEC_BEGIN, "section begin")?;
        let len = self.varint_u64("section name length")?;
        if len == 0 || len > MAX_NAME_LEN as u64 {
            return Err(ContainerError::LimitExceeded {
                what: "section name length",
                got: len,
                max: MAX_NAME_LEN as u64,
            });
        }
        let len = len as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ContainerError::Truncated {
                what: "section name",
            })?;
        let got = String::from_utf8_lossy(&self.buf[self.pos..end]).into_owned();
        self.pos = end;
        if got != name {
            return Err(ContainerError::SectionName {
                expected: name.to_string(),
                got,
            });
        }
        self.bump();
        self.scopes.push((got, 0));
        Ok(())
    }

    /// Closes the innermost open section, verifying the reader consumed
    /// exactly as many fields as the writer produced.
    ///
    /// # Panics
    ///
    /// Panics if no section is open — mismatched open/close pairs are a
    /// programming error in the loader, not a data error.
    pub fn close_section(&mut self) -> Result<(), ContainerError> {
        assert!(self.scopes.len() > 1, "close_section without open_section");
        self.take_tag(TAG_SEC_END, "section end")?;
        let wrote = self.varint_u64("section field count")?;
        let (section, read) = self.scopes.pop().expect("checked above");
        if wrote != read {
            return Err(ContainerError::FieldCount {
                section,
                wrote,
                read,
            });
        }
        Ok(())
    }

    /// Finishes decoding, rejecting unread trailing bytes.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open (loader bug).
    pub fn finish(self) -> Result<(), ContainerError> {
        assert!(
            self.scopes.len() == 1,
            "{} section(s) left open at finish",
            self.scopes.len() - 1
        );
        if self.pos != self.buf.len() {
            return Err(ContainerError::TrailingBytes {
                what: "state payload",
                count: (self.buf.len() - self.pos) as u64,
            });
        }
        Ok(())
    }

    /// Current byte offset (for diagnostics).
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Full-state save/restore for a stateful simulation structure.
///
/// `save_state` must write *every* field that influences future behavior;
/// `load_state` must consume exactly those fields. The section field-count
/// check in [`StateReader::close_section`] turns any save/load asymmetry
/// into a hard [`ContainerError::FieldCount`] instead of silent corruption.
pub trait Snapshot {
    /// Serializes the complete state into `w`.
    fn save_state(&self, w: &mut StateWriter);
    /// Restores the complete state from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] if the stream is malformed or does not fit
    /// this structure's shape. On error the structure may be partially
    /// restored and must not be used further.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_field_types() {
        let mut w = StateWriter::new();
        w.begin_section("outer");
        w.write_u64(u64::MAX);
        w.write_i64(-12345);
        w.write_bool(false);
        w.write_bytes(b"\x00\xffpayload");
        w.write_str("name");
        w.begin_section("inner");
        w.write_u64(0);
        w.end_section();
        w.end_section();
        let bytes = w.finish();

        let mut r = StateReader::new(&bytes);
        r.open_section("outer").unwrap();
        assert_eq!(r.read_u64("a").unwrap(), u64::MAX);
        assert_eq!(r.read_i64("b").unwrap(), -12345);
        assert!(!r.read_bool("c").unwrap());
        assert_eq!(r.read_bytes("d", 64).unwrap(), b"\x00\xffpayload");
        assert_eq!(r.read_str("e", 64).unwrap(), "name");
        r.open_section("inner").unwrap();
        assert_eq!(r.read_u64("f").unwrap(), 0);
        r.close_section().unwrap();
        r.close_section().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn skipped_field_is_detected() {
        let mut w = StateWriter::new();
        w.begin_section("s");
        w.write_u64(1);
        w.write_u64(2);
        w.end_section();
        let bytes = w.finish();

        // A loader that over-reads trips the tag check: the section-end
        // tag appears where it expects a third u64.
        let mut r = StateReader::new(&bytes);
        r.open_section("s").unwrap();
        assert_eq!(r.read_u64("one").unwrap(), 1);
        assert_eq!(r.read_u64("two").unwrap(), 2);
        assert!(matches!(
            r.read_u64("three"),
            Err(ContainerError::TagMismatch { .. })
        ));

        // A loader that stops early also trips the tag check (a u64 tag
        // where it expects the section end) — the asymmetry cannot pass.
        let mut r = StateReader::new(&bytes);
        r.open_section("s").unwrap();
        assert_eq!(r.read_u64("one").unwrap(), 1);
        // Skip directly to close: tag mismatch (u64 tag where section-end
        // expected) — either way the asymmetry cannot pass silently.
        assert!(matches!(
            r.close_section(),
            Err(ContainerError::TagMismatch { .. })
        ));
    }

    #[test]
    fn field_count_mismatch_is_precise() {
        // Hand-build a stream whose recorded count disagrees with its
        // actual fields.
        let mut w = StateWriter::new();
        w.begin_section("s");
        w.write_u64(1);
        w.end_section();
        let mut bytes = w.finish();
        // The trailing varint is the count (1); forge it to 2.
        let last = bytes.len() - 1;
        bytes[last] = 2;
        let mut r = StateReader::new(&bytes);
        r.open_section("s").unwrap();
        r.read_u64("one").unwrap();
        assert!(matches!(
            r.close_section(),
            Err(ContainerError::FieldCount {
                section,
                wrote: 2,
                read: 1
            }) if section == "s"
        ));
    }

    #[test]
    fn wrong_section_name_is_rejected() {
        let mut w = StateWriter::new();
        w.begin_section("alpha");
        w.end_section();
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(
            r.open_section("beta"),
            Err(ContainerError::SectionName { expected, got })
                if expected == "beta" && got == "alpha"
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = StateWriter::new();
        w.write_u64(9);
        let mut bytes = w.finish();
        bytes.push(0x00);
        let mut r = StateReader::new(&bytes);
        r.read_u64("v").unwrap();
        assert!(matches!(
            r.finish(),
            Err(ContainerError::TrailingBytes {
                what: "state payload",
                count: 1
            })
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let mut w = StateWriter::new();
        w.begin_section("s");
        w.write_u64(300);
        w.write_bool(true);
        w.write_bytes(b"abcdef");
        w.end_section();
        let bytes = w.finish();
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            let mut r = StateReader::new(cut);
            let res = r
                .open_section("s")
                .and_then(|_| r.read_u64("a"))
                .and_then(|_| r.read_bool("b"))
                .and_then(|_| r.read_bytes("c", 16).map(|_| ()))
                .and_then(|_| r.close_section())
                .and_then(|_| r.finish());
            assert!(res.is_err(), "truncation to {len} bytes was accepted");
        }
    }

    #[test]
    fn bool_payload_is_validated() {
        let mut w = StateWriter::new();
        w.write_bool(true);
        let mut bytes = w.finish();
        *bytes.last_mut().unwrap() = 7;
        let mut r = StateReader::new(&bytes);
        assert!(matches!(
            r.read_bool("flag"),
            Err(ContainerError::BadValue {
                what: "flag",
                got: 7
            })
        ));
    }

    #[test]
    fn non_utf8_string_is_a_bad_name() {
        let mut w = StateWriter::new();
        w.write_bytes(b"\xffname");
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(
            r.read_str("label", 16),
            Err(ContainerError::BadName { what: "label" })
        ));
    }

    #[test]
    fn caps_are_enforced() {
        let mut w = StateWriter::new();
        w.write_u64(1000);
        w.write_bytes(&[0u8; 100]);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(
            r.read_u64_capped("v", 999),
            Err(ContainerError::LimitExceeded {
                got: 1000,
                max: 999,
                ..
            })
        ));
        let mut r = StateReader::new(&bytes);
        r.read_u64("v").unwrap();
        assert!(matches!(
            r.read_bytes("b", 99),
            Err(ContainerError::LimitExceeded {
                got: 100,
                max: 99,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "section(s) left open")]
    fn unclosed_section_panics_at_save() {
        let mut w = StateWriter::new();
        w.begin_section("s");
        let _ = w.finish();
    }

    #[test]
    fn errors_display() {
        let e = ContainerError::FieldCount {
            section: "tage".into(),
            wrote: 5,
            read: 4,
        };
        assert!(e.to_string().contains("tage"));
        let e = ContainerError::Shape {
            detail: "width 8 != 16".into(),
        };
        assert!(e.to_string().contains("width 8 != 16"));
    }
}
