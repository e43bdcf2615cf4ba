//! CRC-32C (Castagnoli) checksums, as used by the COBRA Binary Trace
//! format for per-section integrity.
//!
//! Software table-driven implementation (polynomial `0x1EDC6F41`,
//! reflected form `0x82F63B78`) — the same CRC used by iSCSI, ext4 and
//! most modern storage formats, chosen over CRC-32/IEEE for its better
//! error-detection properties at these block sizes. No hardware
//! intrinsics: determinism across hosts matters more here than checksum
//! throughput, although the bytewise loop is a visible share of every
//! `.cbt` block read and of every checkpoint decode.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// The 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// An incremental CRC-32C state.
///
/// # Examples
///
/// ```
/// use cobra_sim::Crc32c;
///
/// let mut crc = Crc32c::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xE306_9283); // the CRC-32C check value
/// assert_eq!(cobra_sim::crc32c(b"123456789"), 0xE306_9283);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / common CRC-32C test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0, 1, 7, 100, 255] {
            let mut crc = Crc32c::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xa5u8; 64];
        let base = crc32c(&data);
        for i in 0..64 {
            data[i] ^= 1;
            assert_ne!(crc32c(&data), base, "flip at byte {i}");
            data[i] ^= 1;
        }
    }
}
