//! On-disk record framing for the file-backed log.
//!
//! Every log record is stored as a self-validating frame:
//!
//! ```text
//! +----------------+----------------+==================+
//! | len: u32 LE    | crc: u32 LE    | payload (len B)  |
//! +----------------+----------------+==================+
//! ```
//!
//! `len` is the payload length in bytes and `crc` is the CRC-32 (IEEE
//! polynomial, the zlib/ethernet one) of the payload. A frame is *valid*
//! only if the header is complete, `len` passes a sanity bound, the whole
//! payload is present, and the checksum matches — anything else is a
//! **torn tail**: the longest valid frame prefix of a segment file is
//! exactly the flushed prefix of the log, and [`scan`](crate::segment)
//! truncates the rest on open. A crash can therefore land at *any byte
//! offset* of an in-flight frame without corrupting recovery; the crash
//! tests drive every offset.

/// Bytes of framing per record: `len` + `crc`.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single payload, as a corruption tripwire: a torn
/// header that happens to have a valid-looking CRC cannot make the scanner
/// chase a multi-gigabyte phantom frame.
pub const MAX_PAYLOAD: u32 = 1 << 28; // 256 MiB

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `CRC_TABLES[0]` is
/// the classic byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    // Row by row: row `k` is row `k - 1` advanced through one zero byte.
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            crc32_bitwise_byte(b as u32)
        } else {
            (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize]
        };
        i += 1;
    }
    t
}

/// Eight rounds of the bitwise CRC-32 over the low byte of `crc`.
const fn crc32_bitwise_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// CRC-32 (IEEE, reflected, init/final `0xFFFF_FFFF`) of `data`.
///
/// Every segment-open scan, stable read, wire frame and shipped replica
/// frame checksums through here, so it is on the restart path: the
/// slice-by-8 form runs about eight times faster than the bitwise loop.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes `payload` into a framed byte string ready to append.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() as u64 <= u64::from(MAX_PAYLOAD), "oversized log record");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of decoding the bytes at one frame boundary.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid frame; `payload` borrows from the input.
    Valid {
        /// The record bytes.
        payload: &'a [u8],
        /// Total frame size (header + payload), to advance the cursor.
        frame_len: usize,
    },
    /// Anything else: incomplete header, implausible length, short
    /// payload, or checksum mismatch. The distinction does not matter to
    /// the caller — the scan stops here either way.
    Torn,
}

/// Decodes the frame starting at `buf[0]`. `buf` may extend past the
/// frame (the rest of the segment); only the leading frame is examined.
pub fn decode(buf: &[u8]) -> Decoded<'_> {
    if buf.len() < HEADER_LEN {
        return Decoded::Torn;
    }
    let (Ok(len_bytes), Ok(crc_bytes)) =
        (<[u8; 4]>::try_from(&buf[0..4]), <[u8; 4]>::try_from(&buf[4..8]))
    else {
        return Decoded::Torn;
    };
    let len = u32::from_le_bytes(len_bytes);
    let crc = u32::from_le_bytes(crc_bytes);
    if len == 0 || len > MAX_PAYLOAD {
        // len == 0 doubles as the zero-filled-tail case (a preallocated or
        // partially synced region reads back as zeros).
        return Decoded::Torn;
    }
    let end = HEADER_LEN + len as usize;
    if buf.len() < end {
        return Decoded::Torn;
    }
    let payload = &buf[HEADER_LEN..end];
    if crc32(payload) != crc {
        return Decoded::Torn;
    }
    Decoded::Valid { payload, frame_len: end }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tableless bitwise CRC-32: the oracle the table-driven form
    /// must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| crc32_bitwise_byte(crc ^ u32::from(b)))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_at_every_length() {
        // Every length 0..=4096 exercises every remainder after the
        // 8-byte chunks, over a fixed pseudo-random byte stream.
        let data: Vec<u8> =
            (0..=4096u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8).collect();
        for len in 0..=4096 {
            assert_eq!(crc32(&data[..len]), crc32_bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn roundtrip() {
        let frame = encode(b"hello log");
        match decode(&frame) {
            Decoded::Valid { payload, frame_len } => {
                assert_eq!(payload, b"hello log");
                assert_eq!(frame_len, frame.len());
            }
            Decoded::Torn => panic!("valid frame decoded as torn"),
        }
    }

    #[test]
    fn every_strict_prefix_is_torn() {
        let frame = encode(b"some record payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(decode(&frame[..cut]), Decoded::Torn, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn single_bit_flips_are_torn() {
        let frame = encode(b"bitrot target");
        for byte in 0..frame.len() {
            let mut copy = frame.clone();
            copy[byte] ^= 0x10;
            // Flipping a length byte may still decode iff it yields the
            // same length; with a fixed buffer it cannot, so every flip
            // must be caught.
            assert_eq!(decode(&copy), Decoded::Torn, "flip in byte {byte}");
        }
    }

    #[test]
    fn zero_fill_is_torn() {
        assert_eq!(decode(&[0u8; 64]), Decoded::Torn);
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut buf = encode(b"first");
        buf.extend_from_slice(&encode(b"second"));
        match decode(&buf) {
            Decoded::Valid { payload, frame_len } => {
                assert_eq!(payload, b"first");
                match decode(&buf[frame_len..]) {
                    Decoded::Valid { payload, .. } => assert_eq!(payload, b"second"),
                    Decoded::Torn => panic!("second frame torn"),
                }
            }
            Decoded::Torn => panic!("first frame torn"),
        }
    }
}
