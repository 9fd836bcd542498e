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

/// The frames packed back to back from the start of `buf`: each valid
/// frame's byte offset and payload, ending at the first invalid frame
/// (or the buffer's end). The segment scan on open, the log's run reads,
/// the black-box reader and the wire's frame check all walk frames
/// through this one iterator.
pub fn frames(buf: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let (payload, frame_len) = decode(buf.get(pos..)?)?;
        pos += frame_len;
        Some((pos - frame_len, payload))
    })
}

/// The payload and total length (header + payload) of the frame at
/// `buf[0]`; `buf` may extend past it. `None` for an incomplete header,
/// an implausible length, a short payload or a checksum mismatch: the
/// distinction does not matter, a walk stops there either way.
fn decode(buf: &[u8]) -> Option<(&[u8], usize)> {
    let len = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(buf.get(4..HEADER_LEN)?.try_into().ok()?);
    if len == 0 || len > MAX_PAYLOAD {
        // len == 0 doubles as the zero-filled-tail case (a preallocated or
        // partially synced region reads back as zeros).
        return None;
    }
    let end = HEADER_LEN + len as usize;
    let payload = buf.get(HEADER_LEN..end)?;
    (crc32(payload) == crc).then_some((payload, end))
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
        assert_eq!(decode(&frame), Some((&b"hello log"[..], frame.len())));
    }

    #[test]
    fn every_strict_prefix_is_torn() {
        let frame = encode(b"some record payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(decode(&frame[..cut]), None, "prefix of {cut} bytes");
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
            assert_eq!(decode(&copy), None, "flip in byte {byte}");
        }
    }

    #[test]
    fn zero_fill_is_torn() {
        assert_eq!(decode(&[0u8; 64]), None);
    }

    #[test]
    fn a_walk_ignores_trailing_bytes_after_the_first_invalid_frame() {
        let mut buf = encode(b"first");
        buf.extend_from_slice(&encode(b"second"));
        buf.extend_from_slice(&encode(b"third")[..5]);
        buf.extend_from_slice(&encode(b"fourth"));
        let got: Vec<_> = frames(&buf).collect();
        assert_eq!(got, vec![(0, &b"first"[..]), (encode(b"first").len(), &b"second"[..])]);
        assert_eq!(frames(&[]).count(), 0);
    }
}
