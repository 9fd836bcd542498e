//! Log segment files: naming, scanning, and torn-tail truncation.
//!
//! The stable log is a directory of fixed-size-bounded segment files,
//! each named by the LSN of its first record, zero-padded so the
//! lexicographic and numeric orders agree:
//!
//! ```text
//! 00000000000000000000.seg   records [0, 118)
//! 00000000000000000118.seg   records [118, 241)
//! 00000000000000000241.seg   records [241, ...)   <- active (appended to)
//! ```
//!
//! A segment is a run of [`frame`](crate::frame)s. Only the last segment
//! is ever appended to; a segment is fsynced when it is rolled, so every
//! non-last segment is entirely durable and only the active one can end
//! in a torn frame after a crash.

use crate::frame;
use crate::io::WalFile;
use std::io;
use std::path::{Path, PathBuf};

/// File extension for log segments.
pub const SEGMENT_EXT: &str = "seg";

/// Renders the file name of the segment whose first record is
/// `first_lsn`.
pub fn segment_file_name(first_lsn: u64) -> String {
    format!("{first_lsn:020}.{SEGMENT_EXT}")
}

/// Parses a segment file name back to its first LSN; `None` for paths
/// that are not segment files (the master record, editor droppings, ...).
pub fn parse_segment_name(path: &Path) -> Option<u64> {
    if path.extension()?.to_str()? != SEGMENT_EXT {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// Joins `dir` with the segment file name for `first_lsn`.
pub fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(segment_file_name(first_lsn))
}

/// Result of scanning one segment file on open.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Byte offsets of the valid frames within the segment, in order.
    pub frames: Vec<u64>,
    /// Byte length of the valid prefix. Anything past it is torn.
    pub valid_len: u64,
    /// True if the file extended past `valid_len` (a torn tail was seen).
    pub torn: bool,
}

/// Reads the whole of `file` and walks its frames, stopping at the first
/// torn one. Does **not** truncate; the caller decides (and also decides
/// what to do with any *later* segments, which a tear orphans).
pub fn scan_segment(file: &dyn WalFile) -> io::Result<ScanOutcome> {
    let len = file.len()?;
    let mut buf = vec![0u8; len as usize];
    let mut read = 0usize;
    while (read as u64) < len {
        let n = file.read_at(read as u64, &mut buf[read..])?;
        if n == 0 {
            // File shrank under us; scan what we got.
            buf.truncate(read);
            break;
        }
        read += n;
    }

    let mut valid_len = 0;
    let frames = frame::frames(&buf)
        .map(|(offset, payload)| {
            valid_len = offset + frame::HEADER_LEN + payload.len();
            offset as u64
        })
        .collect();
    Ok(ScanOutcome { frames, valid_len: valid_len as u64, torn: valid_len < buf.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{StdIo, WalIo};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rh-wal-segment-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_roundtrip_and_sort() {
        let p = segment_path(Path::new("/wal"), 118);
        assert_eq!(p.file_name().unwrap().to_str().unwrap(), "00000000000000000118.seg");
        assert_eq!(parse_segment_name(&p), Some(118));
        assert!(segment_file_name(9) < segment_file_name(10));
        assert!(segment_file_name(999) < segment_file_name(1_000_000_000_000));
    }

    #[test]
    fn non_segment_files_are_ignored() {
        assert_eq!(parse_segment_name(Path::new("/wal/master")), None);
        assert_eq!(parse_segment_name(Path::new("/wal/master.tmp")), None);
        assert_eq!(parse_segment_name(Path::new("/wal/123.seg")), None); // unpadded
        assert_eq!(parse_segment_name(Path::new("/wal/0000000000000000000x.seg")), None);
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let dir = scratch("torn");
        let f = StdIo.create(&dir.join("s")).unwrap();
        let a = frame::encode(b"first");
        let b = frame::encode(b"second");
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b);
        // Cut the second frame three bytes short.
        bytes.truncate(a.len() + b.len() - 3);
        f.write_at(0, &bytes).unwrap();

        let out = scan_segment(&*f).unwrap();
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.valid_len, a.len() as u64);
        assert!(out.torn);
    }

    #[test]
    fn scan_of_clean_file_is_not_torn() {
        let dir = scratch("clean");
        let f = StdIo.create(&dir.join("s")).unwrap();
        let mut bytes = frame::encode(b"one");
        bytes.extend_from_slice(&frame::encode(b"two"));
        f.write_at(0, &bytes).unwrap();
        let out = scan_segment(&*f).unwrap();
        assert_eq!(out.frames.len(), 2);
        assert_eq!(out.valid_len, bytes.len() as u64);
        assert!(!out.torn);
        assert_eq!(out.frames[1], frame::encode(b"one").len() as u64);
    }

    #[test]
    fn scan_of_empty_file() {
        let dir = scratch("empty");
        let f = StdIo.create(&dir.join("s")).unwrap();
        let out = scan_segment(&*f).unwrap();
        assert!(out.frames.is_empty());
        assert_eq!(out.valid_len, 0);
        assert!(!out.torn);
    }
}
