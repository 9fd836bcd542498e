//! The durable, segmented, file-backed stable log.
//!
//! [`SegmentedFileLog`] stores the flushed prefix of the log as CRC-framed
//! records (see [`crate::frame`]) in fixed-size-bounded segment files (see
//! [`crate::segment`]) inside one directory:
//!
//! ```text
//! wal/
//!   00000000000000000000.seg    frames for LSNs [0, n1)
//!   00000000000000000n1.seg     frames for LSNs [n1, n2)   (active)
//!   master                      master record (atomic rename)
//! ```
//!
//! **Durability protocol.** Appends buffer nothing in this layer — every
//! frame is written to the active segment immediately — but are *not*
//! durable until [`SegmentedFileLog::sync`] returns. The
//! [`LogManager`](crate::log::LogManager) group-commits: concurrent
//! `flush_to` callers elect a leader that issues one `fdatasync` for all
//! frames written so far. Rolling to a new segment fsyncs the finished
//! segment first, so only the *active* segment can ever hold torn bytes.
//!
//! **Open = recovery of the log itself.** Opening scans segments in LSN
//! order, verifies contiguity and per-frame checksums, truncates the
//! first torn frame and everything after it (the longest valid prefix is
//! exactly what ARIES recovery may read), and deletes segments orphaned
//! beyond a tear. The master record is loaded last and demoted to NULL if
//! it points outside the surviving log — starting the forward pass at the
//! log's base is always correct, merely slower.
//!
//! **Master record.** A 12-byte file (`lsn | crc32(lsn)`) replaced via
//! write-to-temp + fsync + rename + directory-fsync, the classic atomic
//! publication sequence; a crash leaves either the old or the new master,
//! never a torn one.

use crate::frame;
use crate::io::{StdIo, WalFile, WalIo};
use crate::metrics::LogMetrics;
use crate::segment;
use parking_lot::Mutex;
use rh_common::{Lsn, Result, RhError};
use rh_obs::names;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// Name of the master-record file inside the log directory.
const MASTER_FILE: &str = "master";
/// Temporary name the master is staged under before the atomic rename.
const MASTER_TMP: &str = "master.tmp";

/// Configuration for a [`SegmentedFileLog`].
#[derive(Debug, Clone)]
pub struct FileLogConfig {
    /// Directory holding segments and the master record (created if
    /// absent).
    pub dir: PathBuf,
    /// Soft cap on segment size: a segment is rolled when appending the
    /// next frame would push it past this many bytes (a single oversized
    /// frame still fits — segments are bounded by `max(segment_bytes,
    /// largest frame)`).
    pub segment_bytes: u64,
}

impl FileLogConfig {
    /// Default configuration (4 MiB segments) for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FileLogConfig { dir: dir.into(), segment_bytes: 4 << 20 }
    }

    /// Overrides the segment-roll threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }
}

/// What opening the directory found and repaired.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Valid records recovered.
    pub records: u64,
    /// Bytes cut off a torn tail (0 on a clean open).
    pub torn_bytes: u64,
    /// Segment files deleted because a tear or gap orphaned them.
    pub segments_removed: u64,
}

/// Most bytes one positioned read of a scan asks for. Runs hold whole
/// frames, so a larger frame is read whole, alone.
const RUN_BYTES: u64 = 64 << 10;

/// A run of frames: the segment file, the byte offset of the first frame
/// there, the bytes the frames span, and how many records they hold.
type Run = (Arc<dyn WalFile>, u64, usize, u64);

/// Byte cost of an append, for the caller's metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct AppendOut {
    /// Frame bytes written (header + payload).
    pub bytes: u64,
    /// Physical syncs performed (segment roll fsyncs the old segment and
    /// the directory).
    pub fsyncs: u64,
}

#[derive(Debug)]
struct OpenSegment {
    first_lsn: u64,
    file: Arc<dyn WalFile>,
    /// Valid bytes; the append cursor for the active (last) segment.
    len: u64,
}

#[derive(Debug)]
struct State {
    /// LSN of the oldest retained record (= first segment's name).
    base: u64,
    /// Open segments in LSN order; the last is the active one.
    segments: VecDeque<OpenSegment>,
    /// `index[i]` is the byte offset of the frame of the record with LSN
    /// `base + i` within its segment — all the log keeps in memory per
    /// record. The segment follows from the LSN, and the frame ends where
    /// the segment's next frame (or its valid bytes) begins.
    index: VecDeque<u64>,
}

/// The file-backed stable log. See the module docs for the protocol.
#[derive(Debug)]
pub struct SegmentedFileLog {
    io: Arc<dyn WalIo>,
    dir: PathBuf,
    segment_bytes: u64,
    state: Mutex<State>,
    master: Mutex<Lsn>,
    report: OpenReport,
}

fn storage(reason: &'static str) -> RhError {
    RhError::Storage(reason)
}

/// Writes all of `data` at `offset`, looping over short writes.
fn write_all(file: &dyn WalFile, mut offset: u64, mut data: &[u8]) -> Result<()> {
    while !data.is_empty() {
        let n = file.write_at(offset, data).map_err(|_| storage("log segment write failed"))?;
        if n == 0 {
            return Err(storage("log segment write returned zero"));
        }
        let n = n.min(data.len());
        offset += n as u64;
        data = &data[n..];
    }
    Ok(())
}

impl SegmentedFileLog {
    /// Opens (creating if needed) the log in `cfg.dir` over the real
    /// filesystem.
    pub fn open(cfg: FileLogConfig) -> Result<Self> {
        Self::open_with(Arc::new(StdIo), cfg)
    }

    /// Opens the log through an explicit I/O layer (tests inject faults
    /// here).
    pub fn open_with(io: Arc<dyn WalIo>, cfg: FileLogConfig) -> Result<Self> {
        io.create_dir_all(&cfg.dir).map_err(|_| storage("cannot create log directory"))?;

        let mut names: Vec<u64> = io
            .list(&cfg.dir)
            .map_err(|_| storage("cannot list log directory"))?
            .iter()
            .filter_map(|p| segment::parse_segment_name(p))
            .collect();
        names.sort_unstable();

        let mut report = OpenReport::default();
        let mut segments: VecDeque<OpenSegment> = VecDeque::new();
        let mut index: VecDeque<u64> = VecDeque::new();
        let base = names.first().copied().unwrap_or(0);
        let mut expected = base;
        let mut stop_at: Option<usize> = None;

        for (i, &first) in names.iter().enumerate() {
            if first != expected {
                // Gap: a segment vanished. Everything from here on is
                // unreachable from the contiguous prefix.
                stop_at = Some(i);
                break;
            }
            let path = segment::segment_path(&cfg.dir, first);
            let file = io.open(&path).map_err(|_| storage("cannot open log segment"))?;
            let file_len = file.len().map_err(|_| storage("cannot stat log segment"))?;
            let scan =
                segment::scan_segment(&*file).map_err(|_| storage("cannot read log segment"))?;
            index.extend(&scan.frames);
            expected = first + scan.frames.len() as u64;
            if scan.torn {
                // Torn tail: cut it, make the cut durable, and drop any
                // later segments (their LSNs would leave a gap).
                file.set_len(scan.valid_len)
                    .map_err(|_| storage("cannot truncate torn log tail"))?;
                file.sync().map_err(|_| storage("cannot sync truncated log tail"))?;
                report.torn_bytes += file_len - scan.valid_len;
                segments.push_back(OpenSegment { first_lsn: first, file, len: scan.valid_len });
                stop_at = Some(i + 1);
                break;
            }
            segments.push_back(OpenSegment { first_lsn: first, file, len: scan.valid_len });
        }

        if let Some(from) = stop_at {
            for &orphan in &names[from..] {
                io.remove(&segment::segment_path(&cfg.dir, orphan))
                    .map_err(|_| storage("cannot remove orphaned log segment"))?;
                report.segments_removed += 1;
            }
        }

        if segments.is_empty() {
            // Fresh directory: create the first segment.
            let path = segment::segment_path(&cfg.dir, 0);
            let file = io.create(&path).map_err(|_| storage("cannot create log segment"))?;
            segments.push_back(OpenSegment { first_lsn: 0, file, len: 0 });
        }
        io.sync_dir(&cfg.dir).map_err(|_| storage("cannot sync log directory"))?;

        report.records = index.len() as u64;
        let horizon = base + index.len() as u64;
        let master = Self::load_master(&*io, &cfg.dir, base, horizon);

        Ok(SegmentedFileLog {
            io,
            dir: cfg.dir,
            segment_bytes: cfg.segment_bytes.max(1),
            state: Mutex::named(State { base, segments, index }, names::LS_WAL_STATE),
            master: Mutex::named(master, names::LS_WAL_MASTER),
            report,
        })
    }

    /// What the open scan found and repaired.
    pub fn open_report(&self) -> OpenReport {
        self.report
    }

    fn load_master(io: &dyn WalIo, dir: &std::path::Path, base: u64, horizon: u64) -> Lsn {
        // Any failure mode degrades to NULL: recovery then scans from the
        // log base, which is always correct.
        let Ok(file) = io.open(&dir.join(MASTER_FILE)) else {
            return Lsn::NULL;
        };
        let mut buf = [0u8; 12];
        match file.read_at(0, &mut buf) {
            Ok(12) => {}
            _ => return Lsn::NULL,
        }
        let (Ok(raw_bytes), Ok(crc_bytes)) =
            (<[u8; 8]>::try_from(&buf[0..8]), <[u8; 4]>::try_from(&buf[8..12]))
        else {
            return Lsn::NULL;
        };
        let raw = u64::from_le_bytes(raw_bytes);
        let crc = u32::from_le_bytes(crc_bytes);
        if frame::crc32(&buf[0..8]) != crc {
            return Lsn::NULL;
        }
        if raw == Lsn::NULL.raw() || raw < base || raw >= horizon {
            return Lsn::NULL;
        }
        Lsn(raw)
    }

    pub(crate) fn master(&self) -> Lsn {
        *self.master.lock()
    }

    pub(crate) fn set_master(&self, lsn: Lsn) -> Result<()> {
        let mut buf = [0u8; 12];
        buf[0..8].copy_from_slice(&lsn.raw().to_le_bytes());
        let crc = frame::crc32(&buf[0..8]);
        buf[8..12].copy_from_slice(&crc.to_le_bytes());

        let tmp = self.dir.join(MASTER_TMP);
        let file = self.io.create(&tmp).map_err(|_| storage("cannot create master.tmp"))?;
        write_all(&*file, 0, &buf)?;
        file.sync().map_err(|_| storage("cannot sync master.tmp"))?;
        self.io
            .rename(&tmp, &self.dir.join(MASTER_FILE))
            .map_err(|_| storage("cannot publish master record"))?;
        self.io.sync_dir(&self.dir).map_err(|_| storage("cannot sync log directory"))?;
        *self.master.lock() = lsn;
        Ok(())
    }

    pub(crate) fn base(&self) -> u64 {
        self.state.lock().base
    }

    pub(crate) fn len(&self) -> usize {
        self.state.lock().index.len()
    }

    pub(crate) fn horizon(&self) -> u64 {
        let st = self.state.lock();
        st.base + st.index.len() as u64
    }

    /// Appends one encoded record. Not durable until [`Self::sync`].
    pub(crate) fn append_encoded(&self, lsn: Lsn, payload: &[u8]) -> Result<AppendOut> {
        let mut st = self.state.lock();
        debug_assert_eq!(lsn.raw(), st.base + st.index.len() as u64, "non-dense append");
        let framed = frame::encode(payload);
        let mut out = AppendOut { bytes: framed.len() as u64, fsyncs: 0 };

        let roll = {
            let active = st.segments.back().ok_or_else(|| storage("log has no active segment"))?;
            active.len > 0 && active.len + framed.len() as u64 > self.segment_bytes
        };
        if roll {
            // Seal the finished segment: it must be fully durable before
            // the log continues elsewhere, so that on open only the
            // active segment can be torn.
            let active = st.segments.back().ok_or_else(|| storage("log has no active segment"))?;
            // Sealing a rolled segment must complete under `state`: a
            // concurrent append landing in the next segment before the
            // seal is durable would break the only-active-segment-can-
            // tear recovery invariant. Rolls are rare (segment_bytes).
            // rh-analyze: allow(L6)
            active.file.sync().map_err(|_| storage("cannot sync rolled segment"))?;
            out.fsyncs += 1;
            let path = segment::segment_path(&self.dir, lsn.raw());
            let file = self.io.create(&path).map_err(|_| storage("cannot create log segment"))?;
            // Same invariant: the new segment's dirent must be durable
            // before any record lands in it. rh-analyze: allow(L6)
            self.io.sync_dir(&self.dir).map_err(|_| storage("cannot sync log directory"))?;
            out.fsyncs += 1;
            st.segments.push_back(OpenSegment { first_lsn: lsn.raw(), file, len: 0 });
        }

        let active = st.segments.back_mut().ok_or_else(|| storage("log has no active segment"))?;
        write_all(&*active.file, active.len, &framed)?;
        let offset = active.len;
        active.len += framed.len() as u64;
        st.index.push_back(offset);
        Ok(out)
    }

    /// Fsyncs the active segment, making every previously appended frame
    /// durable (rolled segments were synced when sealed). Returns the
    /// number of physical syncs issued.
    pub(crate) fn sync(&self) -> Result<u64> {
        let file = {
            let st = self.state.lock();
            let active = st.segments.back().ok_or_else(|| storage("log has no active segment"))?;
            Arc::clone(&active.file)
        };
        file.sync().map_err(|_| storage("log fsync failed"))?;
        Ok(1)
    }

    /// The run of frames from record `lsn` toward `end` (exclusive):
    /// consecutive records of `lsn`'s segment whose frames span at most
    /// [`RUN_BYTES`], and at least the frame of `lsn` itself.
    fn locate(&self, lsn: Lsn, end: u64) -> Result<Run> {
        let st = self.state.lock();
        if lsn.raw() < st.base {
            return Err(RhError::CorruptLog { lsn, reason: "read below truncation point" });
        }
        let idx = (lsn.raw() - st.base) as usize;
        let offset = *st
            .index
            .get(idx)
            .ok_or(RhError::CorruptLog { lsn, reason: "read past end of log" })?;
        // The first segment starts at `base`, so `lsn` lies in this one.
        let seg_idx = st.segments.partition_point(|s| s.first_lsn <= lsn.raw()).saturating_sub(1);
        let seg = st
            .segments
            .get(seg_idx)
            .ok_or(RhError::CorruptLog { lsn, reason: "index entry points into a dead segment" })?;
        // Index positions: where the segment's records end, and the run's.
        let seg_end = st
            .segments
            .get(seg_idx + 1)
            .map_or(st.index.len(), |next| (next.first_lsn - st.base) as usize);
        let last = seg_end.min(end.saturating_sub(st.base) as usize);
        // A frame ends where the next one in its segment begins.
        let frame_end = |i: usize| match st.index.get(i + 1) {
            Some(&next) if i + 1 < seg_end => next,
            _ => seg.len,
        };
        let mut records = 1;
        while idx + records < last && frame_end(idx + records).saturating_sub(offset) <= RUN_BYTES {
            records += 1;
        }
        let len = (frame_end(idx + records - 1).checked_sub(offset))
            .ok_or(RhError::CorruptLog { lsn, reason: "index entries out of order" })?;
        Ok((Arc::clone(&seg.file), offset, len as usize, records as u64))
    }

    /// Hands `f` the stored payload of every record in `[from, end)`,
    /// reading each run of frames (see [`Self::locate`]) with one
    /// positioned read into one buffer reused across runs. Every frame is
    /// checksum-checked; a bad one fails as `CorruptLog` at its LSN. `f`
    /// runs with no lock held; `metrics` counts the positioned reads.
    pub(crate) fn scan_encoded(
        &self,
        from: Lsn,
        end: u64,
        metrics: &LogMetrics,
        mut f: impl FnMut(Lsn, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut buf = Vec::new();
        let mut lsn = from.raw();
        while lsn < end {
            let (file, offset, len, records) = self.locate(Lsn(lsn), end)?;
            let failed = |reason| RhError::CorruptLog { lsn: Lsn(lsn), reason };
            buf.resize(len, 0);
            let mut read = 0;
            while read < len {
                metrics.record_stable_read();
                match file.read_at(offset + read as u64, &mut buf[read..]) {
                    Ok(0) => return Err(failed("log file shorter than index")),
                    Ok(n) => read += n,
                    Err(_) => return Err(failed("log read failed")),
                }
            }
            let run_end = lsn + records;
            for (_, payload) in frame::frames(&buf).take(records as usize) {
                f(Lsn(lsn), payload)?;
                lsn += 1;
            }
            if lsn < run_end {
                return Err(RhError::CorruptLog {
                    lsn: Lsn(lsn),
                    reason: "checksum mismatch on read",
                });
            }
        }
        Ok(())
    }

    /// Overwrites a record's frame in place (eager/lazy baselines only).
    /// The file backend supports only **same-length** rewrites: frames
    /// are packed back to back, so growing one would shift its
    /// successors. All baseline rewrites preserve length (they edit
    /// fixed-width fields), and the mem backend keeps full generality for
    /// unit tests.
    pub(crate) fn rewrite_encoded(&self, lsn: Lsn, payload: &[u8]) -> Result<()> {
        let (file, offset, len, _) = self.locate(lsn, lsn.raw() + 1)?;
        if frame::HEADER_LEN + payload.len() != len {
            return Err(storage("file-backed log rewrites must preserve record length"));
        }
        write_all(&*file, offset, &frame::encode(payload))
    }

    /// Drops whole segments whose every record has LSN `< upto`. The file
    /// backend truncates at segment granularity (the mem backend is
    /// exact); the caller's `upto` is an upper bound either way. Returns
    /// records dropped.
    pub(crate) fn truncate_prefix(&self, upto: Lsn) -> Result<u64> {
        let mut st = self.state.lock();
        let mut dropped = 0u64;
        while st.segments.len() > 1 {
            let next_first = st.segments[1].first_lsn;
            if next_first > upto.raw() {
                break;
            }
            let Some(dead) = st.segments.pop_front() else { break };
            let n = next_first - dead.first_lsn;
            for _ in 0..n {
                st.index.pop_front();
            }
            st.base = next_first;
            self.io
                .remove(&segment::segment_path(&self.dir, dead.first_lsn))
                .map_err(|_| storage("cannot remove truncated segment"))?;
            dropped += n;
        }
        if dropped > 0 {
            drop(st);
            self.io.sync_dir(&self.dir).map_err(|_| storage("cannot sync log directory"))?;
        }
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rh-wal-filelog-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i:04}").into_bytes()
    }

    impl SegmentedFileLog {
        /// One record's payload, through a one-record scan.
        fn read_encoded(&self, lsn: Lsn) -> Result<Vec<u8>> {
            let mut out = Vec::new();
            self.scan_encoded(lsn, lsn.raw() + 1, &LogMetrics::default(), |_, p| {
                out = p.to_vec();
                Ok(())
            })?;
            Ok(out)
        }
    }

    #[test]
    fn append_read_reopen() {
        let dir = scratch("basic");
        let log = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        for i in 0..10u64 {
            log.append_encoded(Lsn(i), &payload(i)).unwrap();
        }
        log.sync().unwrap();
        assert_eq!(log.horizon(), 10);
        assert_eq!(&*log.read_encoded(Lsn(7)).unwrap(), payload(7).as_slice());
        drop(log);

        let log2 = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        assert_eq!(log2.open_report(), OpenReport { records: 10, ..Default::default() });
        assert_eq!(log2.horizon(), 10);
        assert_eq!(&*log2.read_encoded(Lsn(0)).unwrap(), payload(0).as_slice());
        assert!(log2.read_encoded(Lsn(10)).is_err());
    }

    #[test]
    fn segments_roll_and_survive_reopen() {
        let dir = scratch("roll");
        let cfg = FileLogConfig::new(&dir).segment_bytes(64);
        let log = SegmentedFileLog::open_with(Arc::new(StdIo), cfg.clone()).unwrap();
        for i in 0..20u64 {
            log.append_encoded(Lsn(i), &payload(i)).unwrap();
        }
        log.sync().unwrap();
        assert!(log.state.lock().segments.len() > 1, "expected a roll");
        // Every frame's length follows from the index alone, across rolls.
        for i in 0..20u64 {
            assert_eq!(&*log.read_encoded(Lsn(i)).unwrap(), payload(i).as_slice());
        }
        drop(log);

        let log2 = SegmentedFileLog::open_with(Arc::new(StdIo), cfg).unwrap();
        assert_eq!(log2.horizon(), 20);
        for i in 0..20u64 {
            assert_eq!(&*log2.read_encoded(Lsn(i)).unwrap(), payload(i).as_slice());
        }
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = scratch("torn");
        let log = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        for i in 0..3u64 {
            log.append_encoded(Lsn(i), &payload(i)).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        // Chop 5 bytes off the segment: record 2 becomes torn.
        let seg = segment::segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let log2 = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        let report = log2.open_report();
        assert_eq!(report.records, 2);
        assert!(report.torn_bytes > 0);
        assert_eq!(log2.horizon(), 2);
        // The tail is gone; appending record 2 again lands cleanly.
        log2.append_encoded(Lsn(2), &payload(2)).unwrap();
        assert_eq!(&*log2.read_encoded(Lsn(2)).unwrap(), payload(2).as_slice());
    }

    #[test]
    fn tear_in_rolled_segment_orphans_later_ones() {
        let dir = scratch("orphan");
        let cfg = FileLogConfig::new(&dir).segment_bytes(64);
        let log = SegmentedFileLog::open_with(Arc::new(StdIo), cfg.clone()).unwrap();
        for i in 0..20u64 {
            log.append_encoded(Lsn(i), &payload(i)).unwrap();
        }
        log.sync().unwrap();
        let second_seg_first = log.state.lock().segments[1].first_lsn;
        drop(log);

        // Corrupt a byte in the middle of the FIRST segment.
        let seg0 = segment::segment_path(&dir, 0);
        let bytes = std::fs::read(&seg0).unwrap();
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() / 2] ^= 0xFF;
        std::fs::write(&seg0, corrupted).unwrap();

        let log2 = SegmentedFileLog::open_with(Arc::new(StdIo), cfg).unwrap();
        let report = log2.open_report();
        assert!(report.segments_removed >= 1, "later segments must be deleted");
        assert!(log2.horizon() < second_seg_first, "log ends before the tear");
        assert!(!segment::segment_path(&dir, second_seg_first).exists());
    }

    #[test]
    fn master_record_is_atomic_and_validated() {
        let dir = scratch("master");
        let log = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        for i in 0..5u64 {
            log.append_encoded(Lsn(i), &payload(i)).unwrap();
        }
        log.sync().unwrap();
        assert_eq!(log.master(), Lsn::NULL);
        log.set_master(Lsn(3)).unwrap();
        assert_eq!(log.master(), Lsn(3));
        drop(log);

        let log2 = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        assert_eq!(log2.master(), Lsn(3));

        // A corrupted master degrades to NULL, never to garbage.
        std::fs::write(dir.join(MASTER_FILE), b"garbage!!!!!").unwrap();
        let log3 = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        assert_eq!(log3.master(), Lsn::NULL);
    }

    #[test]
    fn master_pointing_past_the_log_degrades_to_null() {
        let dir = scratch("master-ahead");
        let log = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        log.append_encoded(Lsn(0), &payload(0)).unwrap();
        log.sync().unwrap();
        log.set_master(Lsn(0)).unwrap();
        drop(log);

        // Simulate the record the master points at being torn away: wipe
        // the segment entirely.
        let seg = segment::segment_path(&dir, 0);
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(0).unwrap();

        let log2 = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        assert_eq!(log2.horizon(), 0);
        assert_eq!(log2.master(), Lsn::NULL);
    }

    #[test]
    fn truncate_prefix_drops_whole_segments() {
        let dir = scratch("truncate");
        let cfg = FileLogConfig::new(&dir).segment_bytes(64);
        let log = SegmentedFileLog::open_with(Arc::new(StdIo), cfg.clone()).unwrap();
        for i in 0..20u64 {
            log.append_encoded(Lsn(i), &payload(i)).unwrap();
        }
        log.sync().unwrap();
        let seg_count = log.state.lock().segments.len();
        assert!(seg_count >= 3, "test needs several segments, got {seg_count}");
        let second_first = log.state.lock().segments[1].first_lsn;

        // Truncating below the second segment's start drops nothing.
        assert_eq!(log.truncate_prefix(Lsn(second_first - 1)).unwrap(), 0);
        // Truncating exactly at it drops the first segment.
        assert_eq!(log.truncate_prefix(Lsn(second_first)).unwrap(), second_first);
        assert_eq!(log.base(), second_first);
        assert!(log.read_encoded(Lsn(0)).is_err());
        assert_eq!(
            &*log.read_encoded(Lsn(second_first)).unwrap(),
            payload(second_first).as_slice()
        );

        // The active segment is never dropped.
        log.truncate_prefix(Lsn(u64::MAX - 1)).unwrap();
        assert_eq!(log.state.lock().segments.len(), 1);
        drop(log);

        // Truncation survives reopen; LSNs keep their positions.
        let log2 = SegmentedFileLog::open_with(Arc::new(StdIo), cfg).unwrap();
        assert_eq!(log2.horizon(), 20);
        assert!(log2.base() > 0);
        assert_eq!(&*log2.read_encoded(Lsn(19)).unwrap(), payload(19).as_slice());
    }

    #[test]
    fn same_length_rewrite_works_and_growth_is_rejected() {
        let dir = scratch("rewrite");
        let log = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        log.append_encoded(Lsn(0), b"aaaa").unwrap();
        log.append_encoded(Lsn(1), b"bbbb").unwrap();
        log.rewrite_encoded(Lsn(0), b"AAAA").unwrap();
        assert_eq!(&*log.read_encoded(Lsn(0)).unwrap(), b"AAAA");
        assert_eq!(&*log.read_encoded(Lsn(1)).unwrap(), b"bbbb");
        assert!(log.rewrite_encoded(Lsn(1), b"too-long").is_err());
    }
}
