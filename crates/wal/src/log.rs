//! The log manager.
//!
//! "During normal execution, the only valid operation is appending a log
//! record to the end of the log" (§3.1) — except for the eager/lazy
//! *baselines*, which this crate also serves and which need
//! [`LogManager::rewrite_in_place`]; ARIES/RH itself never calls it, and
//! the metrics prove it.
//!
//! ## Stable / volatile split
//!
//! The [`StableLog`] holds encoded records that have been flushed; it is
//! shared by `Arc` and **survives crashes**. The [`LogManager`] adds a
//! volatile tail of appended-but-unflushed records. [`LogManager::crash`]
//! discards the tail and detaches; a recovering engine calls
//! [`LogManager::attach`] on the same `StableLog` and sees exactly the
//! flushed prefix — so a commit whose force never completed is correctly
//! invisible after the crash.
//!
//! ## Backends
//!
//! [`StableLog`] has two backends behind one API:
//!
//! * **Mem** ([`StableLog::new`]) — encoded records in a `Vec`. The unit
//!   tests' default: instant, exact truncation, no filesystem.
//! * **File** ([`StableLog::open_dir`] / [`StableLog::open_file`]) — the
//!   [`SegmentedFileLog`]: CRC-framed records in segment files, an
//!   atomically renamed master record, and torn-tail truncation on open.
//!
//! ## Reads
//!
//! [`LogManager::read`] (the backward pass, reenactment) is one
//! positioned read of one frame on the file backend. Sequential passes
//! use [`LogManager::scan`]: one positioned read per run of whole frames
//! (consecutive records of a segment, up to 64 KiB), then the unflushed
//! tail; [`LogManager::scan_bytes`] yields the stable records undecoded.
//!
//! ## Group commit
//!
//! [`LogManager::flush_to`] runs in two phases. The *write* phase (under
//! the tail lock) encodes and appends frames to the stable backend. The
//! *sync* phase elects a leader among concurrent flushers: the leader
//! issues one backend `fsync` covering every frame written so far, and
//! followers whose records that sync made durable return without syncing
//! — N concurrent commits cost one `fdatasync`, not N. The mem backend's
//! sync is a no-op, so the same code path serves both.
//!
//! ## Time-travel index
//!
//! [`LogManager::checkpoint_at_or_below`], [`LogManager::object_lsns`] and
//! [`LogManager::txn_lsns`] answer from a secondary index (per-object,
//! per-transaction and checkpoint LSN lists) that these lookups build
//! themselves, ingesting the log only up to the LSN they ask about. The
//! write path never touches it.

use crate::filelog::{AppendOut, FileLogConfig, OpenReport, SegmentedFileLog};
use crate::index::LogIndex;
use crate::io::WalIo;
use crate::metrics::LogMetrics;
use crate::record::{LogRecord, RecordBody};
use parking_lot::{Condvar, Mutex};
use rh_common::codec::Codec;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId};
use rh_obs::names;
use std::sync::Arc;

/// In-memory stable backend: the original seed implementation.
#[derive(Debug)]
struct MemLog {
    records: Mutex<Vec<Arc<[u8]>>>,
    master: Mutex<Lsn>,
    /// Number of records truncated off the front: `records[i]` holds the
    /// record with LSN `base + i`.
    base: Mutex<u64>,
}

impl Default for MemLog {
    fn default() -> Self {
        MemLog {
            records: Mutex::named(Vec::new(), names::LS_WAL_RECORDS),
            master: Mutex::named(Lsn::default(), names::LS_WAL_MASTER),
            base: Mutex::named(0, names::LS_WAL_BASE),
        }
    }
}

impl MemLog {
    fn horizon(&self) -> u64 {
        // Lock order: records -> base (as everywhere in this backend).
        let records = self.records.lock();
        let base = *self.base.lock();
        base + records.len() as u64
    }

    fn append_encoded(&self, bytes: &[u8]) -> AppendOut {
        self.records.lock().push(bytes.into());
        AppendOut { bytes: bytes.len() as u64, fsyncs: 0 }
    }

    fn read_encoded(&self, lsn: Lsn) -> Result<Arc<[u8]>> {
        let records = self.records.lock();
        let base = *self.base.lock();
        if lsn.raw() < base {
            return Err(RhError::CorruptLog { lsn, reason: "read below truncation point" });
        }
        records
            .get((lsn.raw() - base) as usize)
            .cloned()
            .ok_or(RhError::CorruptLog { lsn, reason: "read past end of log" })
    }

    fn rewrite_encoded(&self, lsn: Lsn, bytes: &[u8]) -> Result<()> {
        let mut records = self.records.lock();
        let base = *self.base.lock();
        if lsn.raw() < base {
            return Err(RhError::CorruptLog { lsn, reason: "rewrite below truncation point" });
        }
        let slot = records
            .get_mut((lsn.raw() - base) as usize)
            .ok_or(RhError::CorruptLog { lsn, reason: "rewrite past end of log" })?;
        *slot = bytes.into();
        Ok(())
    }

    fn truncate_prefix(&self, upto: Lsn) -> u64 {
        let mut records = self.records.lock();
        let mut base = self.base.lock();
        if upto.raw() < *base {
            return 0; // already truncated past this point
        }
        let drop_n = (upto.raw() - *base).min(records.len() as u64);
        records.drain(..drop_n as usize);
        *base += drop_n;
        drop_n
    }
}

#[derive(Debug)]
enum Backend {
    Mem(MemLog),
    File(SegmentedFileLog),
}

/// The crash-surviving, encoded portion of the log. See the module docs
/// for the two backends.
#[derive(Debug)]
pub struct StableLog {
    backend: Backend,
}

impl Default for StableLog {
    fn default() -> Self {
        StableLog { backend: Backend::Mem(MemLog::default()) }
    }
}

impl StableLog {
    /// Creates an empty in-memory stable log.
    pub fn new() -> Arc<Self> {
        Arc::new(StableLog::default())
    }

    /// Opens (creating if needed) a durable file-backed stable log in
    /// `dir` with default settings. On open, the tail segment is scanned
    /// and any torn final frame is truncated away.
    pub fn open_dir(dir: impl Into<std::path::PathBuf>) -> Result<Arc<Self>> {
        Self::open_file(FileLogConfig::new(dir))
    }

    /// Opens a file-backed stable log with explicit configuration.
    pub fn open_file(cfg: FileLogConfig) -> Result<Arc<Self>> {
        Ok(Arc::new(StableLog { backend: Backend::File(SegmentedFileLog::open(cfg)?) }))
    }

    /// Opens a file-backed stable log through an explicit I/O layer —
    /// the crash tests inject byte-level faults here.
    pub fn open_file_with(io: Arc<dyn WalIo>, cfg: FileLogConfig) -> Result<Arc<Self>> {
        Ok(Arc::new(StableLog { backend: Backend::File(SegmentedFileLog::open_with(io, cfg)?) }))
    }

    /// True for the durable file-backed backend.
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backend, Backend::File(_))
    }

    /// What opening the log directory found and repaired (file backend
    /// only).
    pub fn open_report(&self) -> Option<OpenReport> {
        match &self.backend {
            Backend::Mem(_) => None,
            Backend::File(f) => Some(f.open_report()),
        }
    }

    /// Reads the master record (NULL when no checkpoint was ever taken).
    pub fn master(&self) -> Lsn {
        match &self.backend {
            Backend::Mem(m) => *m.master.lock(),
            Backend::File(f) => f.master(),
        }
    }

    /// Atomically updates the master record. The caller must have flushed
    /// the checkpoint records first, or a crash between this write and the
    /// flush would point recovery at a checkpoint that does not exist. The
    /// file backend publishes via write-temp + fsync + rename.
    pub fn set_master(&self, lsn: Lsn) -> Result<()> {
        match &self.backend {
            Backend::Mem(m) => {
                *m.master.lock() = lsn;
                Ok(())
            }
            Backend::File(f) => f.set_master(lsn),
        }
    }

    /// LSN of the oldest record still present (0 if never truncated).
    pub fn base(&self) -> u64 {
        match &self.backend {
            Backend::Mem(m) => *m.base.lock(),
            Backend::File(f) => f.base(),
        }
    }

    /// Number of records on stable storage.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Mem(m) => m.records.lock().len(),
            Backend::File(f) => f.len(),
        }
    }

    /// True if no record is currently on stable storage.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `base + len`: every record with LSN below this has been written to
    /// the backend. Only [`LogManager::flush_to`] advances it, and only
    /// while holding the tail lock — which is what makes lock-free-looking
    /// reads of it from `append` consistent.
    fn horizon(&self) -> u64 {
        match &self.backend {
            Backend::Mem(m) => m.horizon(),
            Backend::File(f) => f.horizon(),
        }
    }

    fn append_encoded(&self, lsn: Lsn, bytes: &[u8]) -> Result<AppendOut> {
        match &self.backend {
            Backend::Mem(m) => Ok(m.append_encoded(bytes)),
            Backend::File(f) => f.append_encoded(lsn, bytes),
        }
    }

    /// Makes previously appended records durable; returns physical syncs
    /// performed (0 for the mem backend, where append is "durable").
    fn sync(&self) -> Result<u64> {
        match &self.backend {
            Backend::Mem(_) => Ok(0),
            Backend::File(f) => f.sync(),
        }
    }

    /// Hands `f` the stored bytes of every record in `[from, end)`, all of
    /// them stable; the file backend counts its reads into `metrics`.
    fn scan_encoded(
        &self,
        from: Lsn,
        end: u64,
        metrics: &LogMetrics,
        mut f: impl FnMut(Lsn, &[u8]) -> Result<()>,
    ) -> Result<()> {
        match &self.backend {
            Backend::Mem(m) => {
                (from.raw()..end).try_for_each(|lsn| f(Lsn(lsn), &m.read_encoded(Lsn(lsn))?))
            }
            Backend::File(file) => file.scan_encoded(from, end, metrics, f),
        }
    }

    fn rewrite_encoded(&self, lsn: Lsn, bytes: &[u8]) -> Result<()> {
        match &self.backend {
            Backend::Mem(m) => m.rewrite_encoded(lsn, bytes),
            Backend::File(f) => f.rewrite_encoded(lsn, bytes),
        }
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<u64> {
        match &self.backend {
            Backend::Mem(m) => Ok(m.truncate_prefix(upto)),
            Backend::File(f) => f.truncate_prefix(upto),
        }
    }
}

struct Inner {
    /// Unflushed records; record `stable_horizon + i` is `tail[i]`.
    tail: std::collections::VecDeque<LogRecord>,
}

/// Group-commit state: which prefix is durable, and whether a leader is
/// currently inside `fsync`.
struct SyncState {
    /// Every record with LSN below this is durable.
    durable: u64,
    /// A leader is syncing; followers wait on the condvar.
    syncing: bool,
}

/// Volatile interface to the log: appends, flushes, reads, scans, and
/// (baselines only) in-place rewrites.
///
/// All methods take `&self`; internal locking makes a shared
/// `Arc<LogManager>` safe for the multi-threaded ETM driver. The lock is
/// never held across user code, and `fsync` is issued outside every lock
/// but the group-commit latch.
pub struct LogManager {
    stable: Arc<StableLog>,
    inner: Mutex<Inner>,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    /// Built lazily by the time-travel lookups; always the outermost log
    /// lock (ingest reads records under it).
    index: Mutex<LogIndex>,
    metrics: Arc<LogMetrics>,
}

impl LogManager {
    /// Creates a log manager over a fresh in-memory stable log.
    pub fn new() -> Self {
        Self::attach(StableLog::new())
    }

    /// Attaches to an existing stable log — the post-crash constructor.
    /// Any record not in `stable` is gone, exactly like a real crash.
    pub fn attach(stable: Arc<StableLog>) -> Self {
        let durable = stable.horizon();
        LogManager {
            stable,
            inner: Mutex::named(
                Inner { tail: std::collections::VecDeque::new() },
                names::LS_WAL_INNER,
            ),
            sync_state: Mutex::named(
                SyncState { durable, syncing: false },
                names::LS_WAL_SYNC_STATE,
            ),
            sync_cv: Condvar::new(),
            index: Mutex::named(LogIndex::default(), names::LS_WAL_INDEX),
            metrics: Arc::new(LogMetrics::default()),
        }
    }

    /// The stable log, for handing to the next incarnation after a crash.
    pub fn stable(&self) -> Arc<StableLog> {
        Arc::clone(&self.stable)
    }

    /// Access the metrics counters.
    pub fn metrics(&self) -> &Arc<LogMetrics> {
        &self.metrics
    }

    /// Total number of records ever appended (truncated ones included —
    /// LSNs are positions in the *logical* log).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        self.stable.horizon() as usize + inner.tail.len()
    }

    /// LSN of the oldest record still readable (after truncation).
    pub fn first_lsn(&self) -> Lsn {
        Lsn(self.stable.base())
    }

    /// True if the log has no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// LSN the next append will receive.
    pub fn curr_lsn(&self) -> Lsn {
        Lsn(self.len() as u64)
    }

    /// LSN of the last record, or NULL on an empty log.
    pub fn last_lsn(&self) -> Lsn {
        match self.len() {
            0 => Lsn::NULL,
            n => Lsn(n as u64 - 1),
        }
    }

    /// Logical stable horizon: every record with LSN below this is on
    /// stable storage (or was, before truncation).
    pub fn stable_len(&self) -> usize {
        self.stable.horizon() as usize
    }

    /// Every record with LSN below this is **durable** — covered by a
    /// completed backend sync (for the mem backend this equals the stable
    /// horizon). Group-commit tests read this.
    pub fn durable_len(&self) -> u64 {
        self.sync_state.lock().durable
    }

    /// Blocks until the durable watermark reaches `target` (every record
    /// with LSN `< target` durable) or `timeout` elapses, whichever is
    /// first; returns the watermark at return time (`>= target` means
    /// the wait succeeded). Unlike [`LogManager::flush_to`] this never
    /// initiates a sync of its own — it observes group-commit progress
    /// driven by committers. That is exactly what a log-shipping loop
    /// wants: wake when commits land, idle (and heartbeat) when the
    /// primary is quiet, and never force empty fsyncs just to poll.
    pub fn wait_durable(&self, target: u64, timeout: std::time::Duration) -> u64 {
        let sw = rh_obs::Stopwatch::start();
        let mut st = self.sync_state.lock();
        while st.durable < target {
            let elapsed = sw.elapsed();
            if elapsed >= timeout {
                break;
            }
            // Parking on the group-commit condvar releases the lock, same
            // handoff protocol as `sync_to`'s followers.
            let _ = self.sync_cv.wait_for(&mut st, timeout - elapsed);
        }
        st.durable
    }

    /// Drops every stable record with LSN `< upto` (log truncation after
    /// a checkpoint). `upto` must not exceed the stable horizon, and the
    /// caller is responsible for `upto` being recovery-safe: no active
    /// transaction's first record, live scope, or dirty-page recLSN may
    /// lie below it. Returns the number of records dropped. The mem
    /// backend truncates exactly; the file backend only drops whole
    /// segments, so it may drop fewer records than asked.
    pub fn truncate_prefix(&self, upto: Lsn) -> Result<u64> {
        if upto.is_null() {
            return Ok(0);
        }
        // Clamp to the horizon so the volatile tail can never be dropped.
        let upto = upto.raw().min(self.stable.horizon());
        let dropped = self.stable.truncate_prefix(Lsn(upto))?;
        let mut index = self.index.lock();
        index.prune(self.first_lsn());
        self.metrics.record_index(0, index.entries());
        Ok(dropped)
    }

    /// Appends a record, assigning and returning its LSN.
    ///
    /// The caller provides `txn`, `prev_lsn` (its backward-chain head) and
    /// the body; the manager assigns the LSN, so records cannot be
    /// constructed with mismatched positions.
    pub fn append(&self, txn: TxnId, prev_lsn: Lsn, body: RecordBody) -> Lsn {
        let mut inner = self.inner.lock();
        // The horizon moves only under `inner` (see `flush_to`), so this
        // read is consistent for LSN assignment.
        let lsn = Lsn(self.stable.horizon() + inner.tail.len() as u64);
        inner.tail.push_back(LogRecord { lsn, txn, prev_lsn, body });
        self.metrics.record_append(lsn.raw());
        lsn
    }

    /// Forces every record with LSN `<= lsn` to stable storage, durably:
    /// frames are written under the tail lock, then made durable by a
    /// group-committed backend sync (one `fsync` may cover many
    /// concurrent callers).
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        if lsn.is_null() {
            return Ok(());
        }
        let target = {
            let mut inner = self.inner.lock();
            let mut moved = 0u64;
            let mut bytes = 0u64;
            let mut fsyncs = 0u64;
            while let Some(rec) = inner.tail.front().filter(|rec| rec.lsn <= lsn) {
                debug_assert_eq!(rec.lsn.raw(), self.stable.horizon(), "flush order");
                // Stable appends happen under the tail mutex so the
                // tail→stable handoff is atomic per record; the backend
                // only fsyncs here on a segment roll, and group sync
                // happens in `sync_to` after `inner` is released. The
                // record leaves the tail only once appended: a failed
                // append keeps it readable, and its LSN is never reissued.
                // rh-analyze: allow(L6)
                let out = self.stable.append_encoded(rec.lsn, &rec.to_bytes())?;
                inner.tail.pop_front();
                bytes += out.bytes;
                fsyncs += out.fsyncs;
                moved += 1;
            }
            self.metrics.record_flush(moved);
            self.metrics.record_flushed_bytes(bytes);
            self.metrics.record_fsyncs(fsyncs);
            self.stable.horizon()
        };
        self.sync_to(target)
    }

    /// Group commit: returns once every record with LSN `< target` is
    /// durable. At most one caller (the leader) is inside the backend
    /// sync at a time; its single sync covers every frame written before
    /// it started, so followers usually return without syncing at all.
    fn sync_to(&self, target: u64) -> Result<()> {
        let mut st = self.sync_state.lock();
        loop {
            if st.durable >= target {
                return Ok(());
            }
            if st.syncing {
                // Follower: the in-flight sync (or the next one) will
                // cover us; wait for the leader to publish.
                self.sync_cv.wait(&mut st);
                continue;
            }
            st.syncing = true;
            drop(st);
            // Snapshot before syncing: every frame fully written by now is
            // covered by this sync. Frames written *during* the sync are
            // not — their flushers keep waiting and a next leader syncs.
            let covered = self.stable.horizon();
            let result = self.stable.sync();
            st = self.sync_state.lock();
            st.syncing = false;
            self.sync_cv.notify_all();
            match result {
                Ok(fsyncs) => {
                    self.metrics.record_fsyncs(fsyncs);
                    st.durable = st.durable.max(covered);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Forces the entire log.
    pub fn flush_all(&self) -> Result<()> {
        self.flush_to(self.last_lsn())
    }

    /// Reads the record at `lsn`: a scan of one record, from the tail if
    /// unflushed. Counts a read and possibly a seek.
    pub fn read(&self, lsn: Lsn) -> Result<LogRecord> {
        if lsn.is_null() {
            return Err(RhError::CorruptLog { lsn, reason: "read of NULL lsn" });
        }
        let mut out = None;
        self.scan(lsn, lsn.next(), |rec| {
            out = Some(rec);
            Ok(())
        })?;
        out.ok_or(RhError::CorruptLog { lsn, reason: "read past end of log" })
    }

    /// Hands `f` every record in `[from, end)` in LSN order: the stable
    /// ones decoded from [`Self::scan_bytes`], then the unflushed tail.
    /// Each record is checked as [`Self::read`] checks it and counted as
    /// one read, and `f` runs with no log lock held. The forward pass,
    /// the time-travel index ingest and log dumps are built on this.
    pub fn scan(
        &self,
        from: Lsn,
        end: Lsn,
        mut f: impl FnMut(LogRecord) -> Result<()>,
    ) -> Result<()> {
        let mut lsn = from.raw();
        while lsn < end.raw() {
            let stable_end = self.stable.horizon().min(end.raw());
            if lsn < stable_end {
                self.scan_bytes(Lsn(lsn), Lsn(stable_end), |at, bytes| f(decode(at, bytes)?))?;
                lsn = stable_end;
                continue;
            }
            // A tail record, copied out under the tail lock: one that a
            // concurrent flush moved meanwhile is read from stable storage.
            let rec = {
                let inner = self.inner.lock();
                let horizon = self.stable.horizon();
                if lsn < horizon {
                    continue;
                }
                inner.tail.get((lsn - horizon) as usize).cloned()
            };
            let past_end = RhError::CorruptLog { lsn: Lsn(lsn), reason: "read past end of log" };
            self.metrics.record_read(lsn);
            f(rec.ok_or(past_end)?)?;
            lsn += 1;
        }
        Ok(())
    }

    /// Hands `f` the verified stored bytes of every record in `[from,
    /// end)`, all of them stable, in LSN order: one positioned read per
    /// run of frames (up to 64 KiB) on the file backend. Counts each
    /// record as one read; `f` runs with no log lock held.
    pub fn scan_bytes(
        &self,
        from: Lsn,
        end: Lsn,
        mut f: impl FnMut(Lsn, &[u8]) -> Result<()>,
    ) -> Result<()> {
        self.stable.scan_encoded(from, end.raw(), &self.metrics, |lsn, bytes| {
            self.metrics.record_read(lsn.raw());
            f(lsn, bytes)
        })
    }

    /// Overwrites the record at `lsn` **in place**. Only the eager and
    /// lazy rewriting baselines use this; it exists so the paper's naïve
    /// alternatives can be implemented faithfully and measured. The new
    /// record keeps the old LSN. On the file backend the re-encoded
    /// record must keep its length (frames are packed); all baseline
    /// rewrites do, since they edit fixed-width fields.
    pub fn rewrite_in_place(&self, lsn: Lsn, f: impl FnOnce(&mut LogRecord)) -> Result<()> {
        self.metrics.record_rewrite(lsn.raw());
        let out = self.rewrite_record(lsn, f);
        // The index may hold the record's old form: start it over.
        *self.index.lock() = LogIndex::default();
        self.metrics.record_index(0, 0);
        out
    }

    fn rewrite_record(&self, lsn: Lsn, f: impl FnOnce(&mut LogRecord)) -> Result<()> {
        {
            let mut inner = self.inner.lock();
            let horizon = self.stable.horizon();
            if lsn.raw() >= horizon {
                let idx = (lsn.raw() - horizon) as usize;
                let rec = inner
                    .tail
                    .get_mut(idx)
                    .ok_or(RhError::CorruptLog { lsn, reason: "rewrite past end of log" })?;
                f(rec);
                rec.lsn = lsn;
                return Ok(());
            }
        }
        let mut stored = Err(RhError::CorruptLog { lsn, reason: "rewrite past end of log" });
        self.stable.scan_encoded(lsn, lsn.raw() + 1, &self.metrics, |_, bytes| {
            stored = decode(lsn, bytes);
            Ok(())
        })?;
        let mut rec = stored?;
        f(&mut rec);
        rec.lsn = lsn;
        self.stable.rewrite_encoded(lsn, &rec.to_bytes())
    }

    /// Ingests every record through `upto` (clamped to the last record)
    /// into the index, then runs `f` on it under the index lock. A read
    /// error stops the ingest where it failed and is returned; the next
    /// lookup resumes there.
    fn indexed<R>(&self, upto: Lsn, f: impl FnOnce(&LogIndex) -> R) -> Result<R> {
        let mut index = self.index.lock();
        // `Lsn::NULL` sorts last, so it means the tail.
        if upto.raw() >= index.next() {
            // Exclusive bound.
            let end = match self.last_lsn() {
                last if last.is_null() => 0,
                last => upto.min(last).raw() + 1,
            };
            let from = index.next().max(self.stable.base());
            let mut ingested = 0;
            let scanned = self.scan(Lsn(from), Lsn(end), |rec| {
                index.add(&rec);
                ingested += 1;
                Ok(())
            });
            self.metrics.record_index(ingested, index.entries());
            scanned?;
        }
        Ok(f(&index))
    }

    /// The newest retained `CheckpointEnd` at or below `lsn`, if any.
    pub fn checkpoint_at_or_below(&self, lsn: Lsn) -> Result<Option<Lsn>> {
        let first = self.first_lsn();
        Ok(self.indexed(lsn, |ix| ix.checkpoint_at_or_below(lsn))?.filter(|&c| c >= first))
    }

    /// LSNs in `[lo, hi]`, ascending, of the records about `ob`: its
    /// updates and CLRs, and the delegations whose object list names it.
    pub fn object_lsns(&self, ob: ObjectId, lo: Lsn, hi: Lsn) -> Result<Vec<Lsn>> {
        self.indexed(hi, |ix| ix.object(ob, lo, hi).to_vec())
    }

    /// LSNs in `[lo, hi]`, ascending, of the transaction-scoped records
    /// of `txns`: commit, coordinator commit, abort, prepare and end
    /// records, and the whole-list (`Delegate{All}`) delegations each
    /// issued.
    pub fn txn_lsns(&self, txns: &[TxnId], lo: Lsn, hi: Lsn) -> Result<Vec<Lsn>> {
        self.indexed(hi, |ix| {
            let mut out: Vec<Lsn> = txns.iter().flat_map(|&t| ix.txn(t, lo, hi)).copied().collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Simulates a crash: the volatile tail is dropped. Returns the stable
    /// log to attach a recovering manager to.
    pub fn crash(self) -> Arc<StableLog> {
        // Dropping `self.inner` loses the tail; only `stable` survives.
        self.stable
    }
}

/// Decodes the stored bytes of record `lsn`, checking the LSN they carry.
fn decode(lsn: Lsn, bytes: &[u8]) -> Result<LogRecord> {
    let rec = LogRecord::from_bytes(bytes)
        .map_err(|_| RhError::CorruptLog { lsn, reason: "undecodable record" })?;
    if rec.lsn != lsn {
        return Err(RhError::CorruptLog { lsn, reason: "stored lsn mismatch" });
    }
    Ok(rec)
}

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

impl rh_storage::LogFlush for LogManager {
    fn flush_to(&self, lsn: Lsn) -> Result<()> {
        LogManager::flush_to(self, lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_common::{ObjectId, UpdateOp};

    fn upd(ob: u64) -> RecordBody {
        RecordBody::Update { ob: ObjectId(ob), op: UpdateOp::Add { delta: 1 } }
    }

    #[test]
    fn appends_assign_dense_lsns() {
        let log = LogManager::new();
        assert_eq!(log.append(TxnId(1), Lsn::NULL, RecordBody::Begin), Lsn(0));
        assert_eq!(log.append(TxnId(1), Lsn(0), upd(0)), Lsn(1));
        assert_eq!(log.curr_lsn(), Lsn(2));
        assert_eq!(log.last_lsn(), Lsn(1));
    }

    #[test]
    fn read_from_tail_and_stable() {
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        log.append(TxnId(1), Lsn(0), upd(3));
        // Unflushed: read from tail.
        assert_eq!(log.read(Lsn(1)).unwrap().body, upd(3));
        log.flush_all().unwrap();
        // Flushed: decode from stable bytes.
        let rec = log.read(Lsn(1)).unwrap();
        assert_eq!(rec.body, upd(3));
        assert_eq!(rec.txn, TxnId(1));
        assert_eq!(rec.prev_lsn, Lsn(0));
    }

    #[test]
    fn flush_to_is_a_prefix_operation() {
        let log = LogManager::new();
        for i in 0..5 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.flush_to(Lsn(2)).unwrap();
        assert_eq!(log.stable_len(), 3);
        log.flush_to(Lsn(1)).unwrap(); // already stable: no-op
        assert_eq!(log.stable_len(), 3);
        log.flush_all().unwrap();
        assert_eq!(log.stable_len(), 5);
    }

    #[test]
    fn wait_durable_observes_progress_without_forcing_it() {
        let log = std::sync::Arc::new(LogManager::new());
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        log.append(TxnId(1), Lsn(0), upd(0));
        // Nothing flushed: a bounded wait must time out and report the
        // actual watermark, never sync on the waiter's behalf.
        assert_eq!(log.wait_durable(2, std::time::Duration::from_millis(10)), 0);
        assert_eq!(log.stable_len(), 0);
        // Already-satisfied targets return immediately.
        assert_eq!(log.wait_durable(0, std::time::Duration::from_secs(30)), 0);
        // A committer's flush on another thread wakes the waiter.
        let log2 = std::sync::Arc::clone(&log);
        let t =
            std::thread::spawn(move || log2.wait_durable(2, std::time::Duration::from_secs(30)));
        log.flush_all().unwrap();
        assert_eq!(t.join().unwrap(), 2);
    }

    #[test]
    fn crash_loses_exactly_the_unflushed_tail() {
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        log.append(TxnId(1), Lsn(0), upd(0));
        log.flush_to(Lsn(1)).unwrap();
        log.append(TxnId(1), Lsn(1), RecordBody::Commit); // never forced
        let stable = log.crash();
        let log2 = LogManager::attach(stable);
        assert_eq!(log2.len(), 2); // commit record gone
        assert_eq!(log2.read(Lsn(1)).unwrap().body, upd(0));
        assert!(log2.read(Lsn(2)).is_err());
    }

    #[test]
    fn post_crash_appends_continue_the_lsn_space() {
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        log.flush_all().unwrap();
        log.append(TxnId(1), Lsn(0), upd(0)); // lost
        let log2 = LogManager::attach(log.crash());
        assert_eq!(log2.append(TxnId(2), Lsn::NULL, RecordBody::Begin), Lsn(1));
    }

    #[test]
    fn rewrite_in_place_changes_txn_field() {
        // The eager baseline's setTransID (paper Fig. 1).
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, upd(0));
        log.flush_all().unwrap();
        log.rewrite_in_place(Lsn(0), |rec| rec.txn = TxnId(2)).unwrap();
        assert_eq!(log.read(Lsn(0)).unwrap().txn, TxnId(2));
        assert_eq!(log.metrics().snapshot().in_place_rewrites, 1);
    }

    #[test]
    fn rewrite_in_place_works_on_unflushed_tail_too() {
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, upd(0));
        log.rewrite_in_place(Lsn(0), |rec| rec.txn = TxnId(9)).unwrap();
        assert_eq!(log.read(Lsn(0)).unwrap().txn, TxnId(9));
    }

    #[test]
    fn scan_visits_in_order() {
        let log = LogManager::new();
        for i in 0..4 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.flush_to(Lsn(1)).unwrap();
        let mut seen = Vec::new();
        log.scan(Lsn(1), Lsn(4), |rec| {
            seen.push(rec.lsn);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![Lsn(1), Lsn(2), Lsn(3)]);
    }

    #[test]
    fn scan_empty_ranges() {
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        let mut n = 0;
        for (from, end) in [(Lsn(1), Lsn(0)), (Lsn(1), Lsn(1)), (Lsn::NULL, Lsn(0))] {
            log.scan(from, end, |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(n, 0);
    }

    #[test]
    fn read_null_lsn_is_an_error() {
        let log = LogManager::new();
        assert!(log.read(Lsn::NULL).is_err());
    }

    #[test]
    fn truncate_prefix_drops_old_records_keeps_lsns() {
        let log = LogManager::new();
        for i in 0..6 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.flush_all().unwrap();
        assert_eq!(log.truncate_prefix(Lsn(3)).unwrap(), 3);
        assert_eq!(log.first_lsn(), Lsn(3));
        assert_eq!(log.len(), 6); // logical length unchanged
                                  // Old reads fail cleanly; surviving records keep their LSNs.
        assert!(log.read(Lsn(2)).is_err());
        assert_eq!(log.read(Lsn(4)).unwrap().body, upd(4));
        // Appends continue in the same LSN space.
        assert_eq!(log.append(TxnId(1), Lsn::NULL, upd(9)), Lsn(6));
        log.flush_all().unwrap();
        assert_eq!(log.read(Lsn(6)).unwrap().body, upd(9));
    }

    #[test]
    fn truncation_survives_crash() {
        let log = LogManager::new();
        for i in 0..4 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.flush_all().unwrap();
        log.truncate_prefix(Lsn(2)).unwrap();
        let log2 = LogManager::attach(log.crash());
        assert_eq!(log2.first_lsn(), Lsn(2));
        assert_eq!(log2.len(), 4);
        assert!(log2.read(Lsn(1)).is_err());
        assert_eq!(log2.read(Lsn(3)).unwrap().body, upd(3));
    }

    #[test]
    fn truncate_is_idempotent_and_bounded() {
        let log = LogManager::new();
        for i in 0..4 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.flush_to(Lsn(1)).unwrap(); // 2 stable, 2 volatile
                                       // Cannot truncate past the stable horizon.
        assert_eq!(log.truncate_prefix(Lsn(10)).unwrap(), 2);
        assert_eq!(log.first_lsn(), Lsn(2));
        // Re-truncating at or below base is a no-op.
        assert_eq!(log.truncate_prefix(Lsn(1)).unwrap(), 0);
        assert_eq!(log.truncate_prefix(Lsn::NULL).unwrap(), 0);
    }

    #[test]
    fn metrics_distinguish_sequential_from_seeking() {
        let log = LogManager::new();
        for i in 0..10 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.metrics().reset();
        // Sequential backward read: no seeks.
        for i in (0..10).rev() {
            log.read(Lsn(i)).unwrap();
        }
        assert_eq!(log.metrics().snapshot().seeks, 0);
        // Chain-following read pattern: seeks.
        log.read(Lsn(9)).unwrap();
        log.read(Lsn(2)).unwrap();
        assert_eq!(log.metrics().snapshot().seeks, 2); // 0->9 and 9->2
    }

    // ---- the time-travel index ----------------------------------------

    #[test]
    fn index_ingests_lazily_up_to_the_asked_lsn() {
        let log = LogManager::new();
        for i in 0..6 {
            log.append(TxnId(1), Lsn::NULL, upd(i % 2));
        }
        log.append(TxnId(1), Lsn::NULL, RecordBody::Commit);
        log.flush_all().unwrap();
        // Appends and flushes index nothing.
        assert_eq!(log.metrics().snapshot().index_ingested, 0);
        assert_eq!(log.object_lsns(ObjectId(0), Lsn(0), Lsn(3)).unwrap(), vec![Lsn(0), Lsn(2)]);
        assert_eq!(log.metrics().snapshot().index_ingested, 4);
        // A target below the ingest mark reads nothing new.
        assert_eq!(log.object_lsns(ObjectId(1), Lsn(0), Lsn(1)).unwrap(), vec![Lsn(1)]);
        assert_eq!(log.metrics().snapshot().index_ingested, 4);
        assert_eq!(log.txn_lsns(&[TxnId(1)], Lsn(0), Lsn::NULL).unwrap(), vec![Lsn(6)]);
        let snap = log.metrics().snapshot();
        assert_eq!((snap.index_ingested, snap.index_entries), (7, 7));
    }

    #[test]
    fn index_on_an_empty_log_is_empty() {
        let log = LogManager::new();
        assert!(log.object_lsns(ObjectId(0), Lsn(0), Lsn(5)).unwrap().is_empty());
        assert_eq!(log.checkpoint_at_or_below(Lsn::NULL).unwrap(), None);
    }

    #[test]
    fn index_skips_checkpoints_below_the_truncation_point() {
        let log = LogManager::new();
        let end = || RecordBody::CheckpointEnd { payload: Vec::new() };
        log.append(TxnId::NONE, Lsn::NULL, end());
        log.append(TxnId(1), Lsn::NULL, upd(0));
        log.append(TxnId::NONE, Lsn::NULL, end());
        log.flush_all().unwrap();
        assert_eq!(log.checkpoint_at_or_below(Lsn(1)).unwrap(), Some(Lsn(0)));
        log.truncate_prefix(Lsn(1)).unwrap();
        assert_eq!(log.checkpoint_at_or_below(Lsn(1)).unwrap(), None);
        assert_eq!(log.checkpoint_at_or_below(Lsn(2)).unwrap(), Some(Lsn(2)));
        assert_eq!(log.metrics().snapshot().index_entries, 2);
    }

    #[test]
    fn index_resets_after_rewrite_in_place() {
        let log = LogManager::new();
        log.append(TxnId(1), Lsn::NULL, upd(0));
        log.append(TxnId(1), Lsn::NULL, upd(0));
        log.flush_all().unwrap();
        assert_eq!(log.object_lsns(ObjectId(0), Lsn(0), Lsn(1)).unwrap().len(), 2);
        log.rewrite_in_place(Lsn(1), |rec| rec.body = upd(5)).unwrap();
        assert_eq!(log.metrics().snapshot().index_entries, 0);
        assert_eq!(log.object_lsns(ObjectId(0), Lsn(0), Lsn(1)).unwrap(), vec![Lsn(0)]);
        assert_eq!(log.object_lsns(ObjectId(5), Lsn(0), Lsn(1)).unwrap(), vec![Lsn(1)]);
    }

    // ---- file-backed backend through the same LogManager API ----------

    fn scratch(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rh-wal-log-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_backend_matches_mem_semantics() {
        let dir = scratch("semantics");
        let log = LogManager::attach(StableLog::open_dir(&dir).unwrap());
        assert!(log.stable().is_file_backed());
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        log.append(TxnId(1), Lsn(0), upd(3));
        assert_eq!(log.read(Lsn(1)).unwrap().body, upd(3)); // from tail
        log.flush_to(Lsn(1)).unwrap();
        assert_eq!(log.stable_len(), 2);
        assert_eq!(log.durable_len(), 2);
        assert_eq!(log.read(Lsn(1)).unwrap().body, upd(3)); // from file
        assert!(log.metrics().snapshot().fsyncs >= 1);
        assert!(log.metrics().snapshot().bytes_flushed > 0);
    }

    #[test]
    fn file_backend_survives_full_process_restart() {
        let dir = scratch("restart");
        {
            let log = LogManager::attach(StableLog::open_dir(&dir).unwrap());
            log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
            log.append(TxnId(1), Lsn(0), upd(7));
            log.flush_all().unwrap();
            log.stable().set_master(Lsn(0)).unwrap();
            log.append(TxnId(1), Lsn(1), RecordBody::Commit); // never forced
                                                              // Dropped without crash(): a hard process death.
        }
        let stable = StableLog::open_dir(&dir).unwrap();
        assert_eq!(stable.master(), Lsn(0));
        let log2 = LogManager::attach(stable);
        assert_eq!(log2.len(), 2); // unforced commit is gone
        assert_eq!(log2.read(Lsn(1)).unwrap().body, upd(7));
        assert_eq!(log2.append(TxnId(2), Lsn::NULL, RecordBody::Begin), Lsn(2));
    }

    #[test]
    fn file_backend_rewrite_in_place_same_length() {
        let dir = scratch("rewrite");
        let log = LogManager::attach(StableLog::open_dir(&dir).unwrap());
        log.append(TxnId(1), Lsn::NULL, upd(0));
        log.flush_all().unwrap();
        log.rewrite_in_place(Lsn(0), |rec| rec.txn = TxnId(2)).unwrap();
        assert_eq!(log.read(Lsn(0)).unwrap().txn, TxnId(2));
    }

    #[test]
    fn concurrent_flushers_group_commit() {
        use std::sync::Barrier;
        let dir = scratch("group");
        let log = Arc::new(LogManager::attach(StableLog::open_dir(&dir).unwrap()));
        let threads = 8;
        let per_thread = 16;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = Arc::clone(&log);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..per_thread {
                        let lsn = log.append(
                            TxnId(t as u64),
                            Lsn::NULL,
                            upd((t * per_thread + i) as u64),
                        );
                        log.flush_to(lsn).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * per_thread) as u64;
        assert_eq!(log.stable_len() as u64, total);
        assert_eq!(log.durable_len(), total);
        let snap = log.metrics().snapshot();
        // Group commit can only merge syncs, never skip one that was
        // needed: every flush is covered, and the count never exceeds
        // one sync per flush call.
        assert!(snap.fsyncs >= 1);
        assert!(snap.fsyncs <= total, "more syncs than flushes: {}", snap.fsyncs);
        // Every record survives a reopen.
        drop(log);
        let log2 = LogManager::attach(StableLog::open_dir(&dir).unwrap());
        assert_eq!(log2.len() as u64, total);
    }
}
