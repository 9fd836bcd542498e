//! Log access-pattern counters.
//!
//! The paper's efficiency case (§3.2, §4.2) is entirely about how the log
//! is touched: the naïve eager rewrite does "frequent and costly log
//! accesses ... random \[in\] nature (as opposed to the usual append-only)";
//! ARIES/RH "visits each log record at most once and in a monotonically
//! decreasing way". These counters let the experiments measure exactly
//! that, independent of wall-clock noise:
//!
//! * `appends` / `records_flushed` / `flushes` — normal append-only traffic;
//! * `records_read` — every record decode;
//! * `stable_reads` — positioned reads of segment files by reads and
//!   scans (a scan issues one per run of frames, not per record);
//! * `seeks` — reads that were *not* adjacent (±1) to the previous access,
//!   i.e. the random jumps that thrash a disk-resident log;
//! * `in_place_rewrites` — stable records overwritten after the fact,
//!   which only the eager/lazy **baselines** ever do. ARIES/RH keeps this
//!   at zero by construction, and tests assert it;
//! * `fsyncs` / `bytes_flushed` — physical durability cost of the
//!   file-backed log (both stay 0 on the in-memory backend). With group
//!   commit, `fsyncs` can be far below `flushes` under concurrency;
//! * `index_ingested` / `index_entries` — records the time-travel index
//!   has read (each once), and the LSNs it currently holds (a gauge; see
//!   [`crate::LogManager::object_lsns`]).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Cumulative counters for one log.
#[derive(Debug)]
pub struct LogMetrics {
    appends: AtomicU64,
    flushes: AtomicU64,
    records_flushed: AtomicU64,
    records_read: AtomicU64,
    stable_reads: AtomicU64,
    seeks: AtomicU64,
    in_place_rewrites: AtomicU64,
    fsyncs: AtomicU64,
    bytes_flushed: AtomicU64,
    index_ingested: AtomicU64,
    index_entries: AtomicU64,
    /// Raw LSN of the last record touched (append/read/rewrite), or -1.
    last_pos: AtomicI64,
}

impl Default for LogMetrics {
    fn default() -> Self {
        LogMetrics {
            appends: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            records_flushed: AtomicU64::new(0),
            records_read: AtomicU64::new(0),
            stable_reads: AtomicU64::new(0),
            seeks: AtomicU64::new(0),
            in_place_rewrites: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes_flushed: AtomicU64::new(0),
            index_ingested: AtomicU64::new(0),
            index_entries: AtomicU64::new(0),
            last_pos: AtomicI64::new(-1),
        }
    }
}

/// Plain-data snapshot of [`LogMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogMetricsSnapshot {
    /// Records appended.
    pub appends: u64,
    /// Flush calls that actually moved records to stable storage.
    pub flushes: u64,
    /// Records moved to stable storage.
    pub records_flushed: u64,
    /// Records read (decoded) from the log.
    pub records_read: u64,
    /// Positioned reads of segment files (file backend only).
    pub stable_reads: u64,
    /// Non-adjacent accesses (distance > 1 from the previous touch).
    pub seeks: u64,
    /// Stable records overwritten in place (baselines only).
    pub in_place_rewrites: u64,
    /// Physical `fsync`/`fdatasync` calls issued (file backend only).
    pub fsyncs: u64,
    /// Bytes of encoded frames written to stable storage.
    pub bytes_flushed: u64,
    /// Records ingested into the time-travel index.
    pub index_ingested: u64,
    /// LSNs the time-travel index holds now (a gauge).
    pub index_entries: u64,
}

impl LogMetrics {
    fn touch(&self, pos: u64) {
        let prev = self.last_pos.swap(pos as i64, Ordering::Relaxed);
        if prev >= 0 {
            let dist = (pos as i64 - prev).abs();
            if dist > 1 {
                self.seeks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_append(&self, pos: u64) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.touch(pos);
    }

    pub(crate) fn record_read(&self, pos: u64) {
        self.records_read.fetch_add(1, Ordering::Relaxed);
        self.touch(pos);
    }

    pub(crate) fn record_stable_read(&self) {
        self.stable_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rewrite(&self, pos: u64) {
        self.in_place_rewrites.fetch_add(1, Ordering::Relaxed);
        self.touch(pos);
    }

    pub(crate) fn record_flush(&self, n_records: u64) {
        if n_records > 0 {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.records_flushed.fetch_add(n_records, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_fsyncs(&self, n: u64) {
        if n > 0 {
            self.fsyncs.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_flushed_bytes(&self, n: u64) {
        if n > 0 {
            self.bytes_flushed.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_index(&self, ingested: u64, entries: u64) {
        if ingested > 0 {
            self.index_ingested.fetch_add(ingested, Ordering::Relaxed);
        }
        self.index_entries.store(entries, Ordering::Relaxed);
    }

    /// Takes a snapshot for reporting.
    pub fn snapshot(&self) -> LogMetricsSnapshot {
        LogMetricsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            records_flushed: self.records_flushed.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            stable_reads: self.stable_reads.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            in_place_rewrites: self.in_place_rewrites.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes_flushed: self.bytes_flushed.load(Ordering::Relaxed),
            index_ingested: self.index_ingested.load(Ordering::Relaxed),
            index_entries: self.index_entries.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters (used between benchmark phases). The index
    /// gauge keeps describing the live index.
    pub fn reset(&self) {
        self.appends.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.records_flushed.store(0, Ordering::Relaxed);
        self.records_read.store(0, Ordering::Relaxed);
        self.stable_reads.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.in_place_rewrites.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        self.bytes_flushed.store(0, Ordering::Relaxed);
        self.index_ingested.store(0, Ordering::Relaxed);
        self.last_pos.store(-1, Ordering::Relaxed);
    }
}

impl LogMetricsSnapshot {
    /// Absorbs this snapshot into a unified [`rh_obs::Registry`] under
    /// the `log.*` prefix, and the index figures under `reenact.index.*`
    /// (absolute values; re-absorption overwrites).
    pub fn export_into(&self, registry: &rh_obs::Registry) {
        use rh_obs::names;
        registry.set(names::M_LOG_APPENDS, self.appends);
        registry.set(names::M_LOG_FLUSHES, self.flushes);
        registry.set(names::M_LOG_RECORDS_FLUSHED, self.records_flushed);
        registry.set(names::M_LOG_RECORDS_READ, self.records_read);
        registry.set(names::M_LOG_STABLE_READS, self.stable_reads);
        registry.set(names::M_LOG_SEEKS, self.seeks);
        registry.set(names::M_LOG_IN_PLACE_REWRITES, self.in_place_rewrites);
        registry.set(names::M_LOG_FSYNCS, self.fsyncs);
        registry.set(names::M_LOG_BYTES_FLUSHED, self.bytes_flushed);
        registry.set(names::M_REENACT_INDEX_INGESTED, self.index_ingested);
        registry.set(names::M_REENACT_INDEX_ENTRIES, self.index_entries);
    }

    /// Difference since an earlier snapshot (for per-phase reporting);
    /// the index gauge keeps this snapshot's value.
    pub fn since(&self, earlier: &LogMetricsSnapshot) -> LogMetricsSnapshot {
        LogMetricsSnapshot {
            appends: self.appends - earlier.appends,
            flushes: self.flushes - earlier.flushes,
            records_flushed: self.records_flushed - earlier.records_flushed,
            records_read: self.records_read - earlier.records_read,
            stable_reads: self.stable_reads - earlier.stable_reads,
            seeks: self.seeks - earlier.seeks,
            in_place_rewrites: self.in_place_rewrites - earlier.in_place_rewrites,
            fsyncs: self.fsyncs - earlier.fsyncs,
            bytes_flushed: self.bytes_flushed - earlier.bytes_flushed,
            index_ingested: self.index_ingested - earlier.index_ingested,
            index_entries: self.index_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_accesses_do_not_seek() {
        let m = LogMetrics::default();
        m.record_append(0);
        m.record_append(1);
        m.record_append(2);
        assert_eq!(m.snapshot().seeks, 0);
    }

    #[test]
    fn backward_adjacent_scan_does_not_seek() {
        // The paper's backward pass reads K, K-1, K-2 ... ; adjacency in
        // either direction is "sequential" for our purposes.
        let m = LogMetrics::default();
        m.record_read(10);
        m.record_read(9);
        m.record_read(8);
        assert_eq!(m.snapshot().seeks, 0);
        assert_eq!(m.snapshot().records_read, 3);
    }

    #[test]
    fn jumps_count_as_seeks() {
        let m = LogMetrics::default();
        m.record_read(100);
        m.record_read(5); // backward-chain jump
        m.record_read(80); // another jump
        assert_eq!(m.snapshot().seeks, 2);
    }

    #[test]
    fn flush_counts_records() {
        let m = LogMetrics::default();
        m.record_flush(0); // no-op flush
        m.record_flush(3);
        let s = m.snapshot();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.records_flushed, 3);
    }

    #[test]
    fn since_subtracts() {
        let m = LogMetrics::default();
        m.record_append(0);
        let before = m.snapshot();
        m.record_append(1);
        m.record_rewrite(0);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.appends, 1);
        assert_eq!(delta.in_place_rewrites, 1);
    }

    #[test]
    fn backward_minus_one_adjacency_is_sequential_from_any_entry() {
        // Entering a cluster at its right end (a jump) then stepping
        // K <- K-1 must charge exactly the one entry seek.
        let m = LogMetrics::default();
        m.record_append(100);
        m.record_read(50); // jump into a cluster
        m.record_read(49);
        m.record_read(48);
        assert_eq!(m.snapshot().seeks, 1);
    }

    #[test]
    fn rewrite_then_read_adjacency() {
        // The lazy baseline rewrites LOG[k] in place and then continues
        // its sweep at k-1: the rewrite repositions the head, so the
        // following read is adjacent, not a seek.
        let m = LogMetrics::default();
        m.record_read(10);
        m.record_rewrite(10); // same position: not a seek
        m.record_read(9); // adjacent to the rewrite
        let s = m.snapshot();
        assert_eq!(s.seeks, 0);
        assert_eq!(s.in_place_rewrites, 1);
        assert_eq!(s.records_read, 2);
    }

    #[test]
    fn empty_log_snapshot_is_all_zero_and_first_touch_never_seeks() {
        let m = LogMetrics::default();
        assert_eq!(m.snapshot(), LogMetricsSnapshot::default());
        // The very first access has no predecessor — position 1000 is
        // arbitrary and must not count as a seek against last_pos = -1.
        m.record_read(1000);
        assert_eq!(m.snapshot().seeks, 0);
    }

    #[test]
    fn reset_forgets_position() {
        let m = LogMetrics::default();
        m.record_append(5);
        m.reset();
        assert_eq!(m.snapshot(), LogMetricsSnapshot::default());
        // After reset the next access is a "first touch" again.
        m.record_read(999);
        assert_eq!(m.snapshot().seeks, 0);
    }

    #[test]
    fn exports_into_registry_absolutely() {
        let m = LogMetrics::default();
        m.record_append(0);
        m.record_append(1);
        m.record_read(10); // distance 9: one seek
        let reg = rh_obs::Registry::new();
        m.snapshot().export_into(&reg);
        m.snapshot().export_into(&reg); // idempotent, not doubling
        let s = reg.snapshot();
        assert_eq!(s.counter("log.appends"), 2);
        assert_eq!(s.counter("log.records_read"), 1);
        assert_eq!(s.counter("log.seeks"), 1);
        assert_eq!(s.counter("log.in_place_rewrites"), 0);
    }
}
