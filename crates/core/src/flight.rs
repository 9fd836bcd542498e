//! The flight recorder: black boxes frozen into the write-ahead log.
//!
//! A [`FlightRecorder`] freezes an observability context — a metric
//! snapshot, the tail of the trace ring and the slow-op log — into an
//! `rh_obs::blackbox` record and appends it to the engine's own log as a
//! non-transactional [`RecordBody::BlackBox`] record. A box is not forced
//! on its own account: it rides the next group-commit flush. After a
//! crash, the next incarnation's forward pass keeps the newest box it
//! passes and recovery diffs it against its own post-recovery state (the
//! `postmortem` section of [`crate::recovery::RecoveryReport`]). A read
//! replica receives the boxes with the rest of the log, so a promoted
//! replica explains the primary it replaced.
//!
//! Boxes are frozen at checkpoints, at the end of recovery and
//! promotion, on explicit [`crate::RhDb::record_blackbox`] calls, and —
//! while a server runs — by [`FlightRecorder::tick`] on the one-second
//! [`CADENCE`], from a thread that holds no engine mutex. Only
//! file-backed logs carry boxes, so in-memory logs read exactly as the
//! paper's.
//!
//! Everything here is **best-effort by construction**: a black box must
//! never take the plane down. A failed force only bumps
//! `blackbox.errors`; no error ever propagates into the engine.

use rh_common::codec::Codec;
use rh_common::{Lsn, TxnId};
use rh_obs::{blackbox, names, BlackBoxRecord, Obs, RegistrySnapshot, Stopwatch};
use rh_wal::record::{LogRecord, RecordBody};
use rh_wal::{frame, segment, LogManager};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The served cadence: each shard whose log grew freezes one box per
/// period.
pub const CADENCE: Duration = Duration::from_secs(1);

/// At most this many trailing trace events are frozen per box — what a
/// postmortem renders (its final spans and the recovery sweep map). The
/// whole ring would make every box tens of kilobytes.
pub const BLACKBOX_TRACE_EVENTS: usize = 32;

/// At most this many of the slowest slow-op entries are frozen per box.
/// With the trace-tail cap this keeps a box within 8 KB.
pub const BLACKBOX_SLOW_OPS: usize = 8;

/// The engine-side flight recorder. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Stopwatch,
    /// One past the LSN of the newest box this recorder appended; zero
    /// before the first.
    last: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder { epoch: Stopwatch::start(), last: AtomicU64::new(0) }
    }
}

impl FlightRecorder {
    /// Freezes `metrics` with `obs`'s trace tail and slow-op log into one
    /// box and appends it to `log`, unforced. Returns the box's LSN,
    /// which is also its `seq`.
    pub fn append(
        &self,
        log: &LogManager,
        reason: &str,
        metrics: &RegistrySnapshot,
        obs: &Obs,
    ) -> Lsn {
        let trace = obs.tracer.tail(BLACKBOX_TRACE_EVENTS);
        let payload = blackbox::encode_record(
            self.epoch.elapsed_micros(),
            reason,
            metrics,
            &trace,
            obs.slowops.top_json(BLACKBOX_SLOW_OPS),
        );
        let bytes = payload.len() as u64;
        let lsn = log.append(TxnId::NONE, Lsn::NULL, RecordBody::BlackBox { payload });
        self.last.fetch_max(lsn.raw() + 1, Ordering::Relaxed);
        obs.registry.inc(names::M_BLACKBOX_RECORDS);
        obs.registry.add(names::M_BLACKBOX_BYTES, bytes);
        obs.tracer.point(
            names::EV_BLACKBOX_RECORD,
            lsn.raw(),
            lsn.raw(),
            rh_obs::trace::NONE,
            bytes,
        );
        lsn
    }

    /// Forces `log` through `lsn`; a failure bumps `blackbox.errors` and
    /// reads as `false`.
    pub fn force(log: &LogManager, lsn: Lsn, obs: &Obs) -> bool {
        let forced = log.flush_to(lsn).is_ok();
        if !forced {
            obs.registry.inc(names::M_BLACKBOX_ERRORS);
        }
        forced
    }

    /// One cadence tick. Forces the log only if the previous box is
    /// still not durable; then freezes a new box from `metrics` unless
    /// the log has not grown since the previous one — an idle log stays
    /// as it is.
    pub fn tick(&self, log: &LogManager, obs: &Obs, metrics: impl FnOnce() -> RegistrySnapshot) {
        let last = self.last.load(Ordering::Relaxed);
        if last > 0 {
            if log.durable_len() < last {
                Self::force(log, Lsn(last - 1), obs);
            }
            if log.curr_lsn().raw() <= last {
                return;
            }
        }
        self.append(log, "cadence", &metrics(), obs);
    }
}

/// Every black box in the log directory `dir`, oldest first. Reads the
/// segment files directly and opens no log: nothing is created,
/// truncated or repaired, so a live server's directory is safe to read.
/// A torn frame ends its segment's scan; a box that does not parse is
/// skipped.
pub fn boxes_in_dir(dir: &Path) -> std::io::Result<Vec<BlackBoxRecord>> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| segment::parse_segment_name(p).is_some())
        .collect();
    segments.sort();
    let mut boxes = Vec::new();
    for seg in segments {
        let bytes = std::fs::read(&seg)?;
        for (_, payload) in frame::frames(&bytes) {
            if let Ok(LogRecord { lsn, body: RecordBody::BlackBox { payload }, .. }) =
                LogRecord::from_bytes(payload)
            {
                boxes.extend(BlackBoxRecord::parse(lsn.raw(), &payload));
            }
        }
    }
    Ok(boxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_wal::{FaultInjector, FaultIo, FileLogConfig, StableLog};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rh-core-flight-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn boxes_land_in_the_log_and_parse_back() {
        let dir = scratch("roundtrip");
        let log = LogManager::attach(StableLog::open_dir(&dir).unwrap());
        let obs = Obs::new();
        obs.registry.add("log.appends", 7);
        for i in 0..(BLACKBOX_TRACE_EVENTS as u64 + 100) {
            obs.tracer.point("e", i, i, rh_obs::trace::NONE, 0);
        }
        obs.slowops.set_threshold_us(0);
        obs.record_slow_op("commit", 1, 9, 1500, vec![(names::PH_FLUSH_WAIT, 1400)]);
        let lsn =
            FlightRecorder::default().append(&log, "unit-test", &obs.registry.snapshot(), &obs);
        assert!(FlightRecorder::force(&log, lsn, &obs));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_RECORDS), 1);

        let boxes = boxes_in_dir(&dir).unwrap();
        assert_eq!(boxes.len(), 1);
        let rec = &boxes[0];
        assert_eq!((rec.seq, rec.reason.as_str()), (lsn.raw(), "unit-test"), "seq is the LSN");
        assert_eq!(rec.counter("log.appends"), 7);
        // The trace tail is capped; the older events are counted dropped.
        assert_eq!(rec.events().len(), BLACKBOX_TRACE_EVENTS);
        let dropped = rec.raw.get("trace").and_then(|t| t.get("dropped"));
        assert_eq!(dropped.and_then(rh_obs::JsonValue::as_u64), Some(100));
        // The slow-op log rides into the black box with the record.
        let slow = rec.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("op").and_then(rh_obs::JsonValue::as_str), Some("commit"));
    }

    #[test]
    fn cadence_skips_an_idle_log_and_forces_only_a_stale_box() {
        let log = LogManager::new();
        let fr = FlightRecorder::default();
        let obs = Obs::new();
        let snap = || obs.registry.snapshot();
        // The first tick boxes; nothing forces it yet.
        fr.tick(&log, &obs, snap);
        assert_eq!((log.curr_lsn(), log.durable_len()), (Lsn(1), 0));
        // Idle: the stale box is forced, and no new box is frozen.
        for _ in 0..2 {
            fr.tick(&log, &obs, snap);
            assert_eq!((log.curr_lsn(), log.durable_len()), (Lsn(1), 1));
        }
        // The log grows: the next tick boxes again, unforced.
        log.append(TxnId(1), Lsn::NULL, RecordBody::Begin);
        fr.tick(&log, &obs, snap);
        assert_eq!((log.curr_lsn(), log.durable_len()), (Lsn(3), 1));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_RECORDS), 2);
    }

    #[test]
    fn post_crash_forces_fail_softly() {
        let dir = scratch("crash");
        let injector = FaultInjector::unlimited();
        let io = Arc::new(FaultIo::std(Arc::clone(&injector)));
        let log =
            LogManager::attach(StableLog::open_file_with(io, FileLogConfig::new(&dir)).unwrap());
        let fr = FlightRecorder::default();
        let obs = Obs::new();
        let lsn = fr.append(&log, "before", &obs.registry.snapshot(), &obs);
        assert!(FlightRecorder::force(&log, lsn, &obs));
        injector.trip();
        // The dead process's box vanishes; the engine never hears about
        // it beyond a counter.
        let lsn = fr.append(&log, "after", &obs.registry.snapshot(), &obs);
        assert!(!FlightRecorder::force(&log, lsn, &obs));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_ERRORS), 1);
    }
}
