//! The flight recorder: periodic black-box snapshots to a durable
//! sidecar stream.
//!
//! A [`FlightRecorder`] freezes the engine's observability context —
//! metric registry plus the tail of the trace ring — into
//! `rh_obs::blackbox` records and persists them through an `rh-wal`
//! [`SidecarLog`] (CRC-framed, fsynced, torn-tail-truncating) living in
//! an `obs/` subdirectory next to the log. After a crash, the *next*
//! incarnation's recovery reads the predecessor's last record and diffs
//! it against its own post-recovery state (the `postmortem` section of
//! [`crate::recovery::RecoveryReport`]).
//!
//! Everything here is **best-effort by construction**: a black box must
//! never take the plane down. Append failures (including simulated
//! crashes from `FaultIo` — the recorder shares the main log's I/O
//! layer, so crash injection covers both streams) only bump
//! `blackbox.errors`; no error ever propagates into the engine.

use rh_obs::{blackbox, names, Obs, Stopwatch};
use rh_wal::sidecar::SidecarLog;
use rh_wal::WalIo;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A black box is recorded every this-many commits (plus on every
/// checkpoint, recovery, and explicit [`crate::RhDb::record_blackbox`]).
pub const COMMIT_PERIOD: u64 = 32;

/// At most this many trailing trace events are frozen per record — the
/// full default ring (65k events) would make records megabytes large,
/// and a postmortem replays only the final spans anyway.
pub const BLACKBOX_TRACE_EVENTS: usize = 512;

/// The engine-side flight recorder. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    sidecar: SidecarLog,
    commits: AtomicU64,
    epoch: Stopwatch,
}

impl FlightRecorder {
    /// Opens (creating if needed) the sidecar stream for the log
    /// directory `log_dir`, through the same I/O layer as the main log.
    pub fn attach(io: Arc<dyn WalIo>, log_dir: &Path) -> rh_common::Result<Self> {
        let sidecar = SidecarLog::open_with(io, SidecarLog::dir_for(log_dir))?;
        Ok(FlightRecorder { sidecar, commits: AtomicU64::new(0), epoch: Stopwatch::start() })
    }

    /// The underlying stream (tests inspect retention and tear repair).
    pub fn sidecar(&self) -> &SidecarLog {
        &self.sidecar
    }

    /// Counts one commit; true when the cadence says "record now".
    pub fn commit_due(&self) -> bool {
        self.commits.fetch_add(1, Ordering::Relaxed) % COMMIT_PERIOD == COMMIT_PERIOD - 1
    }

    /// Freezes `obs` (registry snapshot + trace-ring tail) into one
    /// durable black-box record. Returns whether the record landed;
    /// failures bump `blackbox.errors` and are otherwise swallowed —
    /// the flight recorder must never fail the engine.
    pub fn record(&self, reason: &str, obs: &Obs) -> bool {
        let metrics = obs.registry.snapshot();
        let trace = obs.tracer.tail(BLACKBOX_TRACE_EVENTS);
        let seq = self.sidecar.next_seq();
        let bytes = blackbox::encode_record(
            seq,
            self.epoch.elapsed_micros(),
            reason,
            &metrics,
            &trace,
            &obs.slowops,
        );
        match self.sidecar.append(&bytes) {
            Ok(seq) => {
                obs.registry.inc(names::M_BLACKBOX_RECORDS);
                obs.registry.add(names::M_BLACKBOX_BYTES, bytes.len() as u64);
                obs.tracer.point(
                    names::EV_BLACKBOX_RECORD,
                    seq,
                    seq,
                    rh_obs::trace::NONE,
                    bytes.len() as u64,
                );
                true
            }
            Err(_) => {
                obs.registry.inc(names::M_BLACKBOX_ERRORS);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_obs::BlackBoxRecord;
    use rh_wal::{FaultInjector, FaultIo, StdIo};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rh-core-flight-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_land_and_parse_back() {
        let dir = scratch("roundtrip");
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir).unwrap();
        let obs = Obs::new();
        obs.registry.add("log.appends", 7);
        obs.tracer.point("e", 1, 1, 1, 0);
        obs.slowops.set_threshold_us(0);
        obs.record_slow_op("commit", 1, 9, 1500, vec![(names::PH_FLUSH_WAIT, 1400)]);
        assert!(fr.record("unit-test", &obs));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_RECORDS), 1);

        let (_, payload) = fr.sidecar().last().unwrap();
        let rec = BlackBoxRecord::parse(&payload).unwrap();
        assert_eq!(rec.reason, "unit-test");
        assert_eq!(rec.counter("log.appends"), 7);
        assert_eq!(rec.events().len(), 1);
        // The slow-op log rides into the black box with the record.
        let slow = rec.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("op").and_then(rh_obs::JsonValue::as_str), Some("commit"));
    }

    #[test]
    fn trace_tail_is_capped() {
        let dir = scratch("cap");
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir).unwrap();
        let obs = Obs::new();
        for i in 0..(BLACKBOX_TRACE_EVENTS as u64 + 100) {
            obs.tracer.point("e", i, i, rh_obs::trace::NONE, 0);
        }
        assert!(fr.record("cap-test", &obs));
        let (_, payload) = fr.sidecar().last().unwrap();
        let rec = BlackBoxRecord::parse(&payload).unwrap();
        assert_eq!(rec.events().len(), BLACKBOX_TRACE_EVENTS);
        // The 100 older events left out are counted as dropped.
        let dropped = rec.raw.get("trace").and_then(|t| t.get("dropped"));
        assert_eq!(dropped.and_then(rh_obs::JsonValue::as_u64), Some(100));
    }

    #[test]
    fn commit_cadence() {
        let dir = scratch("cadence");
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir).unwrap();
        let due: u64 = (0..(3 * COMMIT_PERIOD)).filter(|_| fr.commit_due()).count() as u64;
        assert_eq!(due, 3);
    }

    #[test]
    fn post_crash_appends_fail_softly() {
        let dir = scratch("crash");
        let injector = FaultInjector::unlimited();
        let io = Arc::new(FaultIo::std(Arc::clone(&injector)));
        let fr = FlightRecorder::attach(io, &dir).unwrap();
        let obs = Obs::new();
        assert!(fr.record("before", &obs));
        injector.trip();
        // The dead process's record vanishes; the engine never hears
        // about it beyond a counter.
        assert!(!fr.record("after", &obs));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_ERRORS), 1);
    }
}
