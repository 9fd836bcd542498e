//! The log's two read paths agree, on both backends: a sequential
//! `scan` (runs of whole frames, then the unflushed tail) yields exactly
//! what one `read` per LSN yields — across segment rolls, a truncated
//! prefix, frames larger than a run, and appends and flushes racing the
//! scan. A corrupt frame stops a scan at its own LSN, and a flush whose
//! append fails keeps its record and its LSN.

use proptest::prelude::*;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp};
use rh_wal::record::{LogRecord, RecordBody};
use rh_wal::{FaultInjector, FaultIo, FileLogConfig, LogManager, StableLog};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn scratch(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-file-log-{}-{}-{}",
        std::process::id(),
        name,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn upd(i: u64) -> RecordBody {
    RecordBody::Update { ob: ObjectId(i % 7), op: UpdateOp::Add { delta: i as i64 } }
}

/// Record `i` of a generated log: mostly small updates, some 10 KiB
/// payloads (a few fill a 64 KiB run), and one payload larger than a
/// whole run.
fn body(i: u64, size: u8) -> RecordBody {
    match size % 8 {
        0 => RecordBody::BlackBox { payload: vec![i as u8; 10 << 10] },
        1 if i.is_multiple_of(5) => RecordBody::CheckpointEnd { payload: vec![i as u8; 70 << 10] },
        _ => upd(i),
    }
}

fn scanned(log: &LogManager, from: u64, end: u64) -> Result<Vec<LogRecord>> {
    let mut out = Vec::new();
    log.scan(Lsn(from), Lsn(end), |rec| {
        out.push(rec);
        Ok(())
    })?;
    Ok(out)
}

fn file_log(dir: &std::path::Path, segment_bytes: u64) -> LogManager {
    let cfg = FileLogConfig::new(dir).segment_bytes(segment_bytes);
    LogManager::attach(StableLog::open_file(cfg).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn scan_yields_exactly_the_reads(
        sizes in proptest::collection::vec(any::<u8>(), 1..40),
        backend in 0u8..3,
        flushed in any::<u8>(),
        truncated in any::<u8>(),
        a in any::<u8>(),
        b in any::<u8>(),
    ) {
        // Mem, file with a roll on nearly every record, file with one
        // segment holding multi-frame runs.
        let dir = scratch("prop");
        let log = match backend {
            0 => LogManager::new(),
            1 => file_log(&dir, 64),
            _ => file_log(&dir, 4 << 20),
        };
        for (i, &size) in sizes.iter().enumerate() {
            log.append(TxnId(i as u64), Lsn::NULL, body(i as u64, size));
        }
        let n = sizes.len() as u64;
        let stable = u64::from(flushed) % (n + 1);
        if stable > 0 {
            log.flush_to(Lsn(stable - 1)).unwrap();
        }
        log.truncate_prefix(Lsn(u64::from(truncated) % (stable + 1))).unwrap();
        let base = log.first_lsn().raw();
        let (a, b) = (base + u64::from(a) % (n - base + 1), base + u64::from(b) % (n - base + 1));
        let (a, b) = (a.min(b), a.max(b));

        let before = log.metrics().snapshot();
        let got = scanned(&log, a, b).unwrap();
        let scan_reads = log.metrics().snapshot().since(&before).records_read;
        let want: Vec<LogRecord> = (a..b).map(|l| log.read(Lsn(l)).unwrap()).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(scan_reads, b - a, "one read counted per record");
        if base > 0 {
            let below = matches!(scanned(&log, base - 1, b), Err(RhError::CorruptLog { .. }));
            prop_assert!(below, "a scan from below the truncation point fails");
        }
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_corrupt_frame_fails_the_scan_at_its_lsn() {
    let dir = scratch("flip");
    let log = LogManager::attach(StableLog::open_dir(&dir).unwrap());
    let n = 400u64;
    for _ in 0..n {
        log.append(TxnId(1), Lsn::NULL, upd(1));
    }
    log.flush_all().unwrap();
    // Every record encodes to the same length, so frame `k` sits at `k`
    // frame lengths; flip a byte in the middle of frame 250's payload.
    let seg = dir.join("00000000000000000000.seg");
    let frame_len = std::fs::metadata(&seg).unwrap().len() / n;
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[(250 * frame_len + frame_len / 2) as usize] ^= 0x40;
    std::fs::write(&seg, bytes).unwrap();

    let mut seen = 0;
    let res = log.scan(Lsn(0), Lsn(n), |_| {
        seen += 1;
        Ok(())
    });
    assert!(matches!(res, Err(RhError::CorruptLog { lsn: Lsn(250), .. })), "{res:?}");
    assert_eq!(seen, 250, "every record before the bad frame is delivered");
    assert!(matches!(log.read(Lsn(250)), Err(RhError::CorruptLog { lsn: Lsn(250), .. })));
    assert!(scanned(&log, 251, n).is_ok(), "frames after it still verify");
}

#[test]
fn a_scan_racing_appends_and_flushes_sees_a_gap_free_prefix() {
    let dir = scratch("race");
    for log in [LogManager::new(), file_log(&dir, 2 << 10)] {
        let log = Arc::new(log);
        let start = Arc::new(Barrier::new(2));
        let writer = {
            let (log, start) = (Arc::clone(&log), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..3_000u64 {
                    log.append(TxnId(i), Lsn::NULL, upd(i));
                    if i.is_multiple_of(7) {
                        log.flush_all().unwrap();
                    }
                }
            })
        };
        start.wait();
        let mut scans = 0;
        while !writer.is_finished() || scans == 0 {
            let end = log.curr_lsn().raw();
            let got = scanned(&log, 0, end).unwrap();
            assert_eq!(got.len() as u64, end);
            for (i, rec) in got.iter().enumerate() {
                assert_eq!((rec.lsn, rec.txn), (Lsn(i as u64), TxnId(i as u64)));
            }
            scans += 1;
        }
        writer.join().unwrap();
    }
}

#[test]
fn a_failed_flush_keeps_the_record_and_its_lsn() {
    let injector = FaultInjector::unlimited();
    let io = Arc::new(FaultIo::std(Arc::clone(&injector)));
    let cfg = FileLogConfig::new(scratch("failed-flush")).segment_bytes(64);
    let log = LogManager::attach(StableLog::open_file_with(io, cfg).unwrap());
    log.append(TxnId(1), Lsn::NULL, upd(0));
    log.flush_all().unwrap();
    // The next frame does not fit the 64-byte segment: its append must
    // roll, and the roll's fsync of the full segment fails.
    injector.trip();
    let lsn = log.append(TxnId(1), Lsn(0), upd(1));
    assert!(log.flush_to(lsn).is_err());
    assert_eq!(log.read(lsn).unwrap().body, upd(1), "the record is still in the tail");
    assert_eq!(log.append(TxnId(1), lsn, upd(2)), lsn.next(), "its LSN is not reissued");
}
