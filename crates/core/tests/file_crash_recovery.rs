//! Byte-level crash injection against the file-backed WAL.
//!
//! The harness runs a fixed transactional script over a
//! [`SegmentedFileLog`] whose I/O layer dies after a configurable number
//! of written bytes: the boundary write is torn mid-byte, later writes
//! silently vanish, later fsyncs fail. The crash point is swept across
//! the whole byte stream — including every byte of the first frame's
//! header — and after each crash the directory is reopened with real I/O
//! and recovered onto a **fresh** disk. Two invariants must hold at every
//! single offset:
//!
//! 1. **No committed-transaction loss** — every write of a transaction
//!    whose `commit()` returned `Ok` before the crash reads back exactly.
//! 2. **No resurrected losers** — no object ever carries a poison value
//!    written only by transactions that never (successfully) committed,
//!    even though their records may sit flushed in the log.
//!
//! The disk being fresh makes the claim sharp: durability of committed
//! work is carried *entirely* by the WAL frames that survived the crash.
//!
//! The script also freezes flight-recorder black boxes, which ride the
//! log itself, so the byte sweep cuts box frames too: a torn box must
//! truncate cleanly on reopen and must never fail recovery (invariant
//! 3).

use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::flight::boxes_in_dir;
use rh_core::TxnEngine;
use rh_storage::Disk;
use rh_wal::{FaultInjector, FaultIo, FileLogConfig, RecordBody, StableLog};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Value no committed write ever uses; only losers write it.
const POISON: Value = -9999;
/// Small segments so the script spans several files and the crash sweep
/// also hits segment rolls and the frames around them.
const SEGMENT_BYTES: u64 = 512;
const ROUNDS: u64 = 8;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-crashinj-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_faulty(dir: &PathBuf, injector: &Arc<FaultInjector>) -> Arc<StableLog> {
    StableLog::open_file_with(
        Arc::new(FaultIo::std(Arc::clone(injector))),
        FileLogConfig::new(dir).segment_bytes(SEGMENT_BYTES),
    )
    .expect("pre-crash open cannot fail")
}

/// Runs the deterministic script until an operation fails (the simulated
/// machine died) or the script ends. Returns the values acknowledged as
/// committed — recorded only *after* `commit()` returned `Ok` — and the
/// objects losers poisoned.
fn run_script(db: &mut RhDb) -> (BTreeMap<ObjectId, Value>, Vec<ObjectId>) {
    let mut acked = BTreeMap::new();
    let mut poisoned = Vec::new();
    // Any error = crash; the macro exits the script like the machine did.
    macro_rules! or_die {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(_) => return (acked, poisoned),
            }
        };
    }
    for r in 0..ROUNDS {
        // Committer: one hot object (contended across rounds) and one
        // private object, then commit (forces the log).
        let hot = ObjectId(r % 4);
        let cold = ObjectId(100 + r);
        let hot_val = 1000 + r as Value;
        let cold_val = 5000 + r as Value;
        let t = or_die!(db.begin());
        or_die!(db.write(t, hot, hot_val));
        or_die!(db.write(t, cold, cold_val));
        or_die!(db.commit(t));
        acked.insert(hot, hot_val);
        acked.insert(cold, cold_val);

        // Loser: overwrites this round's committed object with poison and
        // touches a private one, then stays active forever. Its records
        // reach the log when later commits force the (prefix) tail, so
        // recovery must actively undo them, not merely never see them.
        if r % 2 == 0 {
            let t = or_die!(db.begin());
            or_die!(db.write(t, cold, POISON));
            or_die!(db.add(t, ObjectId(40 + r), POISON));
            poisoned.push(cold);
            poisoned.push(ObjectId(40 + r));
        }

        // Freeze a black box most rounds: its frame goes through the
        // same fault-injected log, so the byte sweep also lands inside
        // (and tears) black boxes. Best-effort by contract — post-crash
        // freezes simply report false.
        if r % 2 == 1 {
            let _ = db.record_blackbox("sweep-round");
        }

        // One delegation round: the update travels tor -> tee and commits
        // as the tee's, putting delegate records among the frames.
        if r == 3 {
            let ob = ObjectId(77);
            let tor = or_die!(db.begin());
            let tee = or_die!(db.begin());
            or_die!(db.write(tor, ob, 4242));
            or_die!(db.delegate(tor, tee, &[ob]));
            or_die!(db.commit(tee));
            acked.insert(ob, 4242);
            or_die!(db.commit(tor));
        }
    }
    (acked, poisoned)
}

/// Total segment bytes a clean (crash-free) run writes; the faulty runs
/// replay the identical deterministic script, so this measures the byte
/// stream the crash sweep cuts.
fn clean_run_total_bytes() -> u64 {
    let dir = scratch("clean");
    let injector = FaultInjector::unlimited();
    let mut db =
        RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), open_faulty(&dir, &injector));
    let (acked, _) = run_script(&mut db);
    // 4 hot objects (rewritten each round), one cold per round, and the
    // delegated object.
    assert_eq!(acked.len() as u64, 4 + ROUNDS + 1, "clean run must ack everything");
    let total: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    std::fs::remove_dir_all(&dir).unwrap();
    total
}

#[test]
fn crash_at_any_byte_offset_loses_no_committed_work_and_resurrects_no_loser() {
    let total = clean_run_total_bytes();
    assert!(total > 200, "script too small to sweep: {total} bytes");

    // Every byte of the first frame's header and early payload, plus an
    // even sweep across the rest of the stream (frame interiors, frame
    // boundaries, segment rolls — wherever they land).
    let mut offsets: Vec<u64> = (0..16).collect();
    offsets.extend((1..=32).map(|i| i * total / 33));
    offsets.sort_unstable();
    offsets.dedup();
    assert!(offsets.len() >= 32, "need >= 32 crash offsets, have {}", offsets.len());

    for &offset in &offsets {
        let dir = scratch("sweep");
        let injector = FaultInjector::crash_after_bytes(offset);
        let mut db =
            RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), open_faulty(&dir, &injector));
        let (acked, poisoned) = run_script(&mut db);
        assert!(injector.crashed(), "offset {offset} of {total} did not crash");
        drop(db); // the dead process's memory is gone

        // Reopen with *real* I/O (the next incarnation's filesystem) and
        // recover onto a fresh disk: everything must come from the WAL.
        let stable = StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES))
            .unwrap_or_else(|e| panic!("offset {offset}: reopen failed: {e:?}"));
        let mut db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new())
            .unwrap_or_else(|e| panic!("offset {offset}: recovery failed: {e:?}"));

        for (&ob, &val) in &acked {
            let got = db.value_of(ob).unwrap();
            assert_eq!(got, val, "offset {offset}: committed {ob:?}={val} lost (read {got})");
        }
        for &ob in &poisoned {
            if acked.contains_key(&ob) {
                continue; // already checked, and stronger
            }
            let got = db.value_of(ob).unwrap();
            assert_ne!(got, POISON, "offset {offset}: loser write resurrected on {ob:?}");
        }

        // Invariant 3: whatever the sweep did to the black boxes — a
        // torn box, vanished boxes, none at all — every box the log
        // retains parses, and the postmortem, if any, names the newest
        // box that precedes this recovery's own. (Recovery already
        // succeeded above despite it, which is the stronger half.)
        let boxes = boxes_in_dir(&dir).unwrap();
        let log = db.log();
        let in_log = (log.first_lsn().raw()..log.curr_lsn().raw())
            .filter(|&l| {
                matches!(log.read(Lsn(l)).map(|r| r.body), Ok(RecordBody::BlackBox { .. }))
            })
            .count();
        assert_eq!(boxes.len(), in_log, "offset {offset}: a retained black box is corrupt");
        let newest_before = boxes.iter().rev().find(|b| b.reason == "sweep-round");
        let pm_seq = db
            .postmortem()
            .and_then(|pm| pm.get("predecessor").and_then(|p| p.get("seq")).cloned())
            .and_then(|v| v.as_u64());
        assert_eq!(pm_seq, newest_before.map(|b| b.seq), "offset {offset}");

        // The recovered engine is live: new work commits and survives a
        // second (clean) restart.
        let t = db.begin().unwrap();
        db.write(t, ObjectId(7), 31337).unwrap();
        db.commit(t).unwrap();
        let (stable, _disk) = db.crash();
        drop(stable);
        let stable =
            StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES)).unwrap();
        let mut db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new()).unwrap();
        assert_eq!(db.value_of(ObjectId(7)).unwrap(), 31337, "offset {offset}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn dropped_fsyncs_are_what_makes_unacked_commits_possible() {
    // Negative control for the group-commit path: with fsyncs silently
    // swallowed, the log still *believes* everything flushed — proving
    // the injector's sync accounting observes the real sync calls the
    // durable path issues.
    let dir = scratch("dropsync");
    let injector = FaultInjector::unlimited();
    injector.set_drop_syncs(true);
    let mut db =
        RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), open_faulty(&dir, &injector));
    let t = db.begin().unwrap();
    db.write(t, ObjectId(0), 1).unwrap();
    db.commit(t).unwrap();
    assert!(injector.dropped_syncs() > 0, "commit must have tried to fsync");
    assert_eq!(injector.real_syncs(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_blackbox_tail_never_fails_main_log_recovery() {
    // A damaged black box must cost at most the postmortem, never the
    // database. Freeze two boxes, tear the log inside the newest box's
    // frame, recover: the committed work must come back whole and the
    // postmortem must fall back to the previous box; a log with no box
    // at all must recover with no postmortem.
    let dir = scratch("tornbb");
    let stable =
        StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES)).expect("open");
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    let t = db.begin().unwrap();
    db.write(t, ObjectId(0), 77).unwrap();
    db.commit(t).unwrap();
    assert!(db.record_blackbox("first-freeze"));
    assert!(db.record_blackbox("second-freeze"));
    let (stable, _disk) = db.crash();
    drop(stable);

    // Chop the newest segment a few bytes short: the second box — the
    // log's last record — is torn exactly as a mid-write crash would
    // leave it.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("log segment");
    let len = newest.metadata().unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&newest).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let stable = StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES))
        .expect("reopen");
    let mut db =
        RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new()).expect("recover");
    assert_eq!(db.value_of(ObjectId(0)).unwrap(), 77, "main log must be unaffected");
    let pm = db.postmortem().expect("intact first record still serves a postmortem");
    assert_eq!(
        pm.get("predecessor").and_then(|p| p.get("reason")).and_then(rh_obs::JsonValue::as_str),
        Some("first-freeze"),
        "postmortem falls back past the torn tail"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // No black box at all: a file-backed log that never froze one.
    let dir = scratch("nobb");
    let stable =
        StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES)).expect("open");
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    let t = db.begin().unwrap();
    db.write(t, ObjectId(0), 77).unwrap();
    db.commit(t).unwrap();
    let (stable, _disk) = db.crash();
    drop(stable);
    let stable = StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES))
        .expect("reopen");
    let mut db =
        RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new()).expect("recover");
    assert_eq!(db.value_of(ObjectId(0)).unwrap(), 77);
    assert!(db.postmortem().is_none(), "no black box, no postmortem, no error");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpointed_file_log_recovers_with_surviving_disk() {
    // The master record path end-to-end on real files: checkpoint, more
    // work, hard restart. The disk Arc survives (as in the in-memory
    // crash tests) because redo starts at the checkpoint.
    let dir = scratch("ckpt");
    let stable = StableLog::open_dir(&dir).unwrap();
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    let t = db.begin().unwrap();
    db.write(t, ObjectId(0), 11).unwrap();
    db.commit(t).unwrap();
    db.checkpoint().unwrap();
    let t = db.begin().unwrap();
    db.write(t, ObjectId(1), 22).unwrap();
    db.commit(t).unwrap();
    let (_stable, disk) = db.crash();

    let stable = StableLog::open_dir(&dir).unwrap();
    assert!(!stable.master().is_null(), "checkpoint must persist the master record");
    let mut db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, disk).unwrap();
    assert_eq!(db.value_of(ObjectId(0)).unwrap(), 11);
    assert_eq!(db.value_of(ObjectId(1)).unwrap(), 22);
    std::fs::remove_dir_all(&dir).unwrap();
}
