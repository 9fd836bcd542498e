//! White-box forward-pass tests over hand-built logs: analysis
//! classifications, scope reconstruction, delegate processing, and the
//! checkpoint fast path — asserted through full recovery on crafted
//! stable state.

use rh_common::{Lsn, ObjectId, TxnId, UpdateOp};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::TxnEngine;
use rh_storage::Disk;
use rh_wal::record::{DelegateBody, RecordBody};
use rh_wal::LogManager;

const A: ObjectId = ObjectId(0);

fn add(ob: ObjectId, delta: i64) -> RecordBody {
    RecordBody::Update { ob, op: UpdateOp::Add { delta } }
}

fn recover(log: LogManager) -> RhDb {
    log.flush_all().unwrap();
    RhDb::recover(Strategy::Rh, DbConfig::default(), log.crash(), Disk::new()).unwrap()
}

#[test]
fn losers_by_default_winners_by_commit_record() {
    let log = LogManager::new();
    let (w, l) = (TxnId(0), TxnId(1));
    log.append(w, Lsn::NULL, RecordBody::Begin); // 0
    log.append(l, Lsn::NULL, RecordBody::Begin); // 1
    log.append(w, Lsn(0), add(A, 5)); // 2
    log.append(l, Lsn(1), add(A, 50)); // 3
    log.append(w, Lsn(2), RecordBody::Commit); // 4 (no End: lost in crash)
    let mut db = recover(log);
    assert_eq!(db.value_of(A).unwrap(), 5);
    let report = db.last_recovery().unwrap();
    assert_eq!(report.losers, vec![l]);
    assert_eq!(report.winners_seen, 1);
    assert_eq!(report.undo.undone, 1);
}

#[test]
fn delegate_record_moves_scope_during_analysis() {
    // The delegate record in the log is the ONLY delegation evidence; the
    // forward pass must transfer the scope so the backward pass undoes by
    // the delegatee's fate.
    let log = LogManager::new();
    let (t0, t1) = (TxnId(0), TxnId(1));
    log.append(t0, Lsn::NULL, RecordBody::Begin); // 0
    log.append(t1, Lsn::NULL, RecordBody::Begin); // 1
    log.append(t0, Lsn(0), add(A, 5)); // 2
    log.append(
        t0,
        Lsn(2),
        RecordBody::Delegate { tee: t1, tee_bc: Lsn(1), body: DelegateBody::one(A) },
    ); // 3
    log.append(t0, Lsn(3), RecordBody::Commit); // 4: invoker is a winner
    let mut db = recover(log);
    // t1 (responsible) is a loser: the update dies with it.
    assert_eq!(db.value_of(A).unwrap(), 0);
    assert_eq!(db.last_recovery().unwrap().undo.undone, 1);
}

#[test]
fn delegate_all_record_replays_during_analysis() {
    let log = LogManager::new();
    let (t0, t1) = (TxnId(0), TxnId(1));
    log.append(t0, Lsn::NULL, RecordBody::Begin); // 0
    log.append(t1, Lsn::NULL, RecordBody::Begin); // 1
    log.append(t0, Lsn(0), add(A, 5)); // 2
    log.append(t0, Lsn(2), add(ObjectId(1), 7)); // 3
    log.append(
        t0,
        Lsn(3),
        RecordBody::Delegate { tee: t1, tee_bc: Lsn(1), body: DelegateBody::All },
    ); // 4
    log.append(t1, Lsn(4), RecordBody::Commit); // 5: delegatee wins
    let mut db = recover(log);
    assert_eq!(db.value_of(A).unwrap(), 5);
    assert_eq!(db.value_of(ObjectId(1)).unwrap(), 7);
    // t0 is the loser but owns nothing: zero undos.
    assert_eq!(db.last_recovery().unwrap().undo.undone, 0);
}

#[test]
fn abort_record_clears_scopes_so_backward_pass_skips() {
    // CLRs + abort record present: the rollback completed pre-crash. The
    // backward pass must have nothing to visit.
    let log = LogManager::new();
    let t = TxnId(0);
    log.append(t, Lsn::NULL, RecordBody::Begin); // 0
    log.append(t, Lsn(0), add(A, 5)); // 1
    log.append(
        t,
        Lsn(1),
        RecordBody::Clr {
            ob: A,
            op: UpdateOp::Add { delta: -5 },
            compensated: Lsn(1),
            undo_next: Lsn(0),
        },
    ); // 2
    log.append(t, Lsn(2), RecordBody::Abort); // 3
    let mut db = recover(log);
    assert_eq!(db.value_of(A).unwrap(), 0);
    let undo = db.last_recovery().unwrap().undo;
    assert_eq!(undo.visited, 0, "abort record must have cleared the scopes");
}

#[test]
fn update_without_begin_implies_the_transaction() {
    // Robustness: analysis inserts unknown transactions on first sight
    // (the lazy baseline can rewrite records to ids whose begin is
    // later; torn logs shouldn't panic either).
    let log = LogManager::new();
    let t = TxnId(7);
    log.append(t, Lsn::NULL, add(A, 3)); // 0: no Begin anywhere
    let mut db = recover(log);
    assert_eq!(db.value_of(A).unwrap(), 0); // implied txn is a loser
    assert_eq!(db.last_recovery().unwrap().losers, vec![t]);
}

#[test]
fn post_recovery_txn_ids_clear_the_high_water_mark() {
    let log = LogManager::new();
    log.append(TxnId(41), Lsn::NULL, RecordBody::Begin);
    let mut db = recover(log);
    let t = db.begin().unwrap();
    assert!(t.raw() >= 42, "allocated {t} despite id 41 in the log");
}

#[test]
fn checkpoint_snapshot_restores_delegated_scopes() {
    // Build the state through a real engine, checkpoint, crash, then
    // verify the analysis region is tiny and the (pre-checkpoint)
    // delegated scope still gets undone.
    let mut db = RhDb::new(Strategy::Rh);
    let t0 = db.begin().unwrap();
    let t1 = db.begin().unwrap();
    db.add(t0, A, 5).unwrap();
    db.delegate(t0, t1, &[A]).unwrap();
    db.commit(t0).unwrap();
    db.checkpoint().unwrap();
    db.log().flush_all().unwrap();
    let mut db = db.crash_and_recover().unwrap();
    assert_eq!(db.value_of(A).unwrap(), 0); // t1 lost
    let report = db.last_recovery().unwrap();
    assert!(report.forward.records_scanned <= 2, "analysis must start at the checkpoint");
    assert_eq!(report.undo.undone, 1);
}

#[test]
fn forward_pass_reads_a_file_log_in_runs_of_frames() {
    let dir = std::env::temp_dir().join(format!("rh-forward-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = LogManager::attach(rh_wal::StableLog::open_dir(&dir).unwrap());
    for t in 0..1_500u64 {
        let begin = log.append(TxnId(t), Lsn::NULL, RecordBody::Begin);
        let upd = log.append(TxnId(t), begin, add(ObjectId(t % 64), 1));
        if t != 700 {
            log.append(TxnId(t), upd, RecordBody::Commit);
        }
    }
    log.flush_all().unwrap();
    let records = log.len() as u64;
    drop(log);
    let segment_bytes = std::fs::metadata(dir.join("00000000000000000000.seg")).unwrap().len();

    let stable = rh_wal::StableLog::open_dir(&dir).unwrap();
    let db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new()).unwrap();
    let report = db.last_recovery().unwrap();
    assert_eq!(report.forward.records_scanned, records);
    // One positioned read per 64 KiB run, not one per record.
    let runs = segment_bytes.div_ceil(64 << 10);
    assert!(report.forward.stable_reads >= 1);
    assert!(report.forward.stable_reads <= runs + 1, "{} reads", report.forward.stable_reads);
    // Every record is still counted as one read.
    assert_eq!(report.undo.undone, 1);
    assert_eq!(report.log_delta.records_read, report.forward.records_scanned + report.undo.visited);
    let _ = std::fs::remove_dir_all(&dir);
}
