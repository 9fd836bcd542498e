//! Reenactment runs its records through recovery's own interpreter but
//! observes them with its own fold, not with recovery's page redo and
//! scope narration. A read that took recovery's observer would count
//! into `scope.*` and `provenance.*` and narrate hops into the trace
//! ring on every query; time-travel reads must move `reenact.*` counters
//! only, and write nothing into the ring.

use rh_common::{Lsn, ObjectId};
use rh_core::engine::{RhDb, Strategy};
use rh_core::TxnEngine;

const A: ObjectId = ObjectId(0);
const B: ObjectId = ObjectId(1);
const C: ObjectId = ObjectId(2);

fn ring_len(db: &RhDb) -> u64 {
    let snap = db.trace_snapshot();
    snap.events.len() as u64 + snap.dropped
}

#[test]
fn time_travel_reads_move_only_reenact_counters() {
    let mut db = RhDb::new(Strategy::Rh);
    let (t1, t2, t3) = (db.begin().unwrap(), db.begin().unwrap(), db.begin().unwrap());
    db.write(t1, A, 10).unwrap();
    db.delegate(t1, t2, &[A]).unwrap();
    db.add(t2, B, 5).unwrap();
    db.commit(t1).unwrap();
    db.checkpoint().unwrap();
    db.write(t2, A, 20).unwrap();
    db.delegate_all(t2, t3).unwrap();
    db.commit(t2).unwrap();
    db.commit(t3).unwrap();
    // A loser: its delegatee is still active at the crash.
    let (t4, t5) = (db.begin().unwrap(), db.begin().unwrap());
    db.write(t4, C, 3).unwrap();
    db.delegate(t4, t5, &[C]).unwrap();
    db.commit(t4).unwrap();
    db.log().flush_all().unwrap();
    let db = db.crash_and_recover().unwrap();
    let report = db.last_recovery().unwrap();
    assert_eq!(report.losers, vec![t5]);
    assert!(report.forward.delegations_seen > 0);

    let before = db.obs().registry.snapshot();
    let ring = ring_len(&db);
    for ob in [A, B, C] {
        for l in 0..=db.log().last_lsn().raw() {
            db.read_as_of(ob, Lsn(l)).unwrap();
            db.history(ob, Lsn::FIRST, Lsn(l)).unwrap();
        }
    }
    let moved = db.obs().registry.snapshot().since(&before);
    assert!(moved.counter("reenact.queries") > 0);
    for (name, &delta) in &moved.counters {
        assert!(delta == 0 || name.starts_with("reenact."), "{name} moved by {delta}");
    }
    for (name, h) in &moved.histograms {
        assert!(h.count == 0 || name.starts_with("reenact."), "{name} observed {}", h.count);
    }
    assert_eq!(ring_len(&db), ring, "time-travel reads wrote into the trace ring");
}
