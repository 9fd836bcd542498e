//! Shared fixture + measurement for the replication (log-shipping)
//! bench rows, used by both the `e14_replication` Criterion bench and
//! the `rh-bench --check-baselines` gate so the checked-in
//! `BENCH_repl.json` rows are re-measured with the exact workload that
//! produced them.
//!
//! One workload, three rows:
//!
//! * **`repl_primary_commit`** — nanoseconds per committed
//!   transaction on an in-memory primary. This is the rate the shipped
//!   stream is produced at: the replica must apply at least this fast
//!   or it falls behind without bound.
//! * **`repl_apply_frame`** — median nanoseconds per shipped frame
//!   applied by a [`ReplicaSet`] (append to the local log + incremental
//!   forward pass). Each committed transaction emits several log
//!   records (begin/update/commit bookkeeping), so the replica keeps up
//!   iff `repl_apply_frame × frames_per_commit < repl_primary_commit`
//!   — the exported workload doc carries both counts so the ratio is
//!   computable from the artifact alone.
//! * **`repl_promote`** — nanoseconds for
//!   [`ReplicaSet::promote`] over a fully caught-up replica: finish the
//!   forward pass, run the backward pass over losers, open for writes.
//!   This is the failover outage floor — what promote-on-failure costs
//!   *after* the failure has been detected.

use rh_common::{Lsn, ObjectId, Value};
use rh_core::engine::{RhDb, Strategy};
use rh_core::replica::ReplicaSet;
use rh_core::TxnEngine;
use rh_obs::Stopwatch;

/// Committed transactions in the shipped workload.
pub const COMMITS: u64 = 300;

/// The pre-encoded replication feed: every durable record of the
/// primary's log, in LSN order, exactly as `ship_loop` frames them.
pub struct ReplFixture {
    /// `(lsn, record bytes)` per frame.
    pub frames: Vec<(Lsn, Vec<u8>)>,
}

/// Builds the fixture: [`COMMITS`] single-object committed transactions
/// on an in-memory primary, then the whole durable log encoded as
/// frames. Each transaction touches its own object so the replica's
/// forward pass grows real scope-table state, like any real feed.
pub fn build() -> ReplFixture {
    let mut db = RhDb::new(Strategy::Rh);
    run_commits(&mut db);
    db.log().flush_all().expect("bench flush");
    let log = db.log();
    let mut frames = Vec::new();
    log.scan_bytes(Lsn(0), Lsn(log.durable_len()), |lsn, bytes| {
        frames.push((lsn, bytes.to_vec()));
        Ok(())
    })
    .expect("bench records readable");
    ReplFixture { frames }
}

/// One full primary-side workload: a fresh in-memory primary
/// committing [`COMMITS`] transactions (the Criterion iteration unit
/// for the commit-rate row).
pub fn commit_workload() {
    let mut db = RhDb::new(Strategy::Rh);
    run_commits(&mut db);
}

fn run_commits(db: &mut RhDb) {
    for i in 0..COMMITS {
        let t = db.begin().expect("bench begin");
        db.write(t, ObjectId(100 + i), i as Value).expect("bench write");
        db.commit(t).expect("bench commit");
    }
}

impl ReplFixture {
    /// A fresh in-memory single-shard replica with every frame applied
    /// — the caught-up state promotion starts from.
    pub fn caught_up_replica(&self) -> ReplicaSet {
        let set = ReplicaSet::new_mem(Strategy::Rh, 1, 0);
        self.apply_all(&set);
        set
    }

    /// Applies every frame to `set`, in order.
    pub fn apply_all(&self, set: &ReplicaSet) {
        for (lsn, bytes) in &self.frames {
            set.apply_frame(0, *lsn, bytes).expect("bench apply");
        }
    }

    /// One full replica-side workload: a fresh in-memory replica
    /// consuming the whole feed (the Criterion iteration unit for the
    /// apply-rate row).
    pub fn apply_workload(&self) {
        let set = ReplicaSet::new_mem(Strategy::Rh, 1, 0);
        self.apply_all(&set);
    }

    /// One full failover: catch a fresh replica up (dominated by the
    /// feed replay) and promote it (the Criterion iteration unit for
    /// the promote row; the gated row isolates the promote itself).
    pub fn promote_workload(&self) {
        let set = self.caught_up_replica();
        std::hint::black_box(set.promote().expect("bench promote"));
    }
}

/// Nanoseconds per committed transaction on a fresh in-memory primary
/// (the production rate of the shipped stream). Like every row in this
/// module, the statistic is the *min* over the iterations — the
/// stall-free floor — because these sub-millisecond workloads swing
/// with scheduler mood on a loaded runner far beyond the gate's
/// tolerance, and the floor is the number the baseline comparison can
/// hold stable (the same reasoning as the lock-witness rows' min).
pub fn commit_ns_floor(iters: usize) -> u64 {
    min_ns(iters, || {
        let mut db = RhDb::new(Strategy::Rh);
        run_commits(&mut db);
    }) / COMMITS
}

/// Nanoseconds per frame (min over iterations) applied by a fresh
/// in-memory replica consuming the whole fixture feed (the replica's
/// consumption rate).
pub fn apply_ns_floor(fixture: &ReplFixture, iters: usize) -> u64 {
    let frames = fixture.frames.len() as u64;
    min_ns(iters, || {
        let set = ReplicaSet::new_mem(Strategy::Rh, 1, 0);
        fixture.apply_all(&set);
    }) / frames.max(1)
}

/// Nanoseconds (min over iterations) for one `promote()` of a fully
/// caught-up replica. The catch-up is rebuilt untimed each iteration —
/// promotion consumes the replica's engine, so a promoted set cannot be
/// promoted again.
pub fn promote_ns_floor(fixture: &ReplFixture, iters: usize) -> u64 {
    let mut best = u64::MAX;
    // One untimed warmup.
    fixture.caught_up_replica().promote().expect("bench promote");
    for _ in 0..iters {
        let set = fixture.caught_up_replica();
        let sw = Stopwatch::start();
        let promoted = set.promote().expect("bench promote");
        best = best.min(sw.elapsed().as_nanos() as u64);
        drop(promoted);
    }
    best
}

/// Min over `iters` timed calls (one untimed warmup), nanoseconds.
fn min_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    (0..iters)
        .map(|_| {
            let sw = Stopwatch::start();
            f();
            sw.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_feed_replays_and_promotes() {
        let f = build();
        assert!(f.frames.len() as u64 >= COMMITS, "feed shorter than the commits it carries");
        let set = f.caught_up_replica();
        // The caught-up replica serves every acked effect.
        for i in 0..COMMITS {
            assert_eq!(set.value_of(ObjectId(100 + i)).unwrap(), i as Value);
        }
        // Promotion opens the same state for writes.
        let db = set.promote().expect("promote");
        let t = db.begin().unwrap();
        assert_eq!(db.read(t, ObjectId(100)).unwrap(), 0);
        db.commit(t).unwrap();
    }
}
