//! Shared fixture + measurement for the time-travel (reenactment)
//! bench rows, used by both the `e13_time_travel` Criterion bench and
//! the `rh-bench --check-baselines` gate so the checked-in
//! `BENCH_history.json` rows are re-measured with the exact workload
//! that produced them.
//!
//! One in-memory engine, one hot object, 600 committed increments with
//! a checkpoint after the first 300 — and three query targets that
//! exercise the three cost regimes of `RhDb::read_as_of`. A query reads
//! only the records the log's index lists for its object and that
//! object's transactions (each increment's update, commit and end
//! records), so its cost follows the versions between the seed and the
//! target, not the length of the log:
//!
//! * **`asof_near_tip`** — target = the log tail. The newest checkpoint
//!   sits 300 commits below, so the replay seeds there and reads the
//!   records of the 300 younger versions.
//! * **`asof_deep_history`** — target = the last pre-checkpoint
//!   commit. No checkpoint at-or-below the target exists, so the
//!   replay is seedless: it reads from the log's first record the
//!   records of as many committed versions as the near-tip query,
//!   which is what makes the pair comparable — the delta is what
//!   seeding from a checkpoint snapshot costs or saves.
//! * **`asof_checkpoint_adjacent`** — target = the LSN right after the
//!   checkpoint. The replay seeds from the snapshot and reads almost
//!   nothing, the best case the checkpoint-seeding optimization buys.

use rh_common::{Lsn, ObjectId};
use rh_core::engine::{RhDb, Strategy};
use rh_core::TxnEngine;
use rh_obs::Stopwatch;

/// Committed increments on each side of the checkpoint.
pub const COMMITS_PER_HALF: u64 = 300;
/// The hot object every query reenacts.
pub const OB: ObjectId = ObjectId(7);

/// The built engine plus the three per-regime query targets.
pub struct AsofFixture {
    /// The engine whose log the queries replay.
    pub db: RhDb,
    /// Target at the last pre-checkpoint commit (seedless).
    pub deep: Lsn,
    /// Target right after the checkpoint (seed + near-zero scan).
    pub ckpt_adjacent: Lsn,
}

/// Builds the fixture: 300 increments, a checkpoint, 300 more. Each
/// transaction also touches a cold neighbor object, so the log holds
/// records that are not about `OB`, like any real log; the index lets
/// the replay leave them unread.
pub fn build() -> AsofFixture {
    let mut db = RhDb::new(Strategy::Rh);
    let mut deep = Lsn::NULL;
    for i in 0..COMMITS_PER_HALF {
        commit_one(&mut db, i);
        if i == COMMITS_PER_HALF - 1 {
            deep = db.log().last_lsn();
        }
    }
    TxnEngine::checkpoint(&mut db).expect("bench checkpoint");
    let ckpt_adjacent = db.log().last_lsn();
    for i in COMMITS_PER_HALF..2 * COMMITS_PER_HALF {
        commit_one(&mut db, i);
    }
    AsofFixture { db, deep, ckpt_adjacent }
}

fn commit_one(db: &mut RhDb, i: u64) {
    let t = db.begin().expect("bench begin");
    db.add(t, OB, 1).expect("bench add");
    db.write(t, ObjectId(1000 + i), i as i64).expect("bench write");
    db.commit(t).expect("bench commit");
}

impl AsofFixture {
    /// The query target behind a named baseline row, or `None` if the
    /// name is not a time-travel row.
    pub fn target(&self, name: &str) -> Option<Lsn> {
        match name {
            "asof_near_tip" => Some(Lsn::NULL),
            "asof_deep_history" => Some(self.deep),
            "asof_checkpoint_adjacent" => Some(self.ckpt_adjacent),
            _ => None,
        }
    }

    /// Runs one `read_as_of` at `target`, returning the value (for
    /// black-boxing) and asserting the reenactment answered.
    pub fn query(&self, target: Lsn) -> i64 {
        self.db.read_as_of(OB, target).expect("bench reenactment")
    }
}

/// Median nanoseconds per `read_as_of` at `target`: `iters` timed
/// batches of [`QUERIES_PER_BATCH`] queries each (one untimed warmup),
/// batch median divided down to per-query.
pub fn median_asof_ns(fixture: &AsofFixture, target: Lsn, iters: usize) -> u64 {
    const QUERIES_PER_BATCH: u64 = 20;
    let run = || {
        for _ in 0..QUERIES_PER_BATCH {
            std::hint::black_box(fixture.query(target));
        }
    };
    run();
    let mut times: Vec<u64> = (0..iters)
        .map(|_| {
            let sw = Stopwatch::start();
            run();
            sw.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] / QUERIES_PER_BATCH
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::reenact::Purpose;

    #[test]
    fn fixture_targets_hit_their_regimes() {
        let f = build();
        // All three targets answer, with the values the increments imply.
        assert_eq!(f.query(Lsn::NULL), 2 * COMMITS_PER_HALF as i64);
        assert_eq!(f.query(f.ckpt_adjacent), COMMITS_PER_HALF as i64);
        assert_eq!(f.query(f.deep), COMMITS_PER_HALF as i64);
        // The regimes are real: the checkpoint-adjacent replay seeds
        // from the snapshot, the deep-history one cannot.
        let adj = f.db.reenact(OB, f.ckpt_adjacent, Purpose::Value).expect("reenact");
        assert!(adj.seeded_from.is_some(), "adjacent target must seed");
        let deep = f.db.reenact(OB, f.deep, Purpose::Value).expect("reenact");
        assert!(deep.seeded_from.is_none(), "deep target must be seedless");
        assert!(
            deep.records_scanned > adj.records_scanned,
            "deep replay must scan more than the seeded one ({} vs {})",
            deep.records_scanned,
            adj.records_scanned
        );
    }
}
