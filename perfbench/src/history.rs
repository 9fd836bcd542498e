//! The fixed crashed history of `history_restart`, built in process,
//! with the oracle that knows every committed version in it.
//!
//! The history is sized by transaction count, never by time, so a
//! faster engine builds the same log and the reads that scan it do the
//! same work. It has three ingredients:
//!
//! * many versions of a small hot set (4 pages, well under the 256-page
//!   pool), written one transaction at a time;
//! * delegation chains on the hot set, including delegators that abort
//!   after delegating (their updates survive through the delegatee);
//! * in-flight losers spread over the log: each begins with an update
//!   of its own, later receives a delegated update from a committed
//!   delegator and one from an aborted delegator, and is still running
//!   at the crash. Winners run in between, so the backward pass meets
//!   several clusters separated by gaps.
//!
//! Commits are forced in batches, the log is flushed, and the engine is
//! crashed with no checkpoint (a checkpointed directory is one
//! `rh-serve` refuses).

use crate::plan::range_base;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, TxnId};
use rh_core::engine::DbConfig;
use rh_core::{RhDb, Strategy, TxnEngine};
use rh_wal::StableLog;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Objects in the hot set (64 objects share a page: 4 pages).
pub const HOT_OBJECTS: u64 = 256;
/// Range of the hot set.
const HOT_RANGE: u64 = 1;
/// Range of the losers' private objects.
const LOSER_RANGE: u64 = 2;
/// In-flight losers at the crash.
const LOSERS: u64 = 6;
/// Commits per log force while building.
const FORCE_EVERY: u64 = 32;

/// One time-travel probe and the value the oracle expects.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Object read.
    pub ob: ObjectId,
    /// As-of LSN ([`Lsn::NULL`] = now).
    pub lsn: Lsn,
    /// Expected committed value.
    pub expect: Value,
}

/// What the built history must look like from outside.
#[derive(Debug, Default)]
pub struct HistoryOracle {
    /// Committed versions per hot object, in commit order:
    /// `(commit LSN, value after that commit)`.
    timeline: HashMap<ObjectId, Vec<(u64, Value)>>,
    /// Commit LSNs of every winner, in order.
    commit_lsns: Vec<u64>,
    /// Values every object must hold after restart: the hot set's final
    /// committed values and 0 for every loser object.
    pub expect: Vec<(ObjectId, Value)>,
}

impl HistoryOracle {
    /// The committed value of `ob` as of `lsn` (inclusive).
    pub fn value_at(&self, ob: ObjectId, lsn: u64) -> Value {
        let versions = self.timeline.get(&ob).map(Vec::as_slice).unwrap_or(&[]);
        let idx = versions.partition_point(|&(l, _)| l <= lsn);
        if idx == 0 {
            0
        } else {
            versions[idx - 1].1
        }
    }

    /// `n` seeded probes: a random hot object, as of a random committed
    /// LSN or (one in four) as of now.
    pub fn probes(&self, seed: u64, n: usize) -> Vec<Probe> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa50f_0000);
        (0..n)
            .map(|_| {
                let ob = ObjectId(range_base(HOT_RANGE) + rng.random_range(0..HOT_OBJECTS));
                if rng.random_bool(0.25) || self.commit_lsns.is_empty() {
                    Probe { ob, lsn: Lsn::NULL, expect: self.value_at(ob, u64::MAX) }
                } else {
                    let l = self.commit_lsns[rng.random_range(0..self.commit_lsns.len())];
                    Probe { ob, lsn: Lsn(l), expect: self.value_at(ob, l) }
                }
            })
            .collect()
    }
}

/// A history being written: an engine plus the oracle's view of pending work.
struct Draft {
    db: RhDb,
    rng: StdRng,
    pending: HashMap<TxnId, Vec<(ObjectId, bool, Value)>>,
    committed: BTreeMap<ObjectId, Value>,
    oracle: HistoryOracle,
    commits: u64,
}

type Step = Result<(), String>;

fn eng<T>(r: rh_common::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("history build: {e}"))
}

impl Draft {
    fn begin(&mut self) -> Result<TxnId, String> {
        let t = eng(self.db.begin())?;
        self.pending.insert(t, Vec::new());
        Ok(t)
    }

    fn update(&mut self, t: TxnId, ob: ObjectId) -> Step {
        let add = self.rng.random_bool(0.5);
        let v: Value = self.rng.random_range(1..1_000_000i64);
        if add {
            eng(self.db.add(t, ob, v))?;
        } else {
            eng(self.db.write(t, ob, v))?;
        }
        self.pending.entry(t).or_default().push((ob, add, v));
        Ok(())
    }

    fn delegate(&mut self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Step {
        eng(self.db.delegate(tor, tee, obs))?;
        let from = self.pending.entry(tor).or_default();
        let (moved, kept): (Vec<_>, Vec<_>) = from.drain(..).partition(|u| obs.contains(&u.0));
        *from = kept;
        self.pending.entry(tee).or_default().extend(moved);
        Ok(())
    }

    fn abort(&mut self, t: TxnId) -> Step {
        eng(self.db.abort(t))?;
        self.pending.remove(&t);
        Ok(())
    }

    fn commit(&mut self, t: TxnId) -> Step {
        let lsn = eng(self.db.commit_prepare(t))?;
        self.commits += 1;
        if self.commits.is_multiple_of(FORCE_EVERY) {
            eng(self.db.log().flush_to(lsn))?;
        }
        let mut touched = BTreeMap::new();
        for (ob, add, v) in self.pending.remove(&t).unwrap_or_default() {
            let cur = self.committed.entry(ob).or_insert(0);
            *cur = if add { *cur + v } else { v };
            touched.insert(ob, *cur);
        }
        for (ob, v) in touched {
            self.oracle.timeline.entry(ob).or_default().push((lsn.0, v));
        }
        self.oracle.commit_lsns.push(lsn.0);
        Ok(())
    }

    /// Distinct random hot objects.
    fn hot(&mut self, n: usize) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = Vec::with_capacity(n);
        while out.len() < n {
            let ob = ObjectId(range_base(HOT_RANGE) + self.rng.random_range(0..HOT_OBJECTS));
            if !out.contains(&ob) {
                out.push(ob);
            }
        }
        out
    }

    /// A plain winner: three hot updates, committed.
    fn plain(&mut self) -> Step {
        let t = self.begin()?;
        for ob in self.hot(3) {
            self.update(t, ob)?;
        }
        self.commit(t)
    }

    /// A delegation chain: t1 updates, delegates to t2 and aborts; t2
    /// adds an update and either commits or delegates everything on to
    /// t3, commits (owning nothing), and t3 commits.
    fn chain(&mut self) -> Step {
        let obs = self.hot(3);
        let t1 = self.begin()?;
        self.update(t1, obs[0])?;
        self.update(t1, obs[1])?;
        let t2 = self.begin()?;
        self.delegate(t1, t2, &obs[..2])?;
        self.abort(t1)?;
        self.update(t2, obs[2])?;
        if self.rng.random_bool(0.5) {
            let t3 = self.begin()?;
            self.delegate(t2, t3, &obs)?;
            self.commit(t2)?;
            self.commit(t3)
        } else {
            self.commit(t2)
        }
    }
}

/// Builds the crashed history in `dir` and returns its oracle.
pub fn build(dir: &Path, seed: u64, txns: u64) -> Result<HistoryOracle, String> {
    let stable = StableLog::open_dir(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let mut b = Draft {
        db: RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable),
        rng: StdRng::seed_from_u64(seed ^ 0x4157_0000),
        pending: HashMap::new(),
        committed: BTreeMap::new(),
        oracle: HistoryOracle::default(),
        commits: 0,
    };
    // Loser j begins at `start(j)` and is handed delegated updates a
    // quarter-slot and a half-slot later; slots spread the losers over
    // the whole log.
    let slot = (txns / (LOSERS + 1)).max(4);
    let mut losers = Vec::new();
    let loser_ob = |j: u64, k: u64| ObjectId(range_base(LOSER_RANGE) + 4 * j + k);
    for i in 0..txns {
        let (j, phase) = (i / slot, i % slot);
        if j < LOSERS {
            if phase == slot / 4 {
                let l = b.begin()?;
                b.update(l, loser_ob(j, 0))?;
                losers.push(l);
            } else if phase == slot / 2 {
                // A delegator that commits after delegating to the loser.
                let d = b.begin()?;
                b.update(d, loser_ob(j, 1))?;
                b.delegate(d, losers[j as usize], &[loser_ob(j, 1)])?;
                b.commit(d)?;
            } else if phase == 3 * slot / 4 {
                // A delegator that aborts after delegating to the loser.
                let d = b.begin()?;
                b.update(d, loser_ob(j, 2))?;
                b.delegate(d, losers[j as usize], &[loser_ob(j, 2)])?;
                b.abort(d)?;
            }
        }
        if b.rng.random_bool(0.2) {
            b.chain()?;
        } else {
            b.plain()?;
        }
    }
    eng(b.db.log().flush_all())?;
    let mut oracle = b.oracle;
    oracle.expect = b.committed.into_iter().collect();
    for j in 0..LOSERS.min(losers.len() as u64) {
        oracle.expect.extend((0..3).map(|k| (loser_ob(j, k), 0)));
    }
    drop(b.db.crash());
    Ok(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_lookup_is_inclusive() {
        let mut o = HistoryOracle::default();
        let ob = ObjectId(1);
        o.timeline.insert(ob, vec![(10, 5), (20, 7)]);
        assert_eq!(o.value_at(ob, 9), 0);
        assert_eq!(o.value_at(ob, 10), 5);
        assert_eq!(o.value_at(ob, 19), 5);
        assert_eq!(o.value_at(ob, 20), 7);
        assert_eq!(o.value_at(ObjectId(2), 20), 0);
    }
}
