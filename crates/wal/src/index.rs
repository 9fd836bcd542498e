//! A secondary index over the log, built lazily by time-travel reads.
//!
//! Reenactment (`rh_core::reenact`) answers "what was object X as of LSN
//! L" by replaying the log through a shadow scope table. Only a few
//! records bear on one object: its own updates and compensations, the
//! delegations that name it, the outcome records of the transactions that
//! answered for it, and the checkpoint the replay seeds from. The index
//! keeps three sorted LSN lists so a query can fetch exactly those:
//!
//! * **per object** — its `Update`/`Clr` records and the `Delegate`
//!   records whose object list names it;
//! * **per transaction** — its `Commit`/`CoordCommit`/`Abort`/`Prepare`/
//!   `End` records and the `Delegate{All}` records it issued (a whole-list
//!   delegation names no object, so it is found through its delegator);
//! * every **`CheckpointEnd`**.
//!
//! Nothing indexes on the write path: each lookup first ingests the log
//! up to the LSN it asks about (see [`crate::LogManager::object_lsns`]),
//! so `append` and `flush_to` do no extra work and memory follows the
//! queried prefix. Truncation prunes the lists; an in-place rewrite
//! (baselines only) drops the whole index.

use crate::record::{DelegateBody, LogRecord, RecordBody};
use rh_common::{Lsn, ObjectId, TxnId};
use std::collections::HashMap;

/// The three LSN lists plus the ingest mark. Every list is ascending.
#[derive(Debug, Default)]
pub(crate) struct LogIndex {
    /// Every record with LSN below this has been ingested.
    next: u64,
    objects: HashMap<ObjectId, Vec<Lsn>>,
    txns: HashMap<TxnId, Vec<Lsn>>,
    checkpoints: Vec<Lsn>,
    /// Total LSNs held across all lists.
    entries: u64,
}

fn push(list: &mut Vec<Lsn>, lsn: Lsn, entries: &mut u64) {
    // A delegation listing an object twice indexes it once.
    if list.last() != Some(&lsn) {
        list.push(lsn);
        *entries += 1;
    }
}

/// The sub-slice of an ascending `list` within `[lo, hi]`.
fn range(list: &[Lsn], lo: Lsn, hi: Lsn) -> &[Lsn] {
    let a = list.partition_point(|&l| l < lo);
    let b = list.partition_point(|&l| l <= hi);
    &list[a..b.max(a)]
}

/// Drops the LSNs below `base` from an ascending list; returns how many.
fn cut(list: &mut Vec<Lsn>, base: Lsn) -> u64 {
    let n = list.partition_point(|&l| l < base);
    list.drain(..n);
    n as u64
}

/// [`cut`] over every list of a keyed map, removing lists left empty.
fn cut_map<K>(map: &mut HashMap<K, Vec<Lsn>>, base: Lsn) -> u64 {
    let mut dropped = 0;
    map.retain(|_, list| {
        dropped += cut(list, base);
        !list.is_empty()
    });
    dropped
}

impl LogIndex {
    /// The first LSN not yet ingested.
    pub(crate) fn next(&self) -> u64 {
        self.next
    }

    /// Total LSNs held across all lists.
    pub(crate) fn entries(&self) -> u64 {
        self.entries
    }

    /// Files one record, which must lie at or past the ingest mark.
    pub(crate) fn add(&mut self, rec: &LogRecord) {
        debug_assert!(rec.lsn.raw() >= self.next, "index ingests in LSN order");
        let lsn = rec.lsn;
        let entries = &mut self.entries;
        match &rec.body {
            RecordBody::Update { ob, .. } | RecordBody::Clr { ob, .. } => {
                push(self.objects.entry(*ob).or_default(), lsn, entries);
            }
            RecordBody::Delegate { body: DelegateBody::Objects(obs), .. } => {
                for ob in obs {
                    push(self.objects.entry(*ob).or_default(), lsn, entries);
                }
            }
            RecordBody::Delegate { body: DelegateBody::All, .. }
            | RecordBody::Commit
            | RecordBody::CoordCommit { .. }
            | RecordBody::Abort
            | RecordBody::Prepare
            | RecordBody::End => push(self.txns.entry(rec.txn).or_default(), lsn, entries),
            RecordBody::CheckpointEnd { .. } => push(&mut self.checkpoints, lsn, entries),
            RecordBody::Begin | RecordBody::CheckpointBegin | RecordBody::BlackBox { .. } => {}
        }
        self.next = lsn.raw() + 1;
    }

    /// Forgets every LSN below `base` (the log's new first record).
    pub(crate) fn prune(&mut self, base: Lsn) {
        let dropped = cut_map(&mut self.objects, base)
            + cut_map(&mut self.txns, base)
            + cut(&mut self.checkpoints, base);
        self.entries -= dropped;
        self.next = self.next.max(base.raw());
    }

    /// The newest indexed `CheckpointEnd` at or below `lsn`.
    pub(crate) fn checkpoint_at_or_below(&self, lsn: Lsn) -> Option<Lsn> {
        let n = self.checkpoints.partition_point(|&l| l <= lsn);
        n.checked_sub(1).map(|i| self.checkpoints[i])
    }

    /// The records about `ob` within `[lo, hi]`.
    pub(crate) fn object(&self, ob: ObjectId, lo: Lsn, hi: Lsn) -> &[Lsn] {
        self.objects.get(&ob).map_or(&[], |l| range(l, lo, hi))
    }

    /// The transaction-scoped records of `txn` within `[lo, hi]`.
    pub(crate) fn txn(&self, txn: TxnId, lo: Lsn, hi: Lsn) -> &[Lsn] {
        self.txns.get(&txn).map_or(&[], |l| range(l, lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_common::UpdateOp;

    fn rec(lsn: u64, txn: u64, body: RecordBody) -> LogRecord {
        LogRecord { lsn: Lsn(lsn), txn: TxnId(txn), prev_lsn: Lsn::NULL, body }
    }

    fn upd(ob: u64) -> RecordBody {
        RecordBody::Update { ob: ObjectId(ob), op: UpdateOp::Add { delta: 1 } }
    }

    fn index(recs: &[LogRecord]) -> LogIndex {
        let mut ix = LogIndex::default();
        for r in recs {
            ix.add(r);
        }
        ix
    }

    #[test]
    fn files_each_record_under_its_list() {
        let ix = index(&[
            rec(0, 1, RecordBody::Begin),
            rec(1, 1, upd(7)),
            rec(
                2,
                1,
                RecordBody::Delegate {
                    tee: TxnId(2),
                    tee_bc: Lsn::NULL,
                    body: DelegateBody::Objects(vec![ObjectId(7), ObjectId(7), ObjectId(8)]),
                },
            ),
            rec(
                3,
                2,
                RecordBody::Delegate { tee: TxnId(3), tee_bc: Lsn::NULL, body: DelegateBody::All },
            ),
            rec(4, 0, RecordBody::CheckpointBegin),
            rec(5, 0, RecordBody::CheckpointEnd { payload: Vec::new() }),
            rec(6, 3, RecordBody::Commit),
            rec(7, 3, RecordBody::End),
        ]);
        assert_eq!(ix.object(ObjectId(7), Lsn(0), Lsn(7)), &[Lsn(1), Lsn(2)]);
        assert_eq!(ix.object(ObjectId(8), Lsn(0), Lsn(7)), &[Lsn(2)]);
        assert_eq!(ix.txn(TxnId(2), Lsn(0), Lsn(7)), &[Lsn(3)]);
        assert_eq!(ix.txn(TxnId(3), Lsn(0), Lsn(7)), &[Lsn(6), Lsn(7)]);
        assert!(ix.txn(TxnId(1), Lsn(0), Lsn(7)).is_empty());
        assert_eq!(ix.checkpoint_at_or_below(Lsn(4)), None);
        assert_eq!(ix.checkpoint_at_or_below(Lsn(9)), Some(Lsn(5)));
        assert_eq!(ix.entries(), 7);
        assert_eq!(ix.next(), 8);
    }

    #[test]
    fn ranges_are_inclusive_and_empty_when_inverted() {
        let ix = index(&(0..10).map(|i| rec(i, 1, upd(0))).collect::<Vec<_>>());
        assert_eq!(ix.object(ObjectId(0), Lsn(3), Lsn(5)), &[Lsn(3), Lsn(4), Lsn(5)]);
        assert!(ix.object(ObjectId(0), Lsn(6), Lsn(5)).is_empty());
        assert!(ix.object(ObjectId(1), Lsn(0), Lsn(9)).is_empty());
    }

    #[test]
    fn prune_drops_below_base_and_empty_lists() {
        let mut ix = index(&[
            rec(0, 1, upd(0)),
            rec(1, 1, RecordBody::Commit),
            rec(2, 0, RecordBody::CheckpointEnd { payload: Vec::new() }),
            rec(3, 2, upd(0)),
        ]);
        ix.prune(Lsn(2));
        assert_eq!(ix.object(ObjectId(0), Lsn(0), Lsn(3)), &[Lsn(3)]);
        assert!(ix.txns.is_empty(), "a list emptied by the prune is removed");
        assert_eq!(ix.checkpoint_at_or_below(Lsn(3)), Some(Lsn(2)));
        assert_eq!(ix.entries(), 2);
        ix.prune(Lsn(10));
        assert_eq!(ix.entries(), 0);
        assert_eq!(ix.next(), 10, "the ingest mark never trails the base");
    }
}
