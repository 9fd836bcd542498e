//! Fuzzy-checkpoint snapshots.
//!
//! The paper "ignore\[s\] checkpoints for simplicity of presentation" but
//! notes "it is easy to see how data structures can be rebuilt using
//! checkpoints instead of going back to the beginning" (§3.6). We complete
//! that sketch: the `CheckpointEnd` record's payload is an encoded
//! [`CheckpointSnapshot`] holding
//!
//! * the transaction table **including every Ob_List with its scopes** —
//!   the delegation state is exactly the extra thing ARIES/RH must
//!   checkpoint, since scopes reaching back before the checkpoint could
//!   not otherwise be rebuilt without scanning from the log's origin;
//! * the dirty-page table (page, recLSN) for redo-skipping decisions;
//! * the transaction-id high-water mark, so post-recovery ids never
//!   collide with pre-crash ones.

use crate::provenance::ProvenanceTable;
use crate::txn_table::TrList;
use rh_common::codec::{Codec, Reader, Writer};
use rh_common::{Lsn, ObjectId, PageId, Result, TxnId, Value};
use rh_wal::record::RecordBody;
use rh_wal::LogManager;

/// The state frozen into a `CheckpointEnd` record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointSnapshot {
    /// Transaction table at checkpoint time (statuses, BC heads, and —
    /// crucially for delegation — the scope-bearing Ob_Lists).
    pub tr_list: TrList,
    /// Dirty-page table: (page, recLSN) pairs.
    pub dpt: Vec<(PageId, Lsn)>,
    /// Next transaction id to allocate.
    pub next_txn: u64,
    /// LSNs of updates already compensated (partial rollbacks) whose CLRs
    /// lie *before* this checkpoint. A scope that re-extends across a
    /// rollback boundary re-covers those records; a recovery that starts
    /// its scan at the checkpoint would never see their CLRs and would
    /// undo them a second time — this set closes that hole. Pruned to
    /// LSNs at/after the oldest live scope (older ones can never be
    /// re-covered).
    pub compensated: Vec<Lsn>,
    /// Delegation provenance chains at checkpoint time. Pure
    /// observability — recovery restores it so responsibility chains
    /// reach back before the forward-pass scan start, exactly like the
    /// scope-bearing Ob_Lists above.
    pub provenance: ProvenanceTable,
    /// Coordinator 2PC decisions (transaction → participant shards)
    /// whose participants may not all have durable Commit records yet.
    /// A checkpoint advances the recovery anchor past the `CoordCommit`
    /// records themselves, but another shard's in-doubt resolution may
    /// still depend on the decision — so unretired decisions ride in the
    /// snapshot and the forward pass re-reports them. The sharded router
    /// retires a decision only once every participant's Commit record is
    /// durable (see `ShardedDb::checkpoint_all`).
    pub coord_decisions: Vec<(TxnId, Vec<u32>)>,
    /// Object values at checkpoint time, omitting objects still at the
    /// initial value. Captured right after the checkpoint's `flush_all`,
    /// while the engine is exclusively held — so the flushed disk images
    /// *are* the database state as of `CheckpointBegin`, and no update
    /// record can land between the capture and `CheckpointEnd`. This is
    /// what lets reenactment (`read_as_of`/`history`) seed from a
    /// checkpoint and replay forward without ever touching live pages,
    /// even after `truncate_prefix` has dropped pre-checkpoint records.
    pub values: Vec<(ObjectId, Value)>,
}

impl Codec for CheckpointSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.tr_list.encode(w);
        self.dpt.encode(w);
        w.put_u64(self.next_txn);
        self.compensated.encode(w);
        self.provenance.encode(w);
        self.coord_decisions.encode(w);
        self.values.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CheckpointSnapshot {
            tr_list: TrList::decode(r)?,
            dpt: Vec::decode(r)?,
            next_txn: r.take_u64()?,
            compensated: Vec::decode(r)?,
            provenance: ProvenanceTable::decode(r)?,
            coord_decisions: Vec::decode(r)?,
            values: Vec::decode(r)?,
        })
    }
}

impl CheckpointSnapshot {
    /// The newest decodable snapshot in `log` at or below `at`, with the
    /// LSN of its `CheckpointEnd` record — found through the log's
    /// checkpoint index, older checkpoints tried while newer ones fail
    /// to decode. Reenactment seeds from it; the cross-shard decision
    /// lookup walks back through them, one call per checkpoint.
    pub(crate) fn newest_at_or_below(log: &LogManager, at: Lsn) -> Result<Option<(Lsn, Self)>> {
        let mut below = at;
        while let Some(cl) = log.checkpoint_at_or_below(below)? {
            if let RecordBody::CheckpointEnd { payload } = log.read(cl)?.body {
                if let Ok(snap) = Self::from_bytes(&payload) {
                    return Ok(Some((cl, snap)));
                }
            }
            if cl == Lsn::FIRST {
                break;
            }
            below = cl.prev();
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_common::{ObjectId, TxnId};

    #[test]
    fn roundtrip_empty() {
        let s = CheckpointSnapshot::default();
        assert_eq!(CheckpointSnapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn roundtrip_with_state() {
        let mut tr = TrList::new();
        tr.insert(TxnId(3), Lsn(10));
        tr.get_mut(TxnId(3)).unwrap().ob_list.record_update(ObjectId(5), TxnId(3), Lsn(11));
        let mut provenance = ProvenanceTable::new();
        provenance.record_hop(ObjectId(5), TxnId(3), TxnId(4), Lsn(12));
        let s = CheckpointSnapshot {
            tr_list: tr,
            dpt: vec![(PageId(0), Lsn(11)), (PageId(4), Lsn(2))],
            next_txn: 17,
            compensated: vec![Lsn(3), Lsn(9)],
            provenance,
            coord_decisions: vec![(TxnId(3), vec![1, 2])],
            values: vec![(ObjectId(5), 42), (ObjectId(9), -3)],
        };
        assert_eq!(CheckpointSnapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
