//! Log record types.
//!
//! "The fields in a log record are: LSN (log-sequence number), Type
//! (update, delegation, commit, etc.), Trans-ID (the ID of the transaction
//! that created the record), and Data. For delegate records there also
//! exist two LSN pointers to the delegator and delegatee" (paper §3.1,
//! Fig. 6).
//!
//! Every record also carries `prev_lsn`, the per-transaction backward-chain
//! pointer ARIES uses to roll a transaction back without scanning the log.
//! A [`RecordBody::Delegate`] record sits on *two* chains at once: the
//! delegator reaches its earlier records through `tor_bc` (aliased by
//! `prev_lsn`) and the delegatee through `tee_bc` — see [`crate::chain`].

use rh_common::codec::{Codec, Reader, Writer};
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp};

/// What a delegation transfers: one object or the delegator's whole
/// object list.
///
/// "Delegating an object is tantamount to delegating all the operations on
/// that object" (§2.1.2); `All` is the `delegate(t2, t1)` form used by
/// join in the split-transaction example (§2.2.1). A set of objects is the
/// atomic multi-delegation of §2.1.2 ("Granularity").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DelegateBody {
    /// Delegate the delegator's operations on the listed objects.
    Objects(Vec<ObjectId>),
    /// Delegate everything the delegator is responsible for.
    All,
}

impl DelegateBody {
    /// Convenience constructor for the common single-object case.
    pub fn one(ob: ObjectId) -> Self {
        DelegateBody::Objects(vec![ob])
    }
}

/// Type-specific payload of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// Transaction began. (`initiate`/`begin` are collapsed: our engines
    /// log one record at the first action of a transaction.)
    Begin,
    /// An in-place update to one object.
    Update {
        /// Object updated.
        ob: ObjectId,
        /// The operation, carrying redo and undo information.
        op: UpdateOp,
    },
    /// Compensation log record: the redo-only description of one undo.
    Clr {
        /// Object whose update was undone.
        ob: ObjectId,
        /// The compensating operation (applied during redo of the CLR).
        op: UpdateOp,
        /// LSN of the update record this CLR compensates. The forward pass
        /// collects these so a backward pass after a crash *during*
        /// recovery never undoes the same update twice.
        compensated: Lsn,
        /// Next record to undo for this rollback (the usual ARIES
        /// UndoNxtLSN); NULL when the rollback is complete.
        undo_next: Lsn,
    },
    /// Transaction committed (log forced through this record).
    Commit,
    /// Transaction aborted (all its responsible updates were undone and
    /// compensated before this record).
    Abort,
    /// Transaction is fully terminated and may leave the tables.
    End,
    /// The paper's new record type (Fig. 6): `tor` delegated the
    /// operations described by `body` to `tee`.
    Delegate {
        /// Delegatee transaction id.
        tee: TxnId,
        /// Head of the delegatee's backward chain before this record
        /// (`teeBC`). The delegator's pointer (`torBC`) is this record's
        /// `prev_lsn`, since the record is written by the delegator.
        tee_bc: Lsn,
        /// What was delegated.
        body: DelegateBody,
    },
    /// Start of a fuzzy checkpoint.
    CheckpointBegin,
    /// End of a fuzzy checkpoint. The payload is an engine-defined
    /// snapshot (transaction table, dirty-page table, and — this is the
    /// delegation-specific part — the scope tables); the WAL treats it as
    /// opaque bytes so record formats stay engine-agnostic.
    CheckpointEnd {
        /// Engine-encoded snapshot.
        payload: Vec<u8>,
    },
    /// Two-phase commit, phase one: this participant log holds every
    /// update the transaction is responsible for here, durably, and the
    /// transaction may no longer be unilaterally aborted by this
    /// participant. A recovery that finds a `Prepare` without a local
    /// commit/abort must leave the transaction **in doubt** and resolve
    /// it against the coordinator's [`RecordBody::CoordCommit`] record.
    Prepare,
    /// Two-phase commit, commit point: written (and forced) in the
    /// coordinator participant's log after every participant prepared.
    /// Its durability *is* the global commit; participants without one
    /// anywhere are presumed aborted.
    CoordCommit {
        /// Shard indices of every participant (the coordinator included),
        /// so recovery knows which logs hold `Prepare` records to resolve.
        participants: Vec<u32>,
    },
    /// A flight-recorder black box: observability state frozen for a
    /// postmortem, riding the log like a `CheckpointEnd` (no
    /// transaction, NULL `prev_lsn`, opaque payload). No state moves
    /// through it; recovery keeps only the newest one it passes.
    BlackBox {
        /// Encoded black-box record (`rh_obs::blackbox`).
        payload: Vec<u8>,
    },
}

impl RecordBody {
    /// Short type name for dumps and experiment tables.
    pub fn kind(&self) -> &'static str {
        match self {
            RecordBody::Begin => "begin",
            RecordBody::Update { .. } => "update",
            RecordBody::Clr { .. } => "clr",
            RecordBody::Commit => "commit",
            RecordBody::Abort => "abort",
            RecordBody::End => "end",
            RecordBody::Delegate { .. } => "delegate",
            RecordBody::CheckpointBegin => "chkpt-begin",
            RecordBody::CheckpointEnd { .. } => "chkpt-end",
            RecordBody::Prepare => "prepare",
            RecordBody::CoordCommit { .. } => "coord-commit",
            RecordBody::BlackBox { .. } => "blackbox",
        }
    }
}

/// A complete log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// This record's position in the log. Stored redundantly (the position
    /// is also the index) as a corruption tripwire on decode.
    pub lsn: Lsn,
    /// The transaction that created the record (the paper's Trans-ID). For
    /// delegate records this is the **delegator** (`tor` in Fig. 6).
    /// [`TxnId::NONE`] for checkpoint and black-box records.
    pub txn: TxnId,
    /// Backward-chain pointer: the previous record of `txn`, NULL if this
    /// is the transaction's first record. For delegate records this is
    /// `torBC`.
    pub prev_lsn: Lsn,
    /// Type-specific payload.
    pub body: RecordBody,
}

impl LogRecord {
    /// True for update records (the records the backward pass may undo).
    pub fn is_update(&self) -> bool {
        matches!(self.body, RecordBody::Update { .. })
    }

    /// True for delegate records.
    pub fn is_delegate(&self) -> bool {
        matches!(self.body, RecordBody::Delegate { .. })
    }

    /// One-line rendering used by the experiment binary to print logs the
    /// way the paper's Fig. 2 does.
    pub fn render(&self) -> String {
        match &self.body {
            RecordBody::Update { ob, .. } => {
                format!("{} update[{}, {}]", self.lsn.raw(), self.txn, ob)
            }
            RecordBody::Clr { ob, compensated, .. } => {
                format!("{} clr[{}, {}] comp={}", self.lsn.raw(), self.txn, ob, compensated.raw())
            }
            RecordBody::Delegate { tee, body, .. } => {
                let what = match body {
                    DelegateBody::All => "*".to_string(),
                    DelegateBody::Objects(obs) => {
                        obs.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(",")
                    }
                };
                format!("{} delegate {} --{}--> {}", self.lsn.raw(), self.txn, what, tee)
            }
            RecordBody::CoordCommit { participants } => {
                let parts =
                    participants.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",");
                format!("{} coord-commit[{}] shards={}", self.lsn.raw(), self.txn, parts)
            }
            other => format!("{} {}[{}]", self.lsn.raw(), other.kind(), self.txn),
        }
    }
}

impl Codec for DelegateBody {
    fn encode(&self, w: &mut Writer) {
        match self {
            DelegateBody::Objects(obs) => {
                w.put_u8(0);
                obs.encode(w);
            }
            DelegateBody::All => w.put_u8(1),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(DelegateBody::Objects(Vec::decode(r)?)),
            1 => Ok(DelegateBody::All),
            _ => Err(RhError::Codec("invalid DelegateBody tag")),
        }
    }
}

impl Codec for RecordBody {
    fn encode(&self, w: &mut Writer) {
        match self {
            RecordBody::Begin => w.put_u8(0),
            RecordBody::Update { ob, op } => {
                w.put_u8(1);
                ob.encode(w);
                op.encode(w);
            }
            RecordBody::Clr { ob, op, compensated, undo_next } => {
                w.put_u8(2);
                ob.encode(w);
                op.encode(w);
                compensated.encode(w);
                undo_next.encode(w);
            }
            RecordBody::Commit => w.put_u8(3),
            RecordBody::Abort => w.put_u8(4),
            RecordBody::End => w.put_u8(5),
            RecordBody::Delegate { tee, tee_bc, body } => {
                w.put_u8(6);
                tee.encode(w);
                tee_bc.encode(w);
                body.encode(w);
            }
            RecordBody::CheckpointBegin => w.put_u8(7),
            RecordBody::CheckpointEnd { payload } => {
                w.put_u8(8);
                w.put_bytes(payload);
            }
            RecordBody::Prepare => w.put_u8(9),
            RecordBody::CoordCommit { participants } => {
                w.put_u8(10);
                participants.encode(w);
            }
            RecordBody::BlackBox { payload } => {
                w.put_u8(11);
                w.put_bytes(payload);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => RecordBody::Begin,
            1 => RecordBody::Update { ob: ObjectId::decode(r)?, op: UpdateOp::decode(r)? },
            2 => RecordBody::Clr {
                ob: ObjectId::decode(r)?,
                op: UpdateOp::decode(r)?,
                compensated: Lsn::decode(r)?,
                undo_next: Lsn::decode(r)?,
            },
            3 => RecordBody::Commit,
            4 => RecordBody::Abort,
            5 => RecordBody::End,
            6 => RecordBody::Delegate {
                tee: TxnId::decode(r)?,
                tee_bc: Lsn::decode(r)?,
                body: DelegateBody::decode(r)?,
            },
            7 => RecordBody::CheckpointBegin,
            8 => RecordBody::CheckpointEnd { payload: r.take_bytes()? },
            9 => RecordBody::Prepare,
            10 => RecordBody::CoordCommit { participants: Vec::decode(r)? },
            11 => RecordBody::BlackBox { payload: r.take_bytes()? },
            _ => return Err(RhError::Codec("invalid RecordBody tag")),
        })
    }
}

impl Codec for LogRecord {
    fn encode(&self, w: &mut Writer) {
        self.lsn.encode(w);
        self.txn.encode(w);
        self.prev_lsn.encode(w);
        self.body.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LogRecord {
            lsn: Lsn::decode(r)?,
            txn: TxnId::decode(r)?,
            prev_lsn: Lsn::decode(r)?,
            body: RecordBody::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: LogRecord) {
        let back = LogRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn roundtrip_every_record_type() {
        let base = |body| LogRecord { lsn: Lsn(10), txn: TxnId(1), prev_lsn: Lsn(9), body };
        roundtrip(base(RecordBody::Begin));
        roundtrip(base(RecordBody::Update {
            ob: ObjectId(4),
            op: UpdateOp::Write { before: 1, after: 2 },
        }));
        roundtrip(base(RecordBody::Clr {
            ob: ObjectId(4),
            op: UpdateOp::Add { delta: -3 },
            compensated: Lsn(5),
            undo_next: Lsn::NULL,
        }));
        roundtrip(base(RecordBody::Commit));
        roundtrip(base(RecordBody::Abort));
        roundtrip(base(RecordBody::End));
        roundtrip(base(RecordBody::Delegate {
            tee: TxnId(2),
            tee_bc: Lsn(3),
            body: DelegateBody::one(ObjectId(4)),
        }));
        roundtrip(base(RecordBody::Delegate {
            tee: TxnId(2),
            tee_bc: Lsn::NULL,
            body: DelegateBody::All,
        }));
        roundtrip(base(RecordBody::CheckpointBegin));
        roundtrip(base(RecordBody::CheckpointEnd { payload: vec![1, 2, 3] }));
        roundtrip(base(RecordBody::Prepare));
        roundtrip(base(RecordBody::CoordCommit { participants: vec![0, 2, 3] }));
        roundtrip(base(RecordBody::CoordCommit { participants: Vec::new() }));
        roundtrip(base(RecordBody::BlackBox { payload: b"{}".to_vec() }));
    }

    #[test]
    fn twopc_records_render_and_kind() {
        let base = |body| LogRecord { lsn: Lsn(7), txn: TxnId(3), prev_lsn: Lsn(6), body };
        assert_eq!(base(RecordBody::Prepare).body.kind(), "prepare");
        let cc = base(RecordBody::CoordCommit { participants: vec![1, 2] });
        assert_eq!(cc.body.kind(), "coord-commit");
        assert_eq!(cc.render(), "7 coord-commit[t3] shards=1,2");
    }

    #[test]
    fn delegate_record_has_four_chain_fields() {
        // Paper Fig. 6: LSN, tor, torBC, tee, teeBC. `tor` is the record's
        // txn field and `torBC` its prev_lsn; tee/tee_bc are in the body.
        let rec = LogRecord {
            lsn: Lsn(106),
            txn: TxnId(1),      // tor
            prev_lsn: Lsn(104), // torBC
            body: RecordBody::Delegate {
                tee: TxnId(2),
                tee_bc: Lsn(105),
                body: DelegateBody::one(ObjectId(0)),
            },
        };
        assert!(rec.is_delegate());
        assert_eq!(rec.body.kind(), "delegate");
    }

    #[test]
    fn render_matches_paper_style() {
        let rec = LogRecord {
            lsn: Lsn(100),
            txn: TxnId(1),
            prev_lsn: Lsn::NULL,
            body: RecordBody::Update { ob: ObjectId(0), op: UpdateOp::Add { delta: 1 } },
        };
        assert_eq!(rec.render(), "100 update[t1, ob0]");
    }

    #[test]
    fn corrupt_tag_rejected() {
        let rec =
            LogRecord { lsn: Lsn(0), txn: TxnId(0), prev_lsn: Lsn::NULL, body: RecordBody::Begin };
        let mut bytes = rec.to_bytes();
        *bytes.last_mut().unwrap() = 200; // clobber the body tag
        assert!(LogRecord::from_bytes(&bytes).is_err());
    }
}
