//! The forward pass: analysis + redo in one sweep (§3.6.1).
//!
//! "Because some ARIES variants merge the analysis and redo passes in a
//! single forward pass, ARIES/RH relies on a single forward pass to add
//! delegation." The pass
//!
//! * restores the checkpoint snapshot (transaction table **with scopes**,
//!   dirty-page table, txn-id high-water mark) pointed to by the master
//!   record, if any;
//! * *repeats history*: redoes every logged update and CLR whose effect is
//!   missing from the page (page-LSN test), starting from the earliest
//!   recLSN in the checkpointed dirty-page table;
//! * analyzes records after the checkpoint: transactions are **losers by
//!   default**, commits promote to winner, `delegate` records re-transfer
//!   scopes between Ob_Lists exactly as normal processing did (§3.6.1
//!   delegate: "this is done just as delegate (3) in normal processing");
//! * collects the LSNs compensated by CLRs, so a backward pass after a
//!   crash-during-recovery never undoes the same update twice.
//!
//! The sweep is one [`LogManager::scan`]: one positioned read per run of
//! frames, not per record ([`ForwardStats::stable_reads`]).
//!
//! The analysis of one record is [`ForwardOutcome::apply`], the log's
//! one record interpreter. Three callers run records through it, each
//! with its own [`Replay`] observer: this pass and a read replica
//! (`crate::replica`) share [`Redo`], which repeats history on the pages
//! and counts into `scope.*` and `provenance.*`; reenactment
//! (`crate::reenact`) folds one object's versions.

use crate::checkpoint::CheckpointSnapshot;
use crate::oblist::{ObList, ScopeAction};
use crate::provenance::ProvenanceTable;
use crate::txn_table::{TrList, TxnEntry, TxnStatus};
use rh_common::codec::Codec;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp};
use rh_obs::{names, Obs};
use rh_storage::BufferPool;
use rh_wal::record::{DelegateBody, LogRecord, RecordBody};
use rh_wal::LogManager;
use std::collections::{HashMap, HashSet};

/// Counters describing one forward pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardStats {
    /// LSN the redo scan started at.
    pub redo_from: Lsn,
    /// LSN analysis started at (after the checkpoint snapshot, if any).
    pub analysis_from: Lsn,
    /// Records visited by the scan.
    pub records_scanned: u64,
    /// Positioned log reads the scan issued (file-backed logs only): one
    /// per run of frames, not one per record.
    pub stable_reads: u64,
    /// Updates/CLRs actually reapplied to pages.
    pub redone: u64,
    /// Commit records seen (winners).
    pub commits_seen: u64,
    /// Abort records seen.
    pub aborts_seen: u64,
    /// Delegate records seen.
    pub delegations_seen: u64,
    /// 2PC `Prepare` records seen.
    pub prepares_seen: u64,
}

/// Delegated scopes by identity `(ob, invoker, first)` →
/// `(last, final owner)`: what the lazy baseline's backward pass walks
/// besides the loser scopes.
pub type LazyScopes = HashMap<(ObjectId, TxnId, Lsn), (Lsn, TxnId)>;

/// Everything the forward pass reconstructs.
#[derive(Debug)]
pub struct ForwardOutcome {
    /// The rebuilt transaction table: "Ob_Lists are restored to their
    /// state before the crash, for all transactions" (§3.6.1).
    pub tr: TrList,
    /// LSNs of updates already undone by a logged CLR.
    pub compensated: HashSet<Lsn>,
    /// Transaction-id high-water mark + 1.
    pub next_txn: u64,
    /// Lazy-baseline bookkeeping for every scope ever delegated,
    /// including scopes whose owner has since left the table. `None`
    /// unless tracking was requested.
    pub lazy_scopes: Option<LazyScopes>,
    /// Per-object delegation responsibility chains: restored from the
    /// checkpoint snapshot, then extended by every delegate record the
    /// analysis region replays — the same hops normal processing
    /// recorded before the crash.
    pub prov: ProvenanceTable,
    /// Coordinator commit decisions found in this log: transaction →
    /// participant shard indices. The sharded resolver unions these
    /// across every shard's recovery to decide in-doubt transactions.
    pub coord_commits: Vec<(TxnId, Vec<u32>)>,
    /// The newest black box analyzed, as `(lsn, encoded payload)`:
    /// recovery's postmortem parses it once both passes are done, and a
    /// promoted replica explains its dead primary from it.
    pub newest_box: Option<(Lsn, Vec<u8>)>,
    /// Counters.
    pub stats: ForwardStats,
}

/// What [`ForwardOutcome::apply`] tells its observer: only what a record
/// *did*. Restart recovery and replicas observe through [`Redo`], which
/// repeats history on the pages; reenactment folds one object's
/// versions (`crate::reenact`).
pub(crate) trait Replay {
    /// An update on `ob` by `txn` (`scope` says how the invoker's scope
    /// moved), or a CLR (`scope` is `None`). Returns whether a page was
    /// rewritten.
    fn update(
        &mut self,
        lsn: Lsn,
        txn: TxnId,
        ob: ObjectId,
        op: &UpdateOp,
        scope: Option<ScopeAction>,
    ) -> Result<bool>;

    /// A delegate record of `tor` to `tee`, before its objects move.
    fn delegate(&mut self, _lsn: Lsn, _tor: TxnId, _tee: TxnId) {}

    /// Responsibility for `ob` moved from `tor` to `tee`: `merged` scopes
    /// coalesced, and `depth` is the provenance chain's depth when the
    /// hop is new to it.
    fn moved(
        &mut self,
        ob: ObjectId,
        tor: TxnId,
        tee: TxnId,
        lsn: Lsn,
        merged: usize,
        depth: Option<usize>,
    );

    /// `txn` committed at `lsn` (a `Commit` or `CoordCommit` record);
    /// `fwd` is the state with the commit applied.
    fn commit(&mut self, _fwd: &ForwardOutcome, _txn: TxnId, _lsn: Lsn) {}

    /// `txn` aborted: its rollback already compensated every update it
    /// answered for.
    fn abort(&mut self, _txn: TxnId) {}
}

/// The observer restart recovery and replicas share: redoes every update
/// and CLR whose effect is missing from its page (page-LSN test), and
/// narrates the scope-table reconstruction into `obs` — scope opens and
/// extends, delegate-record replays with their merge counts, and
/// provenance hops. `span` is the enclosing forward-pass span when run
/// inside a recovery; a replica's open-ended pass has none.
pub(crate) struct Redo<'a> {
    pub(crate) log: &'a LogManager,
    pub(crate) pool: &'a mut BufferPool,
    pub(crate) obs: &'a Obs,
    pub(crate) span: Option<&'a rh_obs::SpanGuard<'a>>,
}

impl Redo<'_> {
    /// Reapplies `op` at `lsn` unless `ob`'s page already reflects it.
    fn redo(&mut self, lsn: Lsn, ob: ObjectId, op: &UpdateOp) -> Result<bool> {
        let page_lsn = self.pool.page_lsn_of(ob, self.log)?;
        if !page_lsn.is_null() && page_lsn >= lsn {
            return Ok(false);
        }
        let cur = self.pool.read_object(ob, self.log)?;
        self.pool.write_object(ob, op.apply(cur), lsn, self.log)?;
        Ok(true)
    }
}

impl Replay for Redo<'_> {
    fn update(
        &mut self,
        lsn: Lsn,
        _txn: TxnId,
        ob: ObjectId,
        op: &UpdateOp,
        scope: Option<ScopeAction>,
    ) -> Result<bool> {
        match scope {
            Some(ScopeAction::Opened) => self.obs.registry.inc(names::M_SCOPE_OPENS),
            Some(ScopeAction::Extended) => self.obs.registry.inc(names::M_SCOPE_EXTENDS),
            None => {}
        }
        self.redo(lsn, ob, op)
    }

    fn delegate(&mut self, lsn: Lsn, tor: TxnId, tee: TxnId) {
        self.obs.registry.inc(names::M_SCOPE_DELEGATE_REPLAYS);
        if let Some(span) = self.span {
            span.point(names::EV_DELEGATE_REPLAY, lsn.raw(), lsn.raw(), tor.raw(), tee.raw());
        }
    }

    fn moved(
        &mut self,
        ob: ObjectId,
        tor: TxnId,
        tee: TxnId,
        lsn: Lsn,
        merged: usize,
        depth: Option<usize>,
    ) {
        self.obs.registry.add(names::M_SCOPE_MERGES, merged as u64);
        if let Some(depth) = depth {
            self.obs.registry.inc(names::M_PROVENANCE_HOPS);
            self.obs.registry.observe(names::M_PROVENANCE_CHAIN_DEPTH, depth as u64);
            self.obs.tracer.point(
                names::EV_PROVENANCE_HOP,
                lsn.raw(),
                ob.raw(),
                tor.raw(),
                tee.raw(),
            );
        }
    }
}

/// Runs the forward pass. When `track_lazy` is set, also records every
/// delegated scope for the lazy-rewrite baseline's backward pass.
///
/// Scope-table reconstruction is narrated into `obs` (see [`Redo`]),
/// inside a `forward` span bracketing the whole sweep.
pub fn forward_pass(
    log: &LogManager,
    pool: &mut BufferPool,
    track_lazy: bool,
    obs: &Obs,
) -> Result<ForwardOutcome> {
    let span = obs.tracer.span(names::SPAN_FORWARD);
    let mut fwd = ForwardOutcome::new(track_lazy);

    // ---- locate the starting points -----------------------------------
    let master = log.stable().master();
    // A truncated log begins after its base; records before it cannot be
    // (and never need to be) read.
    let mut redo_from = log.first_lsn();
    let mut analysis_from = log.first_lsn();
    if !master.is_null() {
        // Find the CheckpointEnd paired with the master's CheckpointBegin
        // (in this engine they are adjacent, but scan defensively).
        let mut lsn = master.next();
        let end = log.curr_lsn();
        while lsn < end {
            let rec = log.read(lsn)?;
            if let RecordBody::CheckpointEnd { payload } = &rec.body {
                if rec.prev_lsn == master {
                    let snap = CheckpointSnapshot::from_bytes(payload).map_err(|_| {
                        RhError::CorruptLog { lsn, reason: "undecodable checkpoint snapshot" }
                    })?;
                    analysis_from = lsn.next();
                    redo_from = snap
                        .dpt
                        .iter()
                        .map(|&(_, rec_lsn)| rec_lsn)
                        .filter(|l| !l.is_null())
                        .min()
                        .unwrap_or(analysis_from)
                        .max(log.first_lsn());
                    fwd.restore(snap);
                    break;
                }
            }
            lsn = lsn.next();
        }
    }
    fwd.stats.redo_from = redo_from;
    fwd.stats.analysis_from = analysis_from;

    // ---- the single sweep ----------------------------------------------
    let mut redo = Redo { log, pool, obs, span: Some(&span) };
    let reads_before = log.metrics().snapshot().stable_reads;
    log.scan(redo_from, log.curr_lsn(), |rec| {
        fwd.stats.records_scanned += 1;
        if rec.lsn >= analysis_from {
            fwd.apply(&rec, &mut redo)?;
        } else if let RecordBody::Update { ob, op } | RecordBody::Clr { ob, op, .. } = &rec.body {
            // Redo-only region: state changes here — the id high-water
            // mark included — are already reflected in the checkpoint
            // snapshot; only page contents may lag.
            fwd.stats.redone += u64::from(redo.redo(rec.lsn, *ob, op)?);
            if let RecordBody::Clr { compensated: c, .. } = &rec.body {
                fwd.compensated.insert(*c);
            }
        }
        Ok(())
    })?;
    fwd.stats.stable_reads = log.metrics().snapshot().stable_reads - reads_before;
    Ok(fwd)
}

impl ForwardOutcome {
    /// The state before any record: an empty table. `track_lazy` asks
    /// for the lazy baseline's scope bookkeeping.
    pub(crate) fn new(track_lazy: bool) -> Self {
        ForwardOutcome {
            tr: TrList::new(),
            compensated: HashSet::new(),
            next_txn: 0,
            lazy_scopes: track_lazy.then(HashMap::new),
            prov: ProvenanceTable::new(),
            coord_commits: Vec::new(),
            newest_box: None,
            stats: ForwardStats::default(),
        }
    }

    /// Restores what a checkpoint snapshot froze: the transaction table
    /// with its scopes, the id high-water mark, the compensated LSNs and
    /// the provenance chains.
    pub(crate) fn restore(&mut self, snap: CheckpointSnapshot) {
        self.tr = snap.tr_list;
        self.next_txn = snap.next_txn;
        self.compensated.extend(snap.compensated);
        self.prov = snap.provenance;
        // Re-report coordinator decisions the snapshot carried: their
        // CoordCommit records lie behind this anchor, but another shard's
        // in-doubt resolution may still depend on them.
        self.coord_commits.extend(snap.coord_decisions);
    }

    /// Analyzes one record, mutating the forward-pass state in place, and
    /// tells `replay` what it did. This is the log's only record
    /// interpreter: the forward pass runs its analysis region through it,
    /// a read replica every shipped record, and reenactment the records
    /// that bear on one object — so a replica's scope tables, provenance
    /// chains and coordinator decisions are byte-for-byte what a restart
    /// recovery of the same log would build, and a time-travel read sees
    /// the log with the semantics recovery gives it.
    pub(crate) fn apply(&mut self, rec: &LogRecord, replay: &mut impl Replay) -> Result<()> {
        let lsn = rec.lsn;
        if !rec.txn.is_none() {
            self.next_txn = self.next_txn.max(rec.txn.raw() + 1);
        }
        match &rec.body {
            RecordBody::Begin => {
                // LOSER BY DEFAULT (§3.6.1): a fresh entry is Active, and
                // Active means loser until a commit record says otherwise.
                self.enter(rec.txn, lsn)?;
            }
            RecordBody::Update { ob, op } => {
                let entry = self.touch(rec.txn, lsn)?;
                // ADJUST SCOPES "just as update (1) in normal processing".
                let action = entry.ob_list.record_update(*ob, rec.txn, lsn);
                self.stats.redone +=
                    u64::from(replay.update(lsn, rec.txn, *ob, op, Some(action))?);
            }
            RecordBody::Clr { ob, op, compensated: c, .. } => {
                self.touch(rec.txn, lsn)?;
                self.compensated.insert(*c);
                self.stats.redone += u64::from(replay.update(lsn, rec.txn, *ob, op, None)?);
            }
            RecordBody::Delegate { tee, body, .. } => {
                self.stats.delegations_seen += 1;
                replay.delegate(lsn, rec.txn, *tee);
                self.touch(rec.txn, lsn)?;
                self.touch(*tee, lsn)?;
                // TRANSFER RESPONSIBILITY "just as delegate (3) in normal
                // processing" — leniently: on a log the lazy baseline has
                // rewritten, the delegator's entry may already be gone.
                let objects: Vec<ObjectId> = match body {
                    DelegateBody::Objects(objs) => objs.clone(),
                    DelegateBody::All => self.tr.get(rec.txn)?.ob_list.objects().collect(),
                };
                for ob in objects {
                    let Some(entry) = self.tr.get_mut(rec.txn)?.ob_list.take(ob) else { continue };
                    if let Some(lazy) = &mut self.lazy_scopes {
                        for s in &entry.scopes {
                            lazy.insert((ob, s.invoker, s.first), (s.last, *tee));
                        }
                    }
                    let merged = self.tr.get_mut(*tee)?.ob_list.absorb(ob, entry, rec.txn);
                    // REBUILD PROVENANCE: the same hop normal processing
                    // recorded. Idempotent per (ob, lsn), so hops already
                    // restored from the checkpoint are not re-counted.
                    let depth = self.prov.record_hop(ob, rec.txn, *tee, lsn);
                    replay.moved(ob, rec.txn, *tee, lsn, merged, depth);
                }
            }
            RecordBody::Commit => {
                self.stats.commits_seen += 1;
                // WINNER (§3.6.1): "Declare t as a winner."
                self.touch(rec.txn, lsn)?.status = TxnStatus::Committed;
                replay.commit(self, rec.txn, lsn);
            }
            RecordBody::CoordCommit { participants } => {
                self.coord_commits.push((rec.txn, participants.clone()));
                // The coordinator record's durability IS the global commit:
                // locally the transaction is a winner from here on, even if
                // its (lazily flushed) participant Commit record was lost.
                self.touch(rec.txn, lsn)?.status = TxnStatus::Committed;
                replay.commit(self, rec.txn, lsn);
            }
            RecordBody::Abort => {
                self.stats.aborts_seen += 1;
                let entry = self.touch(rec.txn, lsn)?;
                entry.status = TxnStatus::Aborted;
                // The abort record is only written after every responsible
                // update was undone and compensated (§3.5 abort), so these
                // scopes have nothing left to undo — drop them so the
                // backward pass does not walk dead clusters.
                entry.ob_list = ObList::new();
                replay.abort(rec.txn);
            }
            RecordBody::End => {
                self.tr.remove(rec.txn);
            }
            RecordBody::Prepare => {
                self.stats.prepares_seen += 1;
                // IN DOUBT: prepared, and no local commit/abort seen yet. A
                // later Commit/Abort record overrides this, exactly as during
                // normal 2PC processing.
                self.touch(rec.txn, lsn)?.status = TxnStatus::Prepared;
            }
            RecordBody::CheckpointBegin | RecordBody::CheckpointEnd { .. } => {
                // A checkpoint later than the master anchor (or an incomplete
                // one): its information is redundant with the live scan.
            }
            RecordBody::BlackBox { payload } => {
                // Observability only: no state moves. Keep the bytes of
                // the newest box; nobody parses the older ones.
                self.newest_box = Some((lsn, payload.clone()));
            }
        }
        Ok(())
    }

    /// `txn`'s entry, entered first if unknown: records of unknown
    /// transactions imply one (ARIES analysis does the same — and the
    /// lazy baseline can leave rewritten records positioned before their
    /// new owner's begin record).
    fn enter(&mut self, txn: TxnId, lsn: Lsn) -> Result<&mut TxnEntry> {
        if !self.tr.contains(txn) {
            self.tr.insert(txn, lsn);
        }
        self.tr.get_mut(txn)
    }

    /// [`Self::enter`], making the record at `lsn` the head of `txn`'s
    /// backward chain.
    fn touch(&mut self, txn: TxnId, lsn: Lsn) -> Result<&mut TxnEntry> {
        let entry = self.enter(txn, lsn)?;
        entry.last_lsn = lsn;
        Ok(entry)
    }
}
