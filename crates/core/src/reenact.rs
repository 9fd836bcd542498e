//! Time-travel reads and reenactment audit (ROADMAP item 5a).
//!
//! Delegation's premise is that history is *interpreted*, never
//! rewritten: the log keeps saying "T1 wrote X at LSN l" while the scope
//! tables decide who answers for it. That means the WAL — plus the
//! checkpointed scope tables and the provenance chains — already contains
//! everything needed to answer "what was this object's value as of LSN L,
//! and who was responsible for it". This module turns that observation
//! into a queryable surface, in the spirit of reenactment query
//! processing (Arab et al., arXiv:1608.08258): [`replay`] reconstructs an
//! object's state at any retained LSN by replaying the log through a
//! *shadow* forward pass, without ever touching live pages or the live
//! engine state.
//!
//! ## Algorithm
//!
//! 1. **Seed.** Binary-search the log's checkpoint list (see below) for
//!    the newest decodable `CheckpointEnd` at-or-below the target LSN.
//!    Its snapshot provides the object's value at checkpoint time (the
//!    checkpoint captures a value overlay right after its `flush_all`,
//!    while the engine is
//!    exclusively held — so the overlay *is* the database state at
//!    `CheckpointBegin`), the transaction table with its scope-bearing
//!    Ob_Lists, the compensated-LSN set, and the provenance chains. With
//!    no checkpoint below the target the replay seeds from the log's
//!    first record and the initial value — correct whenever the log was
//!    never truncated, an error otherwise.
//! 2. **Gather.** Only a few records between the seed and the target
//!    bear on one object: its own `Update`/`Clr`/`Delegate` records, and
//!    the commit, abort, prepare, end and `Delegate{All}` records of the
//!    transactions involved with it — its invokers, its delegatees
//!    (followed through `Delegate{All}` hop by hop), and the holders in
//!    the seed snapshot. The log's secondary index
//!    ([`LogManager::object_lsns`], [`LogManager::txn_lsns`]) lists them
//!    by binary-searched LSN range, so the cost is O(versions of the
//!    object), not O(log). Every other record only moves state of other
//!    objects.
//! 3. **Replay.** Run the gathered records in LSN order through the
//!    recovery forward pass's own record interpreter
//!    (`ForwardOutcome::apply`), seeded with the snapshot's state. The
//!    interpreter drives the shadow transaction table, the compensated
//!    set and the provenance chains exactly as a recovery does; this
//!    module only *observes* what each record did, folding the one
//!    object: every `Update`/`Clr` on it is applied, so the running value
//!    at LSN L equals the page state a crash-recovery at L would rebuild,
//!    and a delegation of it retargets the *pending* (not yet committed)
//!    updates of the delegator to the delegatee, recording the hop on
//!    each — that is the per-version provenance trail.
//! 4. **Resolve.** A commit freezes the committer's un-compensated
//!    pending updates into [`VersionRecord`]s. Updates still owned by an
//!    active transaction at the target become the *undo set*: the
//!    as-of value is the all-applied value with those ops undone in
//!    reverse LSN order — precisely what recovery's backward pass would
//!    do, so `read_as_of(ob, L)` equals the committed state a crash at L
//!    recovers. Prepared-but-undecided transactions involved with the
//!    object are [`InDoubt`]: [`query`] settles them against the
//!    coordinator decisions in every shard's log it is handed
//!    (stitching cross-shard histories by global transaction id), and
//!    presumes abort for the rest — a standalone engine hands none and
//!    presumes abort, like its recovery.
//!
//! The index is built by the queries themselves, only as far as the
//! targets they ask about, so the write path pays nothing for it.
//!
//! Updates that precede the seeding checkpoint but belong to scopes still
//! live at it are reconstructed by a bounded pre-seed scan: the records
//! are guaranteed readable (log truncation never passes the oldest live
//! scope), and their at-the-time values are recovered by *undoing* the
//! suffix of operations between them and the checkpoint — `UpdateOp::undo`
//! is exact, so the overlay plus the op sequence determines every
//! intermediate value.

use crate::checkpoint::CheckpointSnapshot;
use crate::oblist::ScopeAction;
use crate::provenance::{ProvHop, ProvenanceTable};
use crate::recovery::forward::{ForwardOutcome, Replay};
use crate::scope::Scope;
use crate::txn_table::{TrList, TxnStatus};
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp, Value};
use rh_obs::{names, JsonValue, Obs};
use rh_wal::record::{LogRecord, RecordBody};
use rh_wal::LogManager;
use std::collections::BTreeSet;

/// One committed version of an object: an update stitched with its full
/// responsibility trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRecord {
    /// LSN of the update record that produced this version.
    pub lsn: Lsn,
    /// The object's value immediately after the update applied.
    pub value: Value,
    /// The transaction that physically logged the update.
    pub invoker: TxnId,
    /// The transaction that answered for it at commit time (differs from
    /// `invoker` exactly when the update was delegated).
    pub responsible: TxnId,
    /// LSN of the commit record that made this version durable truth
    /// (for a cross-shard decision, the local `Prepare` LSN).
    pub committed_at: Lsn,
    /// The delegation hops that moved responsibility from `invoker` to
    /// `responsible`, in log order (empty when never delegated).
    pub hops: Vec<ProvHop>,
    /// The originating trace id, when the commit was stitched to a
    /// request trace (filled from the tracer ring by history queries;
    /// `None` in pure log replay and in value reads).
    pub trace: Option<u64>,
}

impl VersionRecord {
    /// Renders one `history.v1` version entry.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("lsn", JsonValue::U64(self.lsn.raw())),
            ("value", JsonValue::I64(self.value)),
            ("invoker", JsonValue::U64(self.invoker.raw())),
            ("responsible", JsonValue::U64(self.responsible.raw())),
            ("committed_at", JsonValue::U64(self.committed_at.raw())),
            ("hops", JsonValue::Arr(self.hops.iter().map(ProvHop::to_json).collect())),
        ];
        if let Some(t) = self.trace {
            fields.push(("trace", JsonValue::U64(t)));
        }
        JsonValue::obj(fields)
    }
}

/// A transaction prepared but undecided at the target LSN. Its effects
/// are part of the all-applied value; [`query`] settles its fate.
#[derive(Debug, Clone)]
pub struct InDoubt {
    /// The in-doubt transaction (a global id under 2PC).
    pub txn: TxnId,
    /// LSN of its `Prepare` record.
    pub prepared_at: Lsn,
    /// Whether some shard's coordinator decision commits it; false until
    /// [`query`] finds one (presumed abort).
    committed: bool,
    /// The versions its updates become if a coordinator committed it.
    versions: Vec<VersionRecord>,
    /// The `(lsn, op)` pairs to undo if it is presumed aborted.
    undo: Vec<(Lsn, UpdateOp)>,
}

impl InDoubt {
    /// The versions this transaction contributes if globally committed.
    pub fn versions_if_committed(&self) -> &[VersionRecord] {
        &self.versions
    }
}

/// The result of reenacting one object up to a target LSN.
#[derive(Debug, Clone)]
pub struct Reenactment {
    /// The object replayed.
    pub ob: ObjectId,
    /// The effective target LSN (clamped to the last record; `NULL` only
    /// on an empty log).
    pub as_of: Lsn,
    /// LSN of the `CheckpointEnd` the replay seeded from, if any.
    pub seeded_from: Option<Lsn>,
    /// Transactions involved with the object and prepared but undecided
    /// at the target.
    pub in_doubt: Vec<InDoubt>,
    /// Log records read (seed checkpoint + gathered records + pre-seed
    /// reconstruction); index ingest is not counted here.
    pub records_scanned: u64,
    /// Committed versions in LSN order (commits at/below the target).
    versions: Vec<VersionRecord>,
    /// The value with *every* retained update applied (repeating
    /// history), before loser/in-doubt undo.
    value_all: Value,
    /// Un-compensated updates of transactions still active at the
    /// target, ascending by LSN.
    loser_undo: Vec<(Lsn, UpdateOp)>,
}

impl Reenactment {
    /// The committed value as of the target: losers undone, and every
    /// in-doubt transaction undone unless a coordinator decision
    /// committed it — exactly what a crash at the target recovers.
    pub fn value(&self) -> Value {
        let mut undo: Vec<(Lsn, UpdateOp)> = self.loser_undo.clone();
        for d in self.in_doubt.iter().filter(|d| !d.committed) {
            undo.extend(d.undo.iter().cloned());
        }
        // Reverse LSN order, like recovery's backward pass.
        undo.sort_by_key(|&(l, _)| std::cmp::Reverse(l));
        let mut v = self.value_all;
        for (_, op) in &undo {
            v = op.undo(v);
        }
        v
    }

    /// Committed versions in LSN order, those of decided in-doubt
    /// transactions included.
    pub fn versions(&self) -> Vec<VersionRecord> {
        let mut out = self.versions.clone();
        for d in self.in_doubt.iter().filter(|d| d.committed) {
            out.extend(d.versions.iter().cloned());
        }
        out.sort_by_key(|v| v.lsn);
        out
    }

    /// The fields every time-travel answer renders: object, target,
    /// value, seed and in-doubt set.
    fn answer_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("object", JsonValue::U64(self.ob.raw())),
            ("as_of", JsonValue::U64(self.as_of.raw())),
            ("value", JsonValue::I64(self.value())),
            (
                "seeded_from",
                match self.seeded_from {
                    Some(l) => JsonValue::U64(l.raw()),
                    None => JsonValue::Null,
                },
            ),
            (
                "in_doubt",
                JsonValue::Arr(self.in_doubt.iter().map(|d| JsonValue::U64(d.txn.raw())).collect()),
            ),
        ]
    }

    /// Renders the `/asof` answer: the history document without its
    /// schema tag and versions.
    pub fn asof_json(&self) -> JsonValue {
        JsonValue::obj(self.answer_fields())
    }

    /// Renders the `history.v1` artifact for this replay, restricting
    /// versions to update LSNs within `[from, to]` (pass `Lsn::FIRST`
    /// and the target to keep everything).
    pub fn to_json_range(&self, from: Lsn, to: Lsn) -> JsonValue {
        let versions: Vec<JsonValue> = self
            .versions()
            .iter()
            .filter(|v| v.lsn >= from && v.lsn <= to)
            .map(VersionRecord::to_json)
            .collect();
        let mut fields = vec![("schema", JsonValue::Str("history.v1".to_string()))];
        fields.extend(self.answer_fields());
        fields.push(("versions", JsonValue::Arr(versions)));
        JsonValue::obj(fields)
    }
}

/// An update replayed but not yet resolved by a commit/abort.
struct Pending {
    lsn: Lsn,
    value_after: Value,
    invoker: TxnId,
    /// The transaction currently answering for it (moves on delegate).
    owner: TxnId,
    op: UpdateOp,
    hops: Vec<ProvHop>,
}

impl Pending {
    /// The version this update becomes once `responsible` commits at
    /// `committed_at`.
    fn version(&self, responsible: TxnId, committed_at: Lsn) -> VersionRecord {
        VersionRecord {
            lsn: self.lsn,
            value: self.value_after,
            invoker: self.invoker,
            responsible,
            committed_at,
            hops: self.hops.clone(),
            trace: None,
        }
    }
}

/// A transaction whose resolution needs pre-seed scope reconstruction:
/// `committed_at` is `Some(lsn)` for winners, `None` for losers and
/// in-doubt transactions (whose ops join an undo set instead).
struct PreSeedNeed {
    txn: TxnId,
    committed_at: Option<Lsn>,
    scopes: Vec<Scope>,
}

/// `t`'s scopes on `ob` that reach back before the seed (`scan_from`).
fn pre_seed_scopes(tr: &TrList, t: TxnId, ob: ObjectId, scan_from: Lsn) -> Vec<Scope> {
    tr.get(t)
        .ok()
        .and_then(|e| e.ob_list.get(ob))
        .map(|e| e.scopes.iter().filter(|s| s.first < scan_from).copied().collect())
        .unwrap_or_default()
}

/// Reenactment's observer of the forward pass's interpreter: folds one
/// object's running value, its pending updates with their hop trails,
/// and the versions each commit freezes.
struct Fold {
    ob: ObjectId,
    /// First record after the seed.
    scan_from: Lsn,
    val: Value,
    pending: Vec<Pending>,
    versions: Vec<VersionRecord>,
    /// Scopes on `ob` reaching back before the seed, captured at the
    /// moment the owning transaction commits (or, for active and
    /// prepared ones, at scan end) — resolved by the pre-seed pass.
    needs: Vec<PreSeedNeed>,
}

impl Replay for Fold {
    fn update(
        &mut self,
        lsn: Lsn,
        txn: TxnId,
        ob: ObjectId,
        op: &UpdateOp,
        scope: Option<ScopeAction>,
    ) -> Result<bool> {
        if ob == self.ob {
            self.val = op.apply(self.val);
            // A CLR (no scope action) only re-reverses the value.
            if scope.is_some() {
                self.pending.push(Pending {
                    lsn,
                    value_after: self.val,
                    invoker: txn,
                    owner: txn,
                    op: *op,
                    hops: Vec::new(),
                });
            }
        }
        Ok(false)
    }

    fn moved(
        &mut self,
        ob: ObjectId,
        tor: TxnId,
        tee: TxnId,
        lsn: Lsn,
        _merged: usize,
        _depth: Option<usize>,
    ) {
        if ob == self.ob {
            // Responsibility for the pending updates of the delegator
            // moves to the delegatee.
            for p in self.pending.iter_mut().filter(|p| p.owner == tor) {
                p.owner = tee;
                p.hops.push(ProvHop { from: tor, to: tee, lsn });
            }
        }
    }

    fn commit(&mut self, fwd: &ForwardOutcome, txn: TxnId, lsn: Lsn) {
        let scopes = pre_seed_scopes(&fwd.tr, txn, self.ob, self.scan_from);
        if !scopes.is_empty() {
            self.needs.push(PreSeedNeed { txn, committed_at: Some(lsn), scopes });
        }
        for p in self.pending.iter().filter(|p| p.owner == txn) {
            if !fwd.compensated.contains(&p.lsn) {
                self.versions.push(p.version(txn, lsn));
            }
        }
        self.pending.retain(|p| p.owner != txn);
    }

    fn abort(&mut self, txn: TxnId) {
        // The abort record follows the CLRs that undid every responsible
        // update — those pendings are already re-reversed in `val`, so
        // they simply disappear.
        self.pending.retain(|p| p.owner != txn);
    }
}

/// Walks `ob`'s provenance chain to reconstruct the hop trail of an
/// update invoked by `invoker` at `lsn`, following transfers up to
/// `until` (the resolution LSN). A hop moves every scope its `from`
/// holds, so the trail follows `from == current owner`.
fn hops_for(
    prov: &ProvenanceTable,
    ob: ObjectId,
    invoker: TxnId,
    lsn: Lsn,
    until: Lsn,
) -> Vec<ProvHop> {
    let mut owner = invoker;
    let mut hops = Vec::new();
    for hop in prov.chain(ob) {
        if hop.lsn > lsn && hop.lsn <= until && hop.from == owner {
            hops.push(*hop);
            owner = hop.to;
        }
    }
    hops
}

/// Reenacts `ob` up to `as_of` (inclusive; `Lsn::NULL` means the log's
/// last record) against `log` alone — live pages and live engine state
/// are never consulted, so this can run concurrently with a loaded
/// engine. In-doubt transactions are left presumed aborted. Errors with
/// [`RhError::Reenact`] when the target precedes the retained log and no
/// surviving checkpoint covers it.
pub fn replay(log: &LogManager, ob: ObjectId, as_of: Lsn) -> Result<Reenactment> {
    let last = log.last_lsn();
    if last.is_null() {
        // Empty log: the object is at its initial value, no history.
        return Ok(Reenactment {
            ob,
            as_of: Lsn::NULL,
            seeded_from: None,
            in_doubt: Vec::new(),
            records_scanned: 0,
            versions: Vec::new(),
            value_all: rh_storage::Page::INITIAL_VALUE,
            loser_undo: Vec::new(),
        });
    }
    let as_of = if as_of.is_null() || as_of > last { last } else { as_of };
    let first = log.first_lsn();

    // ---- seed: newest decodable CheckpointEnd at-or-below the target --
    let seed = CheckpointSnapshot::newest_at_or_below(log, as_of)?;
    if seed.is_none() && first > Lsn::FIRST {
        return Err(RhError::Reenact {
            as_of,
            reason: "target precedes the retained log and no checkpoint survives at-or-below it",
        });
    }
    let mut scanned = u64::from(seed.is_some());
    let mut fwd = ForwardOutcome::new(false);
    let (scan_from, seed_val, seeded_from) = match seed {
        Some((cl, snap)) => {
            let v = snap
                .values
                .iter()
                .find(|(o, _)| *o == ob)
                .map(|&(_, v)| v)
                .unwrap_or(rh_storage::Page::INITIAL_VALUE);
            fwd.restore(snap);
            (cl.next(), v, Some(cl))
        }
        None => (first, rh_storage::Page::INITIAL_VALUE, None),
    };

    // ---- gather: the records that can bear on this one object ----------
    // The object's own updates, CLRs and delegations, plus the outcome
    // records and whole-list delegations of every transaction involved
    // with it: its invokers, its delegatees (followed through
    // `Delegate{All}`, hop by hop), and the holders in the seed
    // snapshot. Every other record only moves state of other objects.
    let mut involved: BTreeSet<TxnId> =
        fwd.tr.iter().filter(|(_, e)| e.ob_list.contains(ob)).map(|(t, _)| t).collect();
    let mut recs: Vec<LogRecord> = Vec::new();
    let own = if scan_from > as_of { Vec::new() } else { log.object_lsns(ob, scan_from, as_of)? };
    for l in own {
        let rec = log.read(l)?;
        involved.insert(rec.txn);
        if let RecordBody::Delegate { tee, .. } = &rec.body {
            involved.insert(*tee);
        }
        recs.push(rec);
    }
    let mut frontier: Vec<TxnId> = involved.iter().copied().collect();
    while !frontier.is_empty() {
        let lsns = log.txn_lsns(&frontier, scan_from, as_of)?;
        frontier.clear();
        for l in lsns {
            let rec = log.read(l)?;
            if let RecordBody::Delegate { tee, .. } = &rec.body {
                if involved.insert(*tee) {
                    frontier.push(*tee);
                }
            }
            recs.push(rec);
        }
    }
    recs.sort_unstable_by_key(|r| r.lsn);
    scanned += recs.len() as u64;

    // ---- replay: repeat history on this one object ---------------------
    let mut fold = Fold {
        ob,
        scan_from,
        val: seed_val,
        pending: Vec::new(),
        versions: Vec::new(),
        needs: Vec::new(),
    };
    for rec in &recs {
        fwd.apply(rec, &mut fold)?;
    }
    let Fold { val, pending, mut versions, mut needs, .. } = fold;

    // ---- unresolved transactions at the target -------------------------
    // The seed snapshot may still carry transactions that never touched
    // this object; only the involved ones can be in doubt about it.
    let mut in_doubt: Vec<InDoubt> = Vec::new();
    let mut loser_undo: Vec<(Lsn, UpdateOp)> = Vec::new();
    for (t, e) in fwd.tr.iter() {
        match e.status {
            TxnStatus::Active => {
                let scopes = pre_seed_scopes(&fwd.tr, t, ob, scan_from);
                if !scopes.is_empty() {
                    needs.push(PreSeedNeed { txn: t, committed_at: None, scopes });
                }
            }
            TxnStatus::Prepared if involved.contains(&t) => {
                let scopes = pre_seed_scopes(&fwd.tr, t, ob, scan_from);
                let prepared_at = e.last_lsn;
                let mut d = InDoubt {
                    txn: t,
                    prepared_at,
                    committed: false,
                    versions: Vec::new(),
                    undo: Vec::new(),
                };
                for p in pending.iter().filter(|p| p.owner == t) {
                    if !fwd.compensated.contains(&p.lsn) {
                        d.versions.push(p.version(t, prepared_at));
                        d.undo.push((p.lsn, p.op));
                    }
                }
                if !scopes.is_empty() {
                    needs.push(PreSeedNeed { txn: t, committed_at: None, scopes });
                }
                in_doubt.push(d);
            }
            TxnStatus::Prepared | TxnStatus::Committed | TxnStatus::Aborted => {}
        }
    }
    for p in pending.iter() {
        let active = fwd.tr.get(p.owner).map(|e| e.status == TxnStatus::Active).unwrap_or(false);
        if active && !fwd.compensated.contains(&p.lsn) {
            loser_undo.push((p.lsn, p.op));
        }
    }

    // ---- pre-seed reconstruction ---------------------------------------
    // Scopes alive at the checkpoint can cover updates behind the seed.
    // Their records are retained (truncation never passes the oldest
    // live scope), and their at-the-time values follow by undoing the
    // op suffix between them and the checkpoint's value overlay.
    if !needs.is_empty() {
        let start = needs
            .iter()
            .flat_map(|n| n.scopes.iter().map(|s| s.first))
            .min()
            .unwrap_or(scan_from)
            .max(first);
        // All ops on `ob` in [start, scan_from), in LSN order.
        let mut pre_ops: Vec<(Lsn, TxnId, UpdateOp, bool)> = Vec::new();
        if start < scan_from {
            for l in log.object_lsns(ob, start, scan_from.prev())? {
                let rec = log.read(l)?;
                scanned += 1;
                match &rec.body {
                    RecordBody::Update { op, .. } => pre_ops.push((l, rec.txn, *op, false)),
                    RecordBody::Clr { op, compensated: c, .. } => {
                        fwd.compensated.insert(*c);
                        pre_ops.push((l, rec.txn, *op, true));
                    }
                    _ => {}
                }
            }
        }
        // Values at the time: walk backward from the seed value.
        let mut value_after = vec![seed_val; pre_ops.len()];
        let mut cur = seed_val;
        for (i, (_, _, op, _)) in pre_ops.iter().enumerate().rev() {
            value_after[i] = cur;
            cur = op.undo(cur);
        }
        for need in &needs {
            for (i, &(l, txn, op, is_clr)) in pre_ops.iter().enumerate() {
                if is_clr || fwd.compensated.contains(&l) {
                    continue;
                }
                if !need.scopes.iter().any(|s| s.invoker == txn && s.covers(l)) {
                    continue;
                }
                match need.committed_at {
                    Some(c) => versions.push(VersionRecord {
                        lsn: l,
                        value: value_after[i],
                        invoker: txn,
                        responsible: need.txn,
                        committed_at: c,
                        hops: hops_for(&fwd.prov, ob, txn, l, c),
                        trace: None,
                    }),
                    None => {
                        // Loser or in-doubt: joins the matching undo set.
                        if let Some(d) = in_doubt.iter_mut().find(|d| d.txn == need.txn) {
                            d.undo.push((l, op));
                            d.versions.push(VersionRecord {
                                lsn: l,
                                value: value_after[i],
                                invoker: txn,
                                responsible: need.txn,
                                committed_at: d.prepared_at,
                                hops: hops_for(&fwd.prov, ob, txn, l, d.prepared_at),
                                trace: None,
                            });
                        } else {
                            loser_undo.push((l, op));
                        }
                    }
                }
            }
        }
    }

    versions.sort_by_key(|v| v.lsn);
    loser_undo.sort_by_key(|&(l, _)| l);
    for d in &mut in_doubt {
        d.versions.sort_by_key(|v| v.lsn);
        d.undo.sort_by_key(|&(l, _)| l);
    }

    Ok(Reenactment {
        ob,
        as_of,
        seeded_from,
        in_doubt,
        records_scanned: scanned,
        versions,
        value_all: val,
        loser_undo,
    })
}

/// What a reenactment query is for. Only a history view stitches trace
/// ids into its versions, which copies the trace ring; a value read
/// never touches the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// The as-of value (`read_as_of`, wire `ReadAsOf`, `/asof`).
    Value,
    /// The version timeline with trace ids (`history`, `/history`).
    History,
}

/// The instrumented front door: [`replay`] of `ob` on its owning `log`,
/// in-doubt transactions settled against the coordinator decisions in
/// `shards` (every shard's log; empty for a standalone engine, which
/// presumes abort), plus `reenact.*` counters on `obs` and, for
/// [`Purpose::History`], trace stitching. Takes only log and
/// observability handles — both `Arc`-shared and internally
/// synchronized — so the engine mutex is never held across a replay;
/// the introspection server and the wire dispatch call this from
/// captured handles.
pub fn query(
    log: &LogManager,
    shards: &[&LogManager],
    obs: &Obs,
    ob: ObjectId,
    as_of: Lsn,
    purpose: Purpose,
) -> Result<Reenactment> {
    let mut r = replay(log, ob, as_of)?;
    let in_doubt: Vec<TxnId> = r.in_doubt.iter().map(|d| d.txn).collect();
    let decided = coord_decisions_in(shards, &in_doubt, obs);
    for d in &mut r.in_doubt {
        d.committed = decided.contains(&d.txn);
    }
    obs.registry.inc(names::M_REENACT_QUERIES);
    obs.registry.add(names::M_REENACT_RECORDS, r.records_scanned);
    if r.seeded_from.is_some() {
        obs.registry.inc(names::M_REENACT_SEEDED);
    }
    obs.registry.add(names::M_REENACT_VERSIONS, r.versions.len() as u64);
    if purpose == Purpose::History {
        let events = obs.tracer.snapshot().events;
        stitch_traces(&mut r.versions, &events);
        for d in &mut r.in_doubt {
            stitch_traces(&mut d.versions, &events);
        }
    }
    Ok(r)
}

/// Looks up, in every shard's log, the coordinator decisions covering
/// `txns`: durable-or-tail `CoordCommit` records, plus decisions carried
/// in checkpoint snapshots (whose original records may lie behind a
/// truncated prefix). This is the same union-of-decisions rule sharded
/// recovery applies to in-doubt transactions, evaluated against the
/// logs alone so reenactment never takes an engine mutex. Each
/// transaction resolved to *committed* bumps
/// `reenact.cross_shard_decisions` on `obs`.
fn coord_decisions_in(logs: &[&LogManager], txns: &[TxnId], obs: &Obs) -> BTreeSet<TxnId> {
    let mut decided = BTreeSet::new();
    if txns.is_empty() {
        return decided;
    }
    for log in logs {
        // Best-effort per shard: a torn tail on one shard must not hide
        // decisions readable from the others.
        let _ = decisions_in(log, txns, &mut decided);
    }
    obs.registry.add(names::M_REENACT_CROSS_SHARD_DECISIONS, decided.len() as u64);
    decided
}

/// One shard's part of [`coord_decisions_in`], through the log's index:
/// the transactions' own records first, then — only while some remain
/// undecided — the retained checkpoints, newest first.
fn decisions_in(log: &LogManager, txns: &[TxnId], decided: &mut BTreeSet<TxnId>) -> Result<()> {
    let last = log.last_lsn();
    if last.is_null() {
        return Ok(());
    }
    for l in log.txn_lsns(txns, log.first_lsn(), last)? {
        let rec = log.read(l)?;
        if matches!(rec.body, RecordBody::CoordCommit { .. }) {
            decided.insert(rec.txn);
        }
    }
    let mut below = last;
    while txns.iter().any(|t| !decided.contains(t)) {
        let Some((cl, snap)) = CheckpointSnapshot::newest_at_or_below(log, below)? else { break };
        let carried = snap.coord_decisions.into_iter().map(|(txn, _)| txn);
        decided.extend(carried.filter(|txn| txns.contains(txn)));
        if cl == Lsn::FIRST {
            break;
        }
        below = cl.prev();
    }
    Ok(())
}

/// Fills each version's `trace` from a tracer snapshot: a version is
/// stitched to the trace id of any `phase.*` point logged for its
/// responsible transaction (the request-side spans of PR 7 put the trace
/// id in `lsn_lo`).
pub fn stitch_traces(versions: &mut [VersionRecord], events: &[rh_obs::trace::TraceEvent]) {
    for v in versions.iter_mut() {
        if v.trace.is_some() {
            continue;
        }
        v.trace = events
            .iter()
            .find(|e| {
                e.name.starts_with("phase.")
                    && e.txn == v.responsible.raw()
                    && e.lsn_lo != rh_obs::trace::NONE
            })
            .map(|e| e.lsn_lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TxnEngine;
    use crate::engine::{RhDb, Strategy};

    const A: ObjectId = ObjectId(0);
    const B: ObjectId = ObjectId(1);

    fn db() -> RhDb {
        RhDb::new(Strategy::Rh)
    }

    fn write(db: &mut RhDb, t: TxnId, ob: ObjectId, after: Value) {
        TxnEngine::write(db, t, ob, after).expect("write");
    }

    #[test]
    fn empty_log_reads_initial() {
        let d = db();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), rh_storage::Page::INITIAL_VALUE);
        assert!(r.versions().is_empty());
    }

    #[test]
    fn committed_updates_become_versions() {
        let mut d = db();
        let t = d.begin().unwrap();
        write(&mut d, t, A, 10);
        write(&mut d, t, A, 20);
        d.commit(t).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), 20);
        let vs = r.versions();
        assert_eq!(vs.len(), 2);
        assert_eq!((vs[0].value, vs[1].value), (10, 20));
        assert_eq!(vs[0].invoker, t);
        assert_eq!(vs[0].responsible, t);
        assert!(vs[0].committed_at > vs[1].lsn);
    }

    #[test]
    fn uncommitted_updates_are_undone() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.commit(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 99);
        // t2 never commits: as-of "now" must still read 10.
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), 10);
        assert_eq!(r.versions().len(), 1);
    }

    #[test]
    fn read_as_of_sees_each_prefix() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 5);
        let c1 = d.commit_prepare(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 7);
        let c2 = d.commit_prepare(t2).unwrap();
        // Before t1's commit record: uncommitted → initial.
        let r = replay(d.log(), A, c1.prev()).unwrap();
        assert_eq!(r.value(), rh_storage::Page::INITIAL_VALUE);
        // At t1's commit: 5. At t2's commit: 7.
        assert_eq!(replay(d.log(), A, c1).unwrap().value(), 5);
        assert_eq!(replay(d.log(), A, c2.prev()).unwrap().value(), 5);
        assert_eq!(replay(d.log(), A, c2).unwrap().value(), 7);
    }

    #[test]
    fn delegated_version_carries_hop_and_responsible() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t1, A, 42);
        d.delegate(t1, t2, &[A]).unwrap();
        d.commit(t1).unwrap(); // t1 commits but is no longer responsible for A
        d.commit(t2).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), 42);
        let vs = r.versions();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].invoker, t1);
        assert_eq!(vs[0].responsible, t2);
        assert_eq!(vs[0].hops.len(), 1);
        assert_eq!((vs[0].hops[0].from, vs[0].hops[0].to), (t1, t2));
    }

    #[test]
    fn delegatee_abort_undoes_delegated_update() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t1, A, 42);
        d.delegate(t1, t2, &[A]).unwrap();
        d.commit(t1).unwrap();
        d.abort(t2).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), rh_storage::Page::INITIAL_VALUE);
        assert!(r.versions().is_empty());
    }

    #[test]
    fn checkpoint_seeds_value_and_preserves_versions_after_it() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        write(&mut d, t1, B, 3);
        d.commit(t1).unwrap();
        d.checkpoint().unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 20);
        d.commit(t2).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert!(r.seeded_from.is_some());
        assert_eq!(r.value(), 20);
        // t1 committed before the seed: its version is summarized by the
        // overlay; only t2's post-seed version is listed.
        let vs = r.versions();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].value, 20);
        assert_eq!(vs[0].responsible, t2);
    }

    #[test]
    fn scope_straddling_checkpoint_reconstructs_pre_seed_versions() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10); // pre-seed update of a txn live at the checkpoint
        d.checkpoint().unwrap();
        write(&mut d, t1, A, 20);
        d.commit(t1).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert!(r.seeded_from.is_some());
        assert_eq!(r.value(), 20);
        let vs = r.versions();
        assert_eq!(vs.len(), 2, "pre-seed update of a straddling scope must be reconstructed");
        assert_eq!((vs[0].value, vs[1].value), (10, 20));
        assert_eq!(vs[0].responsible, t1);
    }

    #[test]
    fn uncommitted_straddling_scope_is_undone_via_preseed_records() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.commit(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 99);
        d.checkpoint().unwrap();
        // The checkpoint overlay holds 99 (dirty value), but t2 never
        // commits: the as-of value must fall back to 10.
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert!(r.seeded_from.is_some());
        assert_eq!(r.value(), 10);
    }

    #[test]
    fn truncated_log_before_any_checkpoint_errors() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.commit(t1).unwrap();
        d.checkpoint().unwrap();
        let cut = d.log().truncate_prefix(d.log().stable().master()).unwrap();
        assert!(cut > 0);
        let err = replay(d.log(), A, Lsn(0)).unwrap_err();
        assert!(matches!(err, RhError::Reenact { .. }), "got {err:?}");
        // But targets at/after the surviving checkpoint still answer.
        assert_eq!(replay(d.log(), A, Lsn::NULL).unwrap().value(), 10);
    }

    #[test]
    fn partial_rollback_excludes_compensated_updates() {
        let mut d = db();
        let t = d.begin().unwrap();
        write(&mut d, t, A, 10);
        let sp = d.savepoint(t).unwrap();
        write(&mut d, t, A, 20);
        d.rollback_to(t, sp).unwrap();
        d.commit(t).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), 10);
        let vs = r.versions();
        assert_eq!(vs.len(), 1, "rolled-back update must not appear as a version");
        assert_eq!(vs[0].value, 10);
    }

    #[test]
    fn in_doubt_prepared_txn_is_reported_not_decided() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.commit(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 77);
        d.prepare_commit(t2).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.in_doubt.len(), 1);
        assert_eq!(r.in_doubt[0].txn, t2);
        // Presumed abort: 10. Decided commit: 77.
        assert_eq!(r.value(), 10);
        assert_eq!(r.versions().len(), 1);
        let mut decided = r.clone();
        decided.in_doubt[0].committed = true;
        assert_eq!(decided.value(), 77);
        assert_eq!(decided.versions().len(), 2);
        // A lone engine's query hands no shard logs: presumed abort.
        let q = d.reenact(A, Lsn::NULL, Purpose::Value).unwrap();
        assert_eq!(q.value(), 10);
    }

    #[test]
    fn matches_recovery_across_a_crash_boundary() {
        // read_as_of is a pure function of the log prefix, so the answer
        // at an LSN must be identical before and after a crash+recovery
        // (recovery only appends CLRs with larger LSNs).
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        let c1 = d.commit_prepare(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 99);
        d.log().flush_all().unwrap();
        let before = replay(d.log(), A, c1).unwrap().value();
        let (stable, disk) = d.crash();
        let d2 =
            RhDb::recover(Strategy::Rh, crate::engine::DbConfig::default(), stable, disk).unwrap();
        let after = replay(d2.log(), A, c1).unwrap().value();
        assert_eq!(before, 10);
        assert_eq!(before, after);
        // And at the post-recovery tip the loser's effect is gone.
        assert_eq!(replay(d2.log(), A, Lsn::NULL).unwrap().value(), 10);
    }

    /// Every target's answer from a log whose index was already built
    /// to the tip, against a fresh manager over the same records that
    /// ingests only as far as each query asks.
    fn assert_index_state_is_invisible(d: &RhDb, obs: &[ObjectId]) {
        d.log().flush_all().unwrap();
        let warm = d.log();
        for &ob in obs {
            replay(warm, ob, Lsn::NULL).unwrap();
        }
        let cold = LogManager::attach(warm.stable());
        for l in 0..=warm.last_lsn().raw() {
            for &ob in obs {
                let (a, b) =
                    (replay(warm, ob, Lsn(l)).unwrap(), replay(&cold, ob, Lsn(l)).unwrap());
                assert_eq!(a.value(), b.value(), "{ob} at {l}");
                assert_eq!(a.versions(), b.versions(), "{ob} at {l}");
            }
        }
    }

    #[test]
    fn target_below_the_ingest_mark_answers_as_before() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 5);
        let c1 = d.commit_prepare(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, A, 7);
        write(&mut d, t2, B, 1);
        d.commit(t2).unwrap();
        // The tip query ingests the whole log; older targets still see
        // only their prefix.
        assert_eq!(replay(d.log(), A, Lsn::NULL).unwrap().value(), 7);
        assert_eq!(replay(d.log(), A, c1.prev()).unwrap().value(), rh_storage::Page::INITIAL_VALUE);
        assert_eq!(replay(d.log(), A, c1).unwrap().value(), 5);
        assert_index_state_is_invisible(&d, &[A, B]);
    }

    #[test]
    fn delegate_all_moves_the_object_over_two_hops() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        let t2 = d.begin().unwrap();
        let t3 = d.begin().unwrap();
        write(&mut d, t1, A, 42);
        d.delegate_all(t1, t2).unwrap();
        d.delegate_all(t2, t3).unwrap();
        d.commit(t1).unwrap();
        d.commit(t2).unwrap();
        // t3 still active: the update is a loser's.
        assert_eq!(replay(d.log(), A, Lsn::NULL).unwrap().value(), rh_storage::Page::INITIAL_VALUE);
        d.commit(t3).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert_eq!(r.value(), 42);
        let vs = r.versions();
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].invoker, vs[0].responsible), (t1, t3));
        let hops: Vec<(TxnId, TxnId)> = vs[0].hops.iter().map(|h| (h.from, h.to)).collect();
        assert_eq!(hops, vec![(t1, t2), (t2, t3)]);
        assert_index_state_is_invisible(&d, &[A]);
    }

    #[test]
    fn straddling_scope_follows_a_delegate_all_after_the_seed() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.checkpoint().unwrap();
        // After the seed, `A` is named by no record: only the snapshot
        // says t1 holds it, and only t1's outcome records move it on.
        d.delegate_all(t1, t2).unwrap();
        d.commit(t1).unwrap();
        d.commit(t2).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert!(r.seeded_from.is_some());
        assert_eq!(r.value(), 10);
        let vs = r.versions();
        assert_eq!(vs.len(), 1, "the pre-seed update is reconstructed");
        assert_eq!((vs[0].invoker, vs[0].responsible), (t1, t2));
        assert_eq!(vs[0].hops.len(), 1);
        assert_index_state_is_invisible(&d, &[A]);
    }

    #[test]
    fn truncation_below_the_ingested_prefix_still_errors() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.commit(t1).unwrap();
        d.checkpoint().unwrap();
        // Ingest everything, then cut the prefix away under the index.
        assert_eq!(replay(d.log(), A, Lsn::NULL).unwrap().value(), 10);
        let entries = d.log().metrics().snapshot().index_entries;
        assert!(d.log().truncate_prefix(d.log().stable().master()).unwrap() > 0);
        assert!(d.log().metrics().snapshot().index_entries < entries, "truncation prunes");
        let err = replay(d.log(), A, Lsn(0)).unwrap_err();
        assert!(matches!(err, RhError::Reenact { .. }), "got {err:?}");
        assert_eq!(replay(d.log(), A, Lsn::NULL).unwrap().value(), 10);
    }

    #[test]
    fn unrelated_prepared_txn_is_not_in_doubt() {
        let mut d = db();
        let t1 = d.begin().unwrap();
        write(&mut d, t1, A, 10);
        d.commit(t1).unwrap();
        let t2 = d.begin().unwrap();
        write(&mut d, t2, B, 77);
        d.prepare_commit(t2).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert!(r.in_doubt.is_empty(), "t2 never touched A");
        assert_eq!(r.value(), 10);
        // Carried by a checkpoint snapshot, it stays out as well.
        d.checkpoint().unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        assert!(r.seeded_from.is_some());
        assert!(r.in_doubt.is_empty());
        let rb = replay(d.log(), B, Lsn::NULL).unwrap();
        assert_eq!(rb.in_doubt.iter().map(|x| x.txn).collect::<Vec<_>>(), vec![t2]);
    }

    #[test]
    fn value_reads_leave_traces_unstitched() {
        let mut d = db();
        let t = d.begin().unwrap();
        write(&mut d, t, A, 10);
        d.commit(t).unwrap();
        d.obs().tracer.phase(rh_obs::names::PH_FLUSH_WAIT, t.raw(), 99, 5);
        let value = d.reenact(A, Lsn::NULL, Purpose::Value).unwrap();
        assert_eq!(value.versions()[0].trace, None);
        assert_eq!(d.history(A, Lsn::FIRST, Lsn::NULL).unwrap()[0].trace, Some(99));
    }

    #[test]
    fn history_json_has_v1_schema_shape() {
        let mut d = db();
        let t = d.begin().unwrap();
        write(&mut d, t, A, 10);
        d.commit(t).unwrap();
        let r = replay(d.log(), A, Lsn::NULL).unwrap();
        let j = r.to_json_range(Lsn::FIRST, r.as_of);
        assert_eq!(j.get("schema").and_then(JsonValue::as_str), Some("history.v1"));
        assert_eq!(j.get("object").and_then(JsonValue::as_u64), Some(A.raw()));
        assert_eq!(j.get("value").and_then(JsonValue::as_i64), Some(10));
        let vs = j.get("versions").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].get("value").and_then(JsonValue::as_i64), Some(10));
        assert!(vs[0].get("hops").is_some());
    }
}
