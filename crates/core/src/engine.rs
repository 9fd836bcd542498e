//! Normal processing (paper §3.5) for ARIES and ARIES/RH.
//!
//! [`RhDb`] is the engine. With [`Strategy::Rh`] it is ARIES/RH proper:
//! delegation is tracked in volatile scopes and a single `delegate` log
//! record; the log is never modified in place. With
//! [`Strategy::LazyRewrite`] normal processing is identical, but recovery
//! physically rewrites delegated records while undoing — the "workable but
//! still suffering from drawbacks" alternative of §3.2, implemented so the
//! benchmarks can measure exactly those drawbacks. (The *eager* baseline
//! of §3.1/Fig. 1 lives in [`crate::eager`].)
//!
//! When no delegation is issued, the `Rh` engine performs byte-for-byte
//! the work plain ARIES would: the delegation machinery only adds fields
//! that remain empty — experiment E1 measures this "no delegation, no
//! overhead" claim.

use crate::api::TxnEngine;
use crate::checkpoint::CheckpointSnapshot;
use crate::flight::FlightRecorder;
use crate::provenance::{ProvHop, ProvenanceTable};
use crate::recovery::{self, RecoveryReport};
use crate::reenact::Purpose;
use crate::txn_table::{TrList, TxnStatus};
use parking_lot::Mutex;
use rh_common::codec::Codec;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp};
use rh_lock::{LockManager, LockMode};
use rh_obs::{names, JsonValue, Obs};
use rh_storage::{BufferPool, Disk};
use rh_wal::record::{DelegateBody, RecordBody};
use rh_wal::{LogManager, StableLog};
use std::sync::Arc;

/// Which delegation-implementation strategy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// ARIES/RH: interpret the log through scopes; never rewrite it.
    Rh,
    /// The §3.2 lazy baseline: identical normal processing, but recovery
    /// rewrites delegated log records in place while undoing.
    LazyRewrite,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig { pool_pages: 256 }
    }
}

/// The ARIES / ARIES/RH database engine.
pub struct RhDb {
    strategy: Strategy,
    config: DbConfig,
    log: Arc<LogManager>,
    disk: Arc<Disk>,
    pool: BufferPool,
    locks: Arc<LockManager>,
    tr: TrList,
    next_txn: u64,
    /// LSNs of updates already undone by a CLR in *this incarnation*
    /// (partial rollbacks and aborts). Scopes re-extended past a
    /// rollback's savepoint re-cover such records; this set keeps any
    /// later undo sweep from compensating them twice. (Across crashes
    /// the forward pass rebuilds the equivalent set from logged CLRs.)
    compensated: std::collections::HashSet<Lsn>,
    /// Coordinator 2PC decisions this engine has logged whose participant
    /// shards may not all have durable Commit records yet. Every
    /// checkpoint snapshot carries them (the anchor may advance past the
    /// `CoordCommit` records other shards' in-doubt resolution depends
    /// on); the sharded router retires an entry once all its participant
    /// commits are durable.
    coord_decisions: std::collections::BTreeMap<TxnId, Vec<u32>>,
    last_recovery: Option<RecoveryReport>,
    /// Unified tracer + metrics registry. Shared (`Arc`) so recovery can
    /// hand its timeline to the engine it constructs, and so callers can
    /// keep observing after the engine moves.
    obs: Arc<Obs>,
    /// Per-object delegation responsibility chains (shared with the
    /// sharded router's introspection thread; the engine is the only
    /// writer).
    prov: Arc<Mutex<ProvenanceTable>>,
    /// The predecessor-diff built by the recovery that produced this
    /// incarnation, if a black box was found. Shared with the sharded
    /// router's introspection thread.
    postmortem: Arc<Mutex<Option<JsonValue>>>,
    /// The black-box recorder; `None` for mem-backed logs or when
    /// explicitly disabled. Shared with the sharded router, whose
    /// cadence freezes boxes without the engine mutex.
    flight: Option<Arc<FlightRecorder>>,
}

impl RhDb {
    /// Creates a fresh database (empty disk, empty log).
    pub fn new(strategy: Strategy) -> Self {
        Self::with_config(strategy, DbConfig::default())
    }

    /// Creates a fresh database with explicit tuning.
    pub fn with_config(strategy: Strategy, config: DbConfig) -> Self {
        let disk = Disk::new();
        let log = Arc::new(LogManager::new());
        let pool = BufferPool::new(Arc::clone(&disk), config.pool_pages);
        Self::from_parts(strategy, config, log, disk, pool, TrList::new(), 0, Arc::new(Obs::new()))
    }

    /// Creates a fresh database whose log lives on the given stable
    /// backend — typically a file-backed [`StableLog`] opened with
    /// [`StableLog::open_dir`]. The disk stays in-memory; durability of
    /// committed work comes from WAL + redo, which is exactly the
    /// configuration the crash-injection tests exercise. For an existing
    /// log directory, open it and run [`RhDb::recover`] instead.
    ///
    /// A file-backed log automatically gets a flight recorder, whose
    /// black boxes ride the log itself.
    pub fn with_stable_log(strategy: Strategy, config: DbConfig, stable: Arc<StableLog>) -> Self {
        let disk = Disk::new();
        let log = Arc::new(LogManager::attach(stable));
        let pool = BufferPool::new(Arc::clone(&disk), config.pool_pages);
        let obs = Arc::new(Obs::new());
        let mut db = Self::from_parts(strategy, config, log, disk, pool, TrList::new(), 0, obs);
        db.attach_flight_recorder();
        db
    }

    /// (Re)constructs an engine over existing stable state **without**
    /// running recovery — the constructors' common tail, and used by
    /// tests that want to inspect a broken state. The caller supplies
    /// the [`Obs`] so a recovery's trace survives into the engine it
    /// produced.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        strategy: Strategy,
        config: DbConfig,
        log: Arc<LogManager>,
        disk: Arc<Disk>,
        pool: BufferPool,
        tr: TrList,
        next_txn: u64,
        obs: Arc<Obs>,
    ) -> Self {
        RhDb {
            strategy,
            config,
            log,
            disk,
            pool,
            locks: Arc::new(LockManager::new()),
            tr,
            next_txn,
            compensated: std::collections::HashSet::new(),
            coord_decisions: std::collections::BTreeMap::new(),
            last_recovery: None,
            obs,
            prov: Arc::new(Mutex::named(ProvenanceTable::new(), names::LS_CORE_PROV)),
            postmortem: Arc::new(Mutex::named(None, names::LS_CORE_POSTMORTEM)),
            flight: None,
        }
    }

    /// Replaces the provenance table (recovery hands over the chains its
    /// forward pass rebuilt).
    pub(crate) fn set_provenance(&mut self, table: ProvenanceTable) {
        *self.prov.lock() = table;
    }

    /// Stores the predecessor postmortem built by recovery.
    pub(crate) fn set_postmortem(&mut self, pm: JsonValue) {
        *self.postmortem.lock() = Some(pm);
    }

    /// Arms a flight recorder when the log is file-backed (a fresh
    /// engine at birth, a recovered or promoted one once its log is whole
    /// again); in-memory logs never carry black boxes.
    pub(crate) fn attach_flight_recorder(&mut self) {
        if self.log.stable().is_file_backed() {
            self.flight = Some(Arc::default());
        }
    }

    // ---- accessors --------------------------------------------------

    /// The active strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The engine's log (for metric snapshots and log dumps in tests,
    /// examples, and the experiment binary).
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The engine's disk (for I/O metric snapshots).
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// The lock manager (exposed for the ETM layer's `permit`).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The provenance table handle (the sharded router's introspection
    /// endpoint serves chains without holding the engine mutex).
    pub(crate) fn prov_handle(&self) -> Arc<Mutex<ProvenanceTable>> {
        Arc::clone(&self.prov)
    }

    /// The predecessor-postmortem handle (served by the sharded router's
    /// `/postmortem` route without the engine mutex).
    pub(crate) fn postmortem_handle(&self) -> Arc<Mutex<Option<JsonValue>>> {
        Arc::clone(&self.postmortem)
    }

    /// The flight-recorder handle (the sharded router freezes boxes
    /// through it without the engine mutex).
    pub(crate) fn flight_handle(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.clone()
    }

    /// The engine's tuning.
    pub(crate) fn config(&self) -> DbConfig {
        self.config
    }

    /// The next transaction id this engine would hand out — the sharded
    /// router seeds its global counter from the max across shards after
    /// recovery.
    pub(crate) fn next_txn_hint(&self) -> u64 {
        self.next_txn
    }

    /// Report of the recovery that produced this incarnation, if any.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// The engine's observability hub (tracer + metrics registry).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// One-stop metrics snapshot: absorbs the current log, disk, and
    /// lock-manager counters into the unified registry (under `log.*`,
    /// `disk.*`, `lock.*`) and returns the whole registry — engine-level
    /// `scope.*`/`recovery.*` series included. Idempotent: absorption
    /// writes absolute values.
    pub fn stats(&self) -> rh_obs::RegistrySnapshot {
        self.log.metrics().snapshot().export_into(&self.obs.registry);
        self.disk.metrics().snapshot().export_into(&self.obs.registry);
        self.locks.stats().snapshot().export_into(&self.obs.registry);
        self.obs.registry.snapshot()
    }

    /// Captures the trace ring (recovery timeline, spans, delegate and
    /// sweep events) without disturbing it.
    pub fn trace_snapshot(&self) -> rh_obs::TraceSnapshot {
        self.obs.tracer.snapshot()
    }

    // ---- provenance / flight recorder ---------------------------------

    /// The delegation responsibility chain of `ob`, oldest hop first:
    /// one `(from, to, lsn)` entry per delegate record that moved
    /// responsibility for the object. Empty for never-delegated objects.
    /// Survives crashes — the forward pass rebuilds chains from
    /// `delegate` records (and fuzzy checkpoints persist them).
    pub fn provenance(&self, ob: ObjectId) -> Vec<ProvHop> {
        self.prov.lock().chain(ob).to_vec()
    }

    /// Every object's responsibility chain, as JSON (the bench artifacts
    /// serve this).
    pub fn provenance_json(&self) -> JsonValue {
        self.prov.lock().to_json()
    }

    // ---- time-travel reads (reenactment) ------------------------------

    /// The committed value of `ob` as of `lsn` (inclusive; [`Lsn::NULL`]
    /// means the log's last record), reconstructed by seeding from the
    /// newest checkpoint at-or-below the target and replaying forward
    /// through a shadow scope table. Never touches live pages — only the
    /// internally-synchronized log and observability handles, so replays
    /// can run concurrently with a loaded engine (see
    /// [`crate::reenact::query`]). Prepared-but-undecided transactions
    /// are presumed aborted, exactly as recovery would.
    pub fn read_as_of(&self, ob: ObjectId, lsn: Lsn) -> Result<Value> {
        Ok(self.reenact(ob, lsn, Purpose::Value)?.value())
    }

    /// The committed version timeline of `ob` over `[from, to]`
    /// (inclusive; `to = Lsn::NULL` means the log's last record): each
    /// version carries its value, update LSN, invoker, responsible
    /// transaction, delegation hops, and — when the commit was traced —
    /// the originating trace id.
    pub fn history(
        &self,
        ob: ObjectId,
        from: Lsn,
        to: Lsn,
    ) -> Result<Vec<crate::reenact::VersionRecord>> {
        let versions = self.reenact(ob, to, Purpose::History)?.versions();
        Ok(versions.into_iter().filter(|v| v.lsn >= from).collect())
    }

    /// The full reenactment of `ob` at `as_of` — value, version
    /// timeline, and in-doubt transactions awaiting a coordinator
    /// decision. The typed result behind [`RhDb::read_as_of`] and
    /// [`RhDb::history`]; trace ids are stitched only for
    /// [`Purpose::History`].
    pub fn reenact(
        &self,
        ob: ObjectId,
        as_of: Lsn,
        purpose: Purpose,
    ) -> Result<crate::reenact::Reenactment> {
        crate::reenact::query(&self.log, &[], &self.obs, ob, as_of, purpose)
    }

    /// The postmortem built by the recovery that produced this
    /// incarnation: the predecessor's black-box identity, final spans,
    /// and counters diffed against post-recovery state. `None` when no
    /// predecessor black box was found (fresh database, mem-backed log,
    /// or not recovered).
    pub fn postmortem(&self) -> Option<JsonValue> {
        self.postmortem.lock().clone()
    }

    /// Explicitly freezes a black box now and forces the log through it
    /// (checkpoints, recovery and a server's cadence also freeze boxes).
    /// `reason` tags the box. Returns false when no flight recorder is
    /// attached or the force failed (failures are counted under
    /// `blackbox.errors`, never raised).
    pub fn record_blackbox(&self, reason: &str) -> bool {
        self.freeze_blackbox(reason)
            .is_some_and(|lsn| FlightRecorder::force(&self.log, lsn, &self.obs))
    }

    /// Appends a black box of this engine's one-stop stats view, unforced
    /// (it rides the next flush). `None` without a flight recorder.
    pub(crate) fn freeze_blackbox(&self, reason: &str) -> Option<Lsn> {
        let flight = self.flight.as_ref()?;
        Some(flight.append(&self.log, reason, &self.stats(), &self.obs))
    }

    /// Detaches the flight recorder (the `obs_overhead` bench measures
    /// the engine with and without it).
    pub fn disable_flight_recorder(&mut self) {
        self.flight = None;
    }

    /// Whether a flight recorder is currently attached.
    pub fn has_flight_recorder(&self) -> bool {
        self.flight.is_some()
    }

    /// Number of transactions currently in the table.
    pub fn active_txns(&self) -> usize {
        self.tr.len()
    }

    /// Renders the whole log, one record per line (Fig. 2-style dumps);
    /// a record that fails its checks ends the dump as `<unreadable>`.
    pub fn dump_log(&self) -> Vec<String> {
        let first = self.log.first_lsn().raw();
        let mut out = Vec::with_capacity(self.log.len());
        let scanned = self.log.scan(Lsn(first), self.log.curr_lsn(), |rec| {
            out.push(rec.render());
            Ok(())
        });
        if scanned.is_err() {
            out.push(format!("{} <unreadable>", first + out.len() as u64));
        }
        out
    }

    /// The scopes currently held by `txn` for `ob` (test/diagnostic hook
    /// matching the paper's Fig. 5 pictures).
    pub fn scopes_of(&self, txn: TxnId, ob: ObjectId) -> Vec<crate::scope::Scope> {
        self.tr
            .get(txn)
            .ok()
            .and_then(|e| e.ob_list.get(ob))
            .map(|e| e.scopes.clone())
            .unwrap_or_default()
    }

    /// Panics if any volatile scope invariant is violated (property-test
    /// hook):
    ///
    /// * scopes of one object sharing an invoking transaction never
    ///   overlap (the §3.5 remark);
    /// * every scope lies within the log (`last < curr_lsn`), ordered
    ///   (`first <= last`);
    /// * no `Ob_List` entry is empty (responsibility implies at least one
    ///   covered update);
    /// * provenance chains agree with the live tables: a live entry whose
    ///   `deleg` field names a delegator has a chain whose last hop *into
    ///   the current owner* came from exactly that delegator, and every
    ///   chain is LSN-monotone within the log.
    #[doc(hidden)]
    pub fn validate_scope_invariants(&self) {
        let end = self.log.curr_lsn();
        for (txn, entry) in self.tr.iter() {
            for ob in entry.ob_list.objects() {
                let oe = entry.ob_list.get(ob).expect("listed object");
                let scopes = &oe.scopes;
                assert!(!scopes.is_empty(), "{txn} holds an empty entry for {ob}");
                for (i, s) in scopes.iter().enumerate() {
                    assert!(s.first <= s.last, "{txn}/{ob}: inverted scope {s:?}");
                    assert!(s.last < end, "{txn}/{ob}: scope {s:?} beyond the log");
                    for other in &scopes[i + 1..] {
                        assert!(
                            s.invoker != other.invoker || !s.overlaps(other),
                            "{txn}/{ob}: same-invoker scopes overlap: {s:?} vs {other:?}"
                        );
                    }
                }
                if let Some(delegator) = oe.deleg {
                    // Several transactions may hold live entries for the
                    // same object (a delegator can re-update after
                    // delegating), so only the last hop *into this
                    // transaction* must agree with its `deleg` field.
                    let prov = self.prov.lock();
                    let last_into = prov.chain(ob).iter().rev().find(|hop| hop.to == txn);
                    let hop = last_into.unwrap_or_else(|| {
                        panic!("{txn}/{ob}: deleg={delegator} but no provenance hop into {txn}")
                    });
                    assert_eq!(
                        hop.from, delegator,
                        "{txn}/{ob}: last hop into {txn} ({hop:?}) disagrees with deleg field"
                    );
                }
            }
        }
        let prov = self.prov.lock();
        for ob in prov.objects() {
            let chain = prov.chain(ob);
            for w in chain.windows(2) {
                assert!(
                    w[0].lsn < w[1].lsn,
                    "{ob}: provenance chain not LSN-monotone: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            for hop in chain {
                assert!(hop.from != hop.to, "{ob}: self-delegation hop {hop:?}");
                assert!(hop.lsn < end, "{ob}: provenance hop {hop:?} beyond the log");
            }
        }
    }

    // ---- internals ----------------------------------------------------

    /// Appends one provenance hop per delegated object, with counters
    /// (`scope.provenance.hops`, chain-depth histogram) and a trace
    /// event per hop. Shared by [`TxnEngine::delegate`] and
    /// [`TxnEngine::delegate_all`].
    fn record_provenance_hops(&self, objects: &[ObjectId], tor: TxnId, tee: TxnId, lsn: Lsn) {
        let mut prov = self.prov.lock();
        for &ob in objects {
            if let Some(depth) = prov.record_hop(ob, tor, tee, lsn) {
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

    fn log_for_txn(&mut self, txn: TxnId, body: RecordBody) -> Result<Lsn> {
        let prev = self.tr.bc(txn)?;
        let lsn = self.log.append(txn, prev, body);
        self.tr.set_bc(txn, lsn)?;
        Ok(lsn)
    }

    fn apply_update(&mut self, txn: TxnId, ob: ObjectId, op: UpdateOp) -> Result<()> {
        // §3.5 update: log it, adjust scopes, apply in place.
        let lsn = self.log_for_txn(txn, RecordBody::Update { ob, op })?;
        match self.tr.get_mut(txn)?.ob_list.record_update(ob, txn, lsn) {
            crate::oblist::ScopeAction::Opened => self.obs.registry.inc(names::M_SCOPE_OPENS),
            crate::oblist::ScopeAction::Extended => self.obs.registry.inc(names::M_SCOPE_EXTENDS),
        }
        let cur = self.pool.read_object(ob, &*self.log)?;
        self.pool.write_object(ob, op.apply(cur), lsn, &*self.log)?;
        Ok(())
    }

    /// Terminates a transaction: End record, table removal, lock release.
    fn end_txn(&mut self, txn: TxnId) -> Result<()> {
        self.log_for_txn(txn, RecordBody::End)?;
        self.tr.remove(txn);
        self.locks.release_all(txn);
        Ok(())
    }

    // ---- savepoints / partial rollback -----------------------------------
    //
    // The paper's closing direction — "making recovery a first-class
    // concept within transaction management and ... providing a variety
    // of recovery primitives" (§6) — realized with the same scope
    // machinery: a savepoint is an LSN; rolling back to it undoes the
    // transaction's *responsible* updates logged at or after that LSN,
    // with CLRs, leaving earlier work (and the transaction) alive.

    /// Declares a savepoint for `txn`: every update it becomes
    /// responsible for from now on can be undone by
    /// [`RhDb::rollback_to`] without killing the transaction.
    pub fn savepoint(&mut self, txn: TxnId) -> Result<Lsn> {
        self.tr.require_active(txn)?;
        Ok(self.log.curr_lsn())
    }

    /// Partially rolls `txn` back to a savepoint: undoes (with CLRs)
    /// every update in its scopes with LSN `>= sp`, truncating the
    /// volatile scopes to match. Crash-safe: after a crash the forward
    /// pass rebuilds the full scopes, and the CLRs' compensated-LSN set
    /// keeps the rolled-back updates from being undone twice (or redone
    /// net of their compensation).
    ///
    /// Note the delegation-aware semantics: the rollback covers updates
    /// the transaction is *responsible for* — including updates invoked
    /// by others and delegated here after the savepoint.
    pub fn rollback_to(&mut self, txn: TxnId, sp: Lsn) -> Result<()> {
        self.tr.require_active(txn)?;
        let obs = Arc::clone(&self.obs);
        let _span = obs.tracer.span_for_txn(names::SPAN_ROLLBACK, txn.raw());
        // Collect the portions of this transaction's scopes at/after sp.
        let mut to_undo: Vec<recovery::WalkScope> = Vec::new();
        for (ob, scope) in self.tr.get(txn)?.ob_list.all_scopes() {
            if scope.last >= sp {
                let clipped = crate::scope::Scope {
                    invoker: scope.invoker,
                    first: scope.first.max(sp),
                    last: scope.last,
                };
                to_undo.push(recovery::WalkScope { owner: txn, ob, scope: clipped, loser: true });
            }
        }
        recovery::undo_scopes(
            &self.log,
            &mut self.pool,
            &mut self.tr,
            to_undo,
            &mut self.compensated,
            false,
            &obs,
        )?;
        // Truncate the volatile scopes: drop parts at/after sp.
        let entry = self.tr.get_mut(txn)?;
        let objects: Vec<ObjectId> = entry.ob_list.objects().collect();
        let mut splits = 0u64;
        for ob in objects {
            splits += entry.ob_list.truncate_scopes(ob, sp);
        }
        obs.registry.add(names::M_SCOPE_SPLITS, splits);
        Ok(())
    }

    // ---- checkpointing -------------------------------------------------

    /// Takes a checkpoint (begin/end record pair; the end record's
    /// payload snapshots the transaction table **with its scope-bearing
    /// Ob_Lists**, the dirty-page table, and the txn-id high-water mark),
    /// then advances the master record.
    ///
    /// Dirty pages are flushed first (honoring write-ahead), so the
    /// snapshot's dirty-page table is empty and redo after a later crash
    /// starts at the checkpoint instead of the oldest recLSN. This is the
    /// "sharp" end of the checkpointing spectrum; the recovery code also
    /// handles the fuzzy case (non-empty DPT) for generality.
    pub fn checkpoint(&mut self) -> Result<()> {
        let obs = Arc::clone(&self.obs);
        let span = obs.tracer.span(names::SPAN_CHECKPOINT);
        let disk_before = self.disk.metrics().snapshot();
        self.pool.flush_all(&*self.log)?;
        let flushed_pages = self.disk.metrics().snapshot().page_writes - disk_before.page_writes;
        span.point(
            names::EV_PAGE_FLUSH,
            rh_obs::trace::NONE,
            rh_obs::trace::NONE,
            rh_obs::trace::NONE,
            flushed_pages,
        );
        let begin = self.log.append(TxnId::NONE, Lsn::NULL, RecordBody::CheckpointBegin);
        // Compensated LSNs that a live scope could still re-cover must
        // travel with the snapshot (their CLRs are behind the checkpoint
        // and a post-checkpoint recovery scan will not see them).
        let oldest_scope =
            self.tr.iter().filter_map(|(_, e)| e.ob_list.min_first()).min().unwrap_or(Lsn::NULL);
        let compensated: Vec<Lsn> = if oldest_scope.is_null() {
            Vec::new()
        } else {
            let mut v: Vec<Lsn> =
                self.compensated.iter().copied().filter(|&l| l >= oldest_scope).collect();
            v.sort();
            v
        };
        // Cloned before the literal: a guard taken inside it would live
        // to the end of the statement, across the disk read below.
        let provenance = self.prov.lock().clone();
        let snap = CheckpointSnapshot {
            tr_list: self.tr.clone(),
            dpt: self.pool.dirty_page_table(),
            next_txn: self.next_txn,
            compensated,
            provenance,
            // Unretired coordinator decisions ride in every snapshot:
            // another shard's in-doubt resolution may still need them
            // after this anchor hides their CoordCommit records.
            coord_decisions: self.coord_decisions.iter().map(|(t, p)| (*t, p.clone())).collect(),
            // Captured after flush_all, while `&mut self` excludes
            // writers: the disk images are the state at CheckpointBegin.
            values: self.disk.non_initial_values()?,
        };
        let end = self.log.append(
            TxnId::NONE,
            begin,
            RecordBody::CheckpointEnd { payload: snap.to_bytes() },
        );
        // A checkpoint is a crash-adjacent moment worth remembering: a
        // recovery starting here sees the black box frozen at exactly the
        // state it restores. The box follows `CheckpointEnd` under the
        // same force, so no truncation point can ever pass it.
        let forced = self.freeze_blackbox("checkpoint").unwrap_or(end);
        // Master only moves after the checkpoint is durable (see
        // StableLog::set_master docs).
        let log_before = self.log.metrics().snapshot();
        self.log.flush_to(forced)?;
        let flushed_recs =
            self.log.metrics().snapshot().records_flushed - log_before.records_flushed;
        span.point(
            names::EV_LOG_FLUSH,
            rh_obs::trace::NONE,
            end.raw(),
            rh_obs::trace::NONE,
            flushed_recs,
        );
        self.log.stable().set_master(begin)?;
        Ok(())
    }

    /// Truncates the log prefix that no future recovery can need:
    /// everything before the last checkpoint, the oldest active
    /// transaction's first record, and the oldest live scope. Requires a
    /// prior [`RhDb::checkpoint`] (returns 0 otherwise). Returns the
    /// number of records discarded.
    ///
    /// Safety argument: redo starts at the checkpoint (pages were flushed
    /// by it) or at a dirty recLSN after it; undo reads only records
    /// covered by live scopes; backward chains are only walked within
    /// those bounds. All three are kept at/after the truncation point.
    pub fn truncate_log(&mut self) -> Result<u64> {
        let master = self.log.stable().master();
        if master.is_null() {
            return Ok(0);
        }
        let mut point = master;
        for (_, entry) in self.tr.iter() {
            point = point.min(entry.first_lsn);
            if let Some(oldest_scope) = entry.ob_list.min_first() {
                point = point.min(oldest_scope);
            }
        }
        // Never truncate unflushed territory (truncate_prefix also
        // guards, but clamping keeps the returned count honest).
        point = point.min(Lsn(self.log.stable_len() as u64));
        self.log.truncate_prefix(point)
    }

    // ---- crash & recovery -----------------------------------------------

    /// Simulates a crash: all volatile state (buffer pool, transaction
    /// table, scopes, locks, unflushed log tail) is lost. Returns the
    /// surviving stable state.
    pub fn crash(self) -> (Arc<StableLog>, Arc<Disk>) {
        (self.log.stable(), Arc::clone(&self.disk))
    }

    /// Runs restart recovery over stable state, returning a ready engine.
    pub fn recover(
        strategy: Strategy,
        config: DbConfig,
        stable: Arc<StableLog>,
        disk: Arc<Disk>,
    ) -> Result<Self> {
        recovery::recover(strategy, config, stable, disk)
    }

    pub(crate) fn set_recovery_report(&mut self, report: RecoveryReport) {
        self.last_recovery = Some(report);
    }

    // ---- group-committed commit -----------------------------------------

    /// The non-durable half of [`TxnEngine::commit`]: writes the commit
    /// record, marks the transaction committed, ends it (End record,
    /// table removal, lock release) — but does **not** force the log.
    /// Returns the commit record's LSN; the commit is durable (and may
    /// be acknowledged) only once `log().flush_to(lsn)` has returned.
    ///
    /// This split exists for the network front-end: many sessions can
    /// prepare commits under the engine mutex and then force the log
    /// *outside* it, letting [`rh_wal::LogManager::flush_to`]'s
    /// group-commit leader cover all of them with one fsync. Releasing
    /// locks before durability is safe here because flushes are prefix
    /// operations: no later transaction's commit can become durable
    /// without this commit record becoming durable first, so a crash
    /// either loses both or neither.
    pub fn commit_prepare(&mut self, txn: TxnId) -> Result<Lsn> {
        self.tr.require_active(txn)?;
        let lsn = self.log_for_txn(txn, RecordBody::Commit)?;
        self.tr.get_mut(txn)?.status = TxnStatus::Committed;
        self.end_txn(txn)?;
        Ok(lsn)
    }

    // ---- two-phase commit (sharded participant surface) ------------------
    //
    // A cross-shard transaction commits through `crate::sharded`: every
    // participant shard except the coordinator prepares (Prepare record
    // forced, status Prepared, locks kept), the coordinator shard forces a
    // CoordCommit record (the commit point, which also commits it locally —
    // the coordinator itself never prepares), then each prepared
    // participant resolves (Commit + End records, lazily flushed — a crash
    // in between leaves the transaction in doubt and recovery re-resolves
    // it against the coordinator record).

    /// Begins a transaction **with a caller-chosen id** — the sharded
    /// router allocates one global id and begins it in every participant
    /// shard, so delegation provenance stitches across shard logs by
    /// plain id equality. Idempotent: a second `begin_as` for a live id
    /// is a no-op. The engine's own id counter advances past `txn` so
    /// local `begin` never collides.
    pub fn begin_as(&mut self, txn: TxnId) -> Result<()> {
        self.next_txn = self.next_txn.max(txn.raw() + 1);
        if self.tr.contains(txn) {
            return Ok(());
        }
        let lsn = self.log.append(txn, Lsn::NULL, RecordBody::Begin);
        self.tr.insert(txn, lsn);
        Ok(())
    }

    /// 2PC phase one on this participant: appends a `Prepare` record and
    /// moves the transaction to [`TxnStatus::Prepared`]. Scopes and locks
    /// are **kept** — the transaction can still be rolled back if the
    /// coordinator decides abort. Durable (and binding) only once
    /// `log().flush_to(lsn)` has returned.
    pub fn prepare_commit(&mut self, txn: TxnId) -> Result<Lsn> {
        self.tr.require_active(txn)?;
        let lsn = self.log_for_txn(txn, RecordBody::Prepare)?;
        self.tr.get_mut(txn)?.status = TxnStatus::Prepared;
        Ok(lsn)
    }

    /// Appends the coordinator's commit record and finishes `txn` locally.
    /// The record's durability is the global commit point; `participants`
    /// names every *other* shard whose log holds a `Prepare` to resolve.
    ///
    /// The coordinator never prepares (the classic coordinator-as-
    /// participant optimization): before this record is durable its
    /// updates are an ordinary loser and presumed abort covers them;
    /// once durable, the forward pass replays `CoordCommit` straight to
    /// [`TxnStatus::Committed`]. Skipping the Prepare saves one forced
    /// fsync per cross-shard transaction.
    ///
    /// An error says whether the decision record was appended before the
    /// failure: once appended it may still become durable through a later
    /// flush, so the caller must not unwind the participants.
    pub fn append_coord_commit(
        &mut self,
        txn: TxnId,
        participants: &[u32],
    ) -> std::result::Result<Lsn, (RhError, bool)> {
        let prev =
            self.tr.require_active(txn).and_then(|_| self.tr.bc(txn)).map_err(|e| (e, false))?;
        let body = RecordBody::CoordCommit { participants: participants.to_vec() };
        let lsn = self.log.append(txn, prev, body);
        // The decision outlives this transaction locally: until every
        // participant's Commit record is durable, checkpoints must keep
        // carrying it (the anchor can advance past the record itself).
        self.coord_decisions.insert(txn, participants.to_vec());
        self.tr.set_bc(txn, lsn).map_err(|e| (e, true))?;
        self.tr.get_mut(txn).map_err(|e| (e, true))?.status = TxnStatus::Committed;
        self.end_txn(txn).map_err(|e| (e, true))?;
        Ok(lsn)
    }

    /// 2PC phase two on this participant: finishes a prepared `txn` with
    /// the coordinator's decision. `commit` writes the local Commit + End
    /// records (lazily flushed — the coordinator record already made the
    /// outcome durable); abort reverts the transaction to Active and runs
    /// the ordinary rollback. Returns the terminating record's LSN.
    pub fn resolve_prepared(&mut self, txn: TxnId, commit: bool) -> Result<Lsn> {
        if self.tr.get(txn)?.status != TxnStatus::Prepared {
            return Err(RhError::TxnNotActive(txn));
        }
        if commit {
            let lsn = self.log_for_txn(txn, RecordBody::Commit)?;
            self.tr.get_mut(txn)?.status = TxnStatus::Committed;
            self.end_txn(txn)?;
            Ok(lsn)
        } else {
            self.tr.get_mut(txn)?.status = TxnStatus::Active;
            self.abort(txn)?;
            Ok(self.log.curr_lsn())
        }
    }

    /// Transactions left in doubt (status [`TxnStatus::Prepared`]) — after
    /// a recovery, exactly the ones the sharded resolver must decide.
    pub fn in_doubt(&self) -> Vec<TxnId> {
        self.tr.with_status(TxnStatus::Prepared)
    }

    /// Seeds the live decision map (recovery hands over every decision it
    /// found — snapshot-carried and freshly scanned alike).
    pub(crate) fn set_coord_decisions(&mut self, decisions: &[(TxnId, Vec<u32>)]) {
        self.coord_decisions = decisions.iter().map(|(t, p)| (*t, p.clone())).collect();
    }

    /// Retires a coordinator decision: the sharded router calls this once
    /// every participant's Commit record for `txn` is durable, after
    /// which no recovery can need the decision and checkpoint snapshots
    /// stop carrying it. Returns whether an entry was present.
    pub(crate) fn retire_coord_decision(&mut self, txn: TxnId) -> bool {
        self.coord_decisions.remove(&txn).is_some()
    }

    /// Drops every held decision — sharded recovery calls this after all
    /// in-doubt transactions across all shards are resolved and every
    /// shard's log is forced, at which point no decision can be needed
    /// again.
    pub(crate) fn clear_coord_decisions(&mut self) {
        self.coord_decisions.clear();
    }

    /// The decisions currently carried into checkpoints (test hook).
    pub fn coord_decisions(&self) -> Vec<(TxnId, Vec<u32>)> {
        self.coord_decisions.iter().map(|(t, p)| (*t, p.clone())).collect()
    }
}

impl TxnEngine for RhDb {
    fn begin(&mut self) -> Result<TxnId> {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let lsn = self.log.append(txn, Lsn::NULL, RecordBody::Begin);
        self.tr.insert(txn, lsn);
        Ok(txn)
    }

    fn read(&mut self, txn: TxnId, ob: ObjectId) -> Result<Value> {
        self.tr.require_active(txn)?;
        self.locks.try_acquire(txn, ob, LockMode::Shared)?;
        self.pool.read_object(ob, &*self.log)
    }

    fn write(&mut self, txn: TxnId, ob: ObjectId, value: Value) -> Result<()> {
        self.tr.require_active(txn)?;
        self.locks.try_acquire(txn, ob, LockMode::Exclusive)?;
        let before = self.pool.read_object(ob, &*self.log)?;
        self.apply_update(txn, ob, UpdateOp::Write { before, after: value })
    }

    fn add(&mut self, txn: TxnId, ob: ObjectId, delta: Value) -> Result<()> {
        self.tr.require_active(txn)?;
        self.locks.try_acquire(txn, ob, LockMode::Increment)?;
        self.apply_update(txn, ob, UpdateOp::Add { delta })
    }

    fn delegate(&mut self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Result<()> {
        // §3.5 delegate, steps 1-4.
        self.tr.require_active(tor)?;
        self.tr.require_active(tee)?;
        if tor == tee {
            return Err(RhError::SelfDelegation(tor));
        }
        // 1. WELL-FORMED? ob ∈ Ob_List(tor) — i.e. the delegator is
        // responsible for at least one operation on each object.
        for &ob in obs {
            if !self.tr.get(tor)?.ob_list.contains(ob) {
                return Err(RhError::NotResponsible { txn: tor, object: ob });
            }
        }
        // 2. PREPARE LOG RECORD: capture both backward-chain heads.
        let tor_bc = self.tr.bc(tor)?;
        let tee_bc = self.tr.bc(tee)?;
        // 3. TRANSFER RESPONSIBILITY: move scopes, record the delegator,
        // and move the access rights (locks) with them.
        let mut merged = 0u64;
        for &ob in obs {
            let entry = self.tr.get_mut(tor)?.ob_list.take(ob).expect("well-formedness checked");
            merged += self.tr.get_mut(tee)?.ob_list.absorb(ob, entry, tor) as u64;
            self.locks.transfer(tor, tee, ob);
        }
        // 4. WRITE DELEGATION LOG RECORD; it becomes the head of *both*
        // backward chains.
        let lsn = self.log.append(
            tor,
            tor_bc,
            RecordBody::Delegate { tee, tee_bc, body: DelegateBody::Objects(obs.to_vec()) },
        );
        self.tr.set_bc(tor, lsn)?;
        self.tr.set_bc(tee, lsn)?;
        self.obs.registry.inc(names::M_SCOPE_DELEGATES);
        self.obs.registry.add(names::M_SCOPE_MERGES, merged);
        self.obs.tracer.point(names::EV_DELEGATE, lsn.raw(), lsn.raw(), tor.raw(), tee.raw());
        self.record_provenance_hops(obs, tor, tee, lsn);
        Ok(())
    }

    fn delegate_all(&mut self, tor: TxnId, tee: TxnId) -> Result<()> {
        self.tr.require_active(tor)?;
        self.tr.require_active(tee)?;
        if tor == tee {
            return Err(RhError::SelfDelegation(tor));
        }
        let tor_bc = self.tr.bc(tor)?;
        let tee_bc = self.tr.bc(tee)?;
        let drained = self.tr.get_mut(tor)?.ob_list.drain_all();
        let objects: Vec<ObjectId> = drained.iter().map(|&(ob, _)| ob).collect();
        let mut merged = 0u64;
        for (ob, entry) in drained {
            merged += self.tr.get_mut(tee)?.ob_list.absorb(ob, entry, tor) as u64;
        }
        self.locks.transfer_all(tor, tee);
        let lsn = self.log.append(
            tor,
            tor_bc,
            RecordBody::Delegate { tee, tee_bc, body: DelegateBody::All },
        );
        self.tr.set_bc(tor, lsn)?;
        self.tr.set_bc(tee, lsn)?;
        self.obs.registry.inc(names::M_SCOPE_DELEGATES);
        self.obs.registry.add(names::M_SCOPE_MERGES, merged);
        self.obs.tracer.point(names::EV_DELEGATE, lsn.raw(), lsn.raw(), tor.raw(), tee.raw());
        self.record_provenance_hops(&objects, tor, tee, lsn);
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        // §3.5 commit: the operations the transaction is responsible for
        // are already on the log (they were logged at execution time);
        // write the commit record and force the log through it.
        let lsn = self.commit_prepare(txn)?;
        self.log.flush_to(lsn)?;
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        self.tr.require_active(txn)?;
        let obs = Arc::clone(&self.obs);
        let _span = obs.tracer.span_for_txn(names::SPAN_ABORT, txn.raw());
        // §3.5 abort step 1: undo every update in the transaction's
        // scopes — which, after delegations, are exactly the updates it is
        // *responsible for*, not the ones it invoked. The shared
        // cluster-walk routine from recovery does the backward sweep.
        let scopes: Vec<recovery::WalkScope> = self
            .tr
            .get(txn)?
            .ob_list
            .all_scopes()
            .map(|(ob, scope)| recovery::WalkScope { owner: txn, ob, scope, loser: true })
            .collect();
        recovery::undo_scopes(
            &self.log,
            &mut self.pool,
            &mut self.tr,
            scopes,
            &mut self.compensated,
            false,
            &obs,
        )?;
        // Step 2-3: abort record, *lazily* durable. Aborts are presumed:
        // if a crash loses this record (and any tail of the CLRs), the
        // forward pass simply sees the transaction as a loser and the
        // undo pass re-undoes it — the same outcome this abort produced.
        // Forcing here would also serialize every concurrent operation
        // behind an fsync, since abort runs under the engine lock.
        let _lsn = self.log_for_txn(txn, RecordBody::Abort)?;
        self.tr.get_mut(txn)?.status = TxnStatus::Aborted;
        self.end_txn(txn)
    }

    fn savepoint(&mut self, txn: TxnId) -> Result<u64> {
        RhDb::savepoint(self, txn).map(|lsn| lsn.raw())
    }

    fn rollback_to(&mut self, txn: TxnId, token: u64) -> Result<()> {
        RhDb::rollback_to(self, txn, Lsn(token))
    }

    fn permit(&mut self, granter: TxnId, permittee: TxnId, ob: ObjectId) -> Result<()> {
        self.tr.require_active(granter)?;
        self.tr.require_active(permittee)?;
        self.locks.permit(granter, permittee, ob);
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        RhDb::checkpoint(self)
    }

    fn crash_and_recover(self) -> Result<Self> {
        let strategy = self.strategy;
        let config = self.config;
        let (stable, disk) = self.crash();
        Self::recover(strategy, config, stable, disk)
    }

    fn value_of(&mut self, ob: ObjectId) -> Result<Value> {
        self.pool.read_object(ob, &*self.log)
    }
}
