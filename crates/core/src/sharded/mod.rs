//! Range-sharded engine with cross-shard two-phase commit.
//!
//! [`ShardedDb`] partitions the object space across N independent
//! [`RhDb`] instances — each with its own WAL (segment directory when
//! file-backed), lock manager, scope tables, buffer pool, and flight
//! recorder — and routes every operation by object id
//! through a [`ShardMap`]. Transactions that touch a single shard commit
//! on the existing fast path (one `commit_prepare` + one group-committed
//! flush, untouched). Transactions that touch several shards — including
//! cross-shard `delegate` / `delegate_all` / `permit` — commit through
//! presumed-abort two-phase commit:
//!
//! 1. every participant shard *except the coordinator* forces a
//!    `Prepare` record (phase one),
//! 2. the **coordinator shard** (the lowest participant index) forces a
//!    `CoordCommit` record carrying the prepared-participant list — this
//!    flush is the commit point, and commits the coordinator locally:
//!    the coordinator itself never prepares (before the decision record
//!    its updates are an ordinary loser and presumed abort covers them),
//!    which saves one forced fsync per cross-shard transaction,
//! 3. each prepared participant lazily appends its `Commit`/`End`
//!    records (durable by the next prefix flush; loss is harmless
//!    because the coordinator record already decides the outcome).
//!
//! After a crash, each shard recovers independently (in parallel
//! threads); transactions left `Prepared` are *in doubt* and are
//! resolved against the union of `CoordCommit` decisions found in any
//! shard's log: decided → commit, undecided → presumed abort.
//!
//! **Decision retention.** A coordinator's checkpoint advances its
//! recovery anchor, which would hide `CoordCommit` records that another
//! shard's in-doubt resolution still needs (participant Commit records
//! are lazily flushed). Two mechanisms close that hole: every engine
//! carries its unretired decisions inside each checkpoint snapshot (the
//! forward pass re-reports them), and [`ShardedDb::checkpoint_all`]
//! forces **every** shard's log before any shard checkpoints, then
//! retires exactly the decisions whose participant Commit records are
//! durable. A real (non-injected) failure before the decision record is
//! durable rolls the whole transaction back (presumed abort) instead of
//! stranding prepared participants with their locks held.
//!
//! Transaction ids are allocated by the router, so one global id names
//! the same transaction in every shard it touches (shards materialize it
//! on first touch via [`RhDb::begin_as`]); provenance chains therefore
//! stitch across shard boundaries by plain id equality, and an object's
//! chain lives wholly in its owning shard.
//!
//! Lock order (enforced by the rh-analyze L2 manifest): `gtxns` <
//! `fault` < `retire` < `engine`; engine mutexes are only ever taken in
//! ascending shard order (cross-shard `delegate` holds all touched
//! shards' engines at once, still ascending), and no path acquires
//! `gtxns` while holding an engine.

use crate::api::TxnEngine;
use crate::engine::{DbConfig, RhDb, Strategy};
use crate::flight::FlightRecorder;
use crate::provenance::{ProvHop, ProvenanceTable};
use crate::recovery::RecoveryReport;
use crate::reenact::{self, Purpose, Reenactment, VersionRecord};
use parking_lot::Mutex;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId};
use rh_lock::LockManager;
use rh_obs::{names, IntrospectionServer, JsonValue, Obs, RegistrySnapshot, Sampler, Stopwatch};
use rh_storage::Disk;
use rh_wal::{LogManager, StableLog};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

mod introspect;

/// Maps object ids to shard indices: `shard_of(ob) = (ob >> shift) % n`.
///
/// The production shift is [`ShardMap::RANGE_SHIFT`] (26), matching the
/// load generator's per-thread range bases (`(tid+1) << 26`) so each
/// thread's home range lands wholly in one shard and cross-shard traffic
/// is an explicit workload choice. The model checker uses shift 0 so
/// tiny object ids spread across shards.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    shards: usize,
    shift: u32,
}

impl ShardMap {
    /// The production routing shift: object ids are partitioned in
    /// 2^26-object ranges, the granularity of the load generator's
    /// per-thread bases.
    pub const RANGE_SHIFT: u32 = 26;

    /// Builds a map over `shards` partitions (must be nonzero) routing
    /// on bits at and above `shift`.
    pub fn new(shards: usize, shift: u32) -> Self {
        ShardMap { shards: shards.max(1), shift }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing shift.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// The shard that owns `ob`. Always `< shards()`.
    pub fn shard_of(&self, ob: ObjectId) -> usize {
        ((ob.raw() >> self.shift) % self.shards as u64) as usize
    }
}

/// A 2PC fault-injection point: the commit protocol stops with an error
/// *after* completing the named step, leaving exactly the on-log state a
/// crash at that instant would leave. Armed via
/// [`ShardedDb::inject_fault`]; one-shot (disarms when it fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPcFault {
    /// Stop after participant `0..=i` (by position in the ascending
    /// participant list) have forced their `Prepare` records — before
    /// the coordinator decision exists. Recovery must presume abort.
    AfterPrepare(usize),
    /// Stop after the coordinator's `CoordCommit` record is durable but
    /// before any participant wrote its `Commit`. Recovery must commit
    /// every participant from the coordinator record.
    AfterCoordCommit,
    /// Stop after participant at position `i` has resolved (written its
    /// lazy `Commit`) but later participants have not. Recovery must
    /// commit the stragglers from the coordinator record.
    AfterResolve(usize),
    /// Stop [`ShardedDb::checkpoint_all`] after shard `i`'s checkpoint
    /// completed but before shard `i + 1`'s — the window where the
    /// coordinator's anchor has advanced past decisions other shards may
    /// still need. Recovery must still resolve every in-doubt
    /// transaction correctly (the snapshot carries unretired decisions).
    AfterShardCheckpoint(usize),
}

/// One shard: the engine behind its mutex, plus the handles the router
/// needs without that mutex.
struct ShardCell {
    engine: Mutex<RhDb>,
    view: ShardView,
}

impl ShardCell {
    /// `rank` is the shard index: the 2PC paths hold several shards'
    /// engine mutexes at once, always in ascending shard order, and the
    /// lock-witness enforces that ascent per-site instead of flagging
    /// the same-site nesting as a self-cycle (DESIGN.md §15).
    fn new(db: RhDb, rank: u32) -> Self {
        let view = ShardView {
            log: Arc::clone(db.log()),
            disk: Arc::clone(db.disk()),
            locks: Arc::clone(db.locks()),
            obs: Arc::clone(db.obs()),
            prov: db.prov_handle(),
            postmortem: db.postmortem_handle(),
            flight: db.flight_handle(),
        };
        ShardCell { engine: Mutex::named_ordered(db, names::LS_CORE_ENGINE, rank), view }
    }
}

/// The handles of one shard that need no engine mutex: stats,
/// provenance, reenactment and the introspection routes read these.
#[derive(Clone)]
struct ShardView {
    log: Arc<LogManager>,
    disk: Arc<Disk>,
    locks: Arc<LockManager>,
    obs: Arc<Obs>,
    prov: Arc<Mutex<ProvenanceTable>>,
    postmortem: Arc<Mutex<Option<JsonValue>>>,
    flight: Option<Arc<FlightRecorder>>,
}

impl ShardView {
    /// The shard's provenance table, as JSON.
    fn provenance_json(&self) -> JsonValue {
        self.prov.lock().to_json()
    }

    /// The predecessor postmortem the shard's recovery built, or `null`
    /// when it found no predecessor black box.
    fn postmortem_json(&self) -> JsonValue {
        self.postmortem.lock().clone().unwrap_or(JsonValue::Null)
    }

    /// The shard's registry with its log, disk and lock-manager counters
    /// absorbed (absolute values, so repeated calls are idempotent).
    fn absorbed(&self) -> RegistrySnapshot {
        self.log.metrics().snapshot().export_into(&self.obs.registry);
        self.disk.metrics().snapshot().export_into(&self.obs.registry);
        self.locks.stats().snapshot().export_into(&self.obs.registry);
        self.obs.registry.snapshot()
    }
}

/// The router's registry merge-summed with every shard's absorbed one.
fn merged_stats<'a>(router: &Obs, views: impl Iterator<Item = &'a ShardView>) -> RegistrySnapshot {
    let mut merged = router.registry.snapshot();
    for v in views {
        merged.merge_sum(&v.absorbed());
    }
    merged
}

/// Router-side state of one global transaction.
#[derive(Default)]
struct GtxnEntry {
    /// Shards this transaction has touched, ascending.
    participants: BTreeSet<usize>,
    /// Savepoint token → one mark per shard (participant marks come from
    /// the shard engine, the rest are that shard's `curr_lsn` at capture
    /// time, so shards joined *after* the savepoint roll back fully).
    savepoints: BTreeMap<u64, Vec<Lsn>>,
}

/// The router's global transaction table.
struct GtxnState {
    next_txn: u64,
    next_token: u64,
    entries: BTreeMap<TxnId, GtxnEntry>,
}

/// A committed cross-shard transaction whose coordinator decision is not
/// yet retireable: each participant's lazy `Commit` record must be
/// durable first. [`ShardedDb::checkpoint_all`] retires these after its
/// all-shard force.
struct PendingRetire {
    /// Coordinator shard holding the decision.
    coord: usize,
    txn: TxnId,
    /// Participant shard → LSN of its lazily appended `Commit` record.
    commits: Vec<(usize, Lsn)>,
}

/// A range-sharded database: N [`RhDb`] shards behind one [`TxnEngine`]
/// surface, with cross-shard transactions committed by two-phase commit.
/// All operational methods take `&self` — the router is shared across
/// server worker threads via `Arc`, and per-shard engine mutexes plus
/// the `gtxns` table provide the synchronization.
pub struct ShardedDb {
    strategy: Strategy,
    config: DbConfig,
    map: ShardMap,
    shards: Vec<ShardCell>,
    gtxns: Mutex<GtxnState>,
    /// Router-level metrics (`shard.*`, and `server.*` when embedded in
    /// the network front-end). Per-shard series stay in the shard
    /// registries and are merge-summed by [`ShardedDb::stats`].
    obs: Arc<Obs>,
    fault: Mutex<Option<TwoPcFault>>,
    /// Decisions whose participant commits may still be volatile — the
    /// retire queue drained (against durable log horizons) by
    /// [`ShardedDb::checkpoint_all`].
    retire: Mutex<Vec<PendingRetire>>,
    server: Mutex<Option<IntrospectionServer>>,
    /// The cadence thread feeding `/timeseries` while the introspection
    /// endpoint runs (stops when the endpoint does).
    sampler: Mutex<Option<Sampler>>,
}

impl ShardedDb {
    /// Creates a fresh all-volatile sharded database (each shard's log is
    /// memory-backed) — the model checker's and unit tests' constructor.
    pub fn new_mem(strategy: Strategy, shards: usize, shift: u32) -> Self {
        let config = DbConfig::default();
        let engines = (0..shards.max(1)).map(|_| RhDb::with_config(strategy, config)).collect();
        Self::from_engines(strategy, config, shift, engines, Arc::new(Obs::new()))
    }

    /// Creates a fresh sharded database over the given stable log
    /// backends, one per shard (typically file-backed segment
    /// directories `shard-0/ .. shard-N-1/`). Each file-backed shard gets
    /// its own flight recorder, exactly as [`RhDb::with_stable_log`]
    /// provides.
    pub fn with_stable_logs(
        strategy: Strategy,
        config: DbConfig,
        stables: Vec<Arc<StableLog>>,
        shift: u32,
    ) -> Result<Self> {
        if stables.is_empty() {
            return Err(RhError::Protocol("sharded database needs at least one shard"));
        }
        let engines =
            stables.into_iter().map(|s| RhDb::with_stable_log(strategy, config, s)).collect();
        Ok(Self::from_engines(strategy, config, shift, engines, Arc::new(Obs::new())))
    }

    /// Recovers a sharded database from per-shard stable state. Shards
    /// recover **in parallel** (one thread each, forward + backward
    /// passes per shard); then in-doubt transactions are resolved
    /// against the union of coordinator decisions: a `Prepared`
    /// transaction commits iff *any* shard's log holds its
    /// `CoordCommit` record, and is presumed aborted otherwise. The
    /// resolution counters `shard.indoubt.resolved` /
    /// `shard.indoubt.committed` are always present afterwards (possibly
    /// zero), so crash-cycle CI can assert on them.
    pub fn recover(
        strategy: Strategy,
        config: DbConfig,
        parts: Vec<(Arc<StableLog>, Arc<Disk>)>,
        shift: u32,
    ) -> Result<Self> {
        if parts.is_empty() {
            return Err(RhError::Protocol("sharded recovery needs at least one shard"));
        }
        let results: Vec<Result<RhDb>> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|(stable, disk)| {
                    s.spawn(move || RhDb::recover(strategy, config, stable, disk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(Err(RhError::Protocol("shard recovery thread panicked")))
                })
                .collect()
        });
        let mut engines = Vec::with_capacity(results.len());
        for r in results {
            engines.push(r?);
        }
        Self::resolve_and_assemble(strategy, config, shift, engines)
    }

    /// Resolves the in-doubt transactions of freshly recovered (or
    /// freshly promoted) per-shard engines and assembles the router:
    /// unions the `CoordCommit` decisions each engine's recovery report
    /// carries, commits every decided `Prepared` transaction and
    /// presumes the rest aborted, forces each shard's log so the
    /// resolution records are durable before the database accepts new
    /// work, and retires the now-settled decisions from future
    /// checkpoints. Shared by [`ShardedDb::recover`] and replica
    /// promotion — a promoted fleet resolves its in-flight 2PC exactly
    /// as a restarted one would.
    pub(crate) fn resolve_and_assemble(
        strategy: Strategy,
        config: DbConfig,
        shift: u32,
        mut engines: Vec<RhDb>,
    ) -> Result<Self> {
        // Union of coordinator decisions across every shard's log.
        let mut decided: BTreeSet<TxnId> = BTreeSet::new();
        for eng in &engines {
            if let Some(report) = eng.last_recovery() {
                for (txn, _participants) in &report.coord_commits {
                    decided.insert(*txn);
                }
            }
        }

        // Resolve the in-doubt transactions shard by shard, then force
        // each shard's log so the resolution records are durable before
        // the database accepts new work.
        let obs = Arc::new(Obs::new());
        let mut resolved = 0u64;
        let mut committed = 0u64;
        for eng in &mut engines {
            for txn in eng.in_doubt() {
                let commit = decided.contains(&txn);
                eng.resolve_prepared(txn, commit)?;
                resolved += 1;
                committed += u64::from(commit);
            }
            eng.log().flush_all()?;
        }
        // Every in-doubt transaction is now resolved and every shard's
        // log forced, so no future recovery can need a coordinator
        // decision again — stop carrying them into checkpoints.
        for eng in &mut engines {
            eng.clear_coord_decisions();
        }
        obs.registry.add(names::M_SHARD_INDOUBT_RESOLVED, resolved);
        obs.registry.add(names::M_SHARD_INDOUBT_COMMITTED, committed);
        Ok(Self::from_engines(strategy, config, shift, engines, obs))
    }

    /// Assembles the router over `engines`, one shard each. The global
    /// transaction counter starts past every id an engine has handed
    /// out, so a recovered or adopted engine's ids are never reused.
    fn from_engines(
        strategy: Strategy,
        config: DbConfig,
        shift: u32,
        engines: Vec<RhDb>,
        obs: Arc<Obs>,
    ) -> Self {
        let next_txn = engines.iter().map(RhDb::next_txn_hint).max().unwrap_or(0);
        let map = ShardMap::new(engines.len(), shift);
        ShardedDb {
            strategy,
            config,
            map,
            shards: engines
                .into_iter()
                .enumerate()
                .map(|(i, db)| ShardCell::new(db, i as u32))
                .collect(),
            gtxns: Mutex::named(
                GtxnState { next_txn, next_token: 1, entries: BTreeMap::new() },
                names::LS_CORE_GTXNS,
            ),
            obs,
            fault: Mutex::named(None, names::LS_CORE_FAULT),
            retire: Mutex::named(Vec::new(), names::LS_CORE_RETIRE),
            server: Mutex::named(None, names::LS_CORE_SERVER),
            sampler: Mutex::named(None, names::LS_CORE_SAMPLER),
        }
    }

    // ---- accessors ----------------------------------------------------

    /// The active strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The object→shard map.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.shards()
    }

    /// The shard that owns `ob`.
    pub fn shard_of(&self, ob: ObjectId) -> usize {
        self.map.shard_of(ob)
    }

    /// The router's observability hub (`shard.*` counters; the network
    /// front-end adds its `server.*` series here).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Shard `shard`'s log manager (tests inspect per-shard logs).
    pub fn shard_log(&self, shard: usize) -> Option<&Arc<LogManager>> {
        self.shards.get(shard).map(|c| &c.view.log)
    }

    /// Shard `shard`'s observability hub (tests lower its slow-op
    /// threshold and read its trace ring; 2PC edge phases land here, on
    /// the shard where each edge ran).
    pub fn shard_obs(&self, shard: usize) -> Option<&Arc<Obs>> {
        self.shards.get(shard).map(|c| &c.view.obs)
    }

    // ---- flight recorder ------------------------------------------------
    //
    // Every path here reads only the shards' mutex-free views: freezing a
    // black box never waits for, or holds, an engine mutex.

    /// The registry shard `shard`'s black box freezes. Shard 0's is the
    /// merged [`ShardedDb::stats`], so the router's own series
    /// (`server.*`, `recovery.first_ack_us`) land in a box too.
    fn box_metrics(&self, shard: usize) -> RegistrySnapshot {
        if shard == 0 {
            self.stats()
        } else {
            self.shards[shard].view.absorbed()
        }
    }

    /// Appends a black box to every shard's log that has a flight
    /// recorder, forcing each log through it when `force` is set.
    fn freeze_all(&self, reason: &str, force: bool) {
        for (k, cell) in self.shards.iter().enumerate() {
            let view = &cell.view;
            let Some(flight) = &view.flight else { continue };
            let lsn = flight.append(&view.log, reason, &self.box_metrics(k), &view.obs);
            if force {
                FlightRecorder::force(&view.log, lsn, &view.obs);
            }
        }
    }

    /// Freezes a black box in every shard and forces each shard's log
    /// through it (a no-op for shards without a flight recorder). Crash
    /// tests call this so the post-crash logs carry the freshest slow-op
    /// log and trace ring.
    pub fn record_blackbox_all(&self, reason: &str) {
        self.freeze_all(reason, true);
    }

    /// [`ShardedDb::record_blackbox_all`] without the force: the boxes
    /// ride each shard's next flush.
    pub fn freeze_blackbox_all(&self, reason: &str) {
        self.freeze_all(reason, false);
    }

    /// One flight-recorder cadence tick over every shard
    /// ([`FlightRecorder::tick`]). A server runs it once per
    /// [`crate::flight::CADENCE`].
    pub fn blackbox_tick(&self) {
        for (k, cell) in self.shards.iter().enumerate() {
            if let Some(flight) = &cell.view.flight {
                flight.tick(&cell.view.log, &cell.view.obs, || self.box_metrics(k));
            }
        }
    }

    /// The recovery report of shard `shard`'s current incarnation, if it
    /// was produced by [`ShardedDb::recover`].
    pub fn shard_recovery(&self, shard: usize) -> Option<RecoveryReport> {
        let cell = self.shards.get(shard)?;
        let engine = cell.engine.lock();
        engine.last_recovery().cloned()
    }

    /// Transactions currently in doubt (2PC-prepared), as
    /// `(shard, txn)` pairs. Nonempty only between a 2PC fault and the
    /// recovery that resolves it.
    pub fn in_doubt(&self) -> Vec<(usize, TxnId)> {
        let mut out = Vec::new();
        for (shard, cell) in self.shards.iter().enumerate() {
            let engine = cell.engine.lock();
            for txn in engine.in_doubt() {
                out.push((shard, txn));
            }
        }
        out
    }

    /// Arms a one-shot 2PC fault (tests and the model checker use this
    /// to stop the commit protocol between its durability points).
    pub fn inject_fault(&self, point: TwoPcFault) {
        *self.fault.lock() = Some(point);
    }

    fn fault_point(&self, at: TwoPcFault) -> Result<()> {
        let mut fault = self.fault.lock();
        if *fault == Some(at) {
            *fault = None;
            return Err(RhError::Protocol("injected 2PC fault"));
        }
        Ok(())
    }

    // ---- transaction lifecycle ----------------------------------------

    /// Starts a new global transaction. No shard writes a record until
    /// the transaction first touches it.
    pub fn begin(&self) -> Result<TxnId> {
        let mut gtxns = self.gtxns.lock();
        let txn = TxnId(gtxns.next_txn);
        gtxns.next_txn += 1;
        gtxns.entries.insert(txn, GtxnEntry::default());
        Ok(txn)
    }

    /// Registers `txn` as touching `shard` in the router table.
    fn join(&self, txn: TxnId, shard: usize) -> Result<()> {
        let mut gtxns = self.gtxns.lock();
        let entry = gtxns.entries.get_mut(&txn).ok_or(RhError::UnknownTxn(txn))?;
        if entry.participants.insert(shard) && entry.participants.len() == 2 {
            self.obs.registry.inc(names::M_SHARD_CROSS_TXNS);
        }
        Ok(())
    }

    /// Runs `f` on `shard`'s engine with every transaction in `txns`
    /// joined and materialized there first.
    fn on_shard<R>(
        &self,
        shard: usize,
        txns: &[TxnId],
        f: impl FnOnce(&mut RhDb) -> Result<R>,
    ) -> Result<R> {
        for &t in txns {
            self.join(t, shard)?;
        }
        let Some(cell) = self.shards.get(shard) else {
            return Err(RhError::Protocol("shard index out of range"));
        };
        let mut engine = cell.engine.lock();
        for &t in txns {
            engine.begin_as(t)?;
        }
        f(&mut engine)
    }

    /// Removes `txn` from the router table, returning its participant
    /// shards ascending. Late arrivals (a concurrent delegate into a
    /// committing transaction) observe `UnknownTxn` from here on.
    fn take_entry(&self, txn: TxnId) -> Result<Vec<usize>> {
        let mut gtxns = self.gtxns.lock();
        let entry = gtxns.entries.remove(&txn).ok_or(RhError::UnknownTxn(txn))?;
        Ok(entry.participants.into_iter().collect())
    }

    /// Commits `txn`: single-shard transactions take the existing
    /// group-committed fast path; cross-shard transactions run the 2PC
    /// protocol described at module level. Durable on return.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.commit_traced(txn, rh_obs::trace::NONE).map(|_| ())
    }

    /// [`ShardedDb::commit`] with trace attribution: every commit phase
    /// is measured and emitted as a `phase.*` trace point *on the shard
    /// where it ran* — participant `Prepare` forces on their shards, the
    /// `CoordCommit` force on the coordinator, lazy catch-ups on each
    /// resolver — all tagged `(txn, trace)` so a reader can stitch one
    /// cross-shard waterfall from the per-shard trace rings by global
    /// transaction id. Returns the `(phase, micros)` list in protocol
    /// order.
    pub fn commit_traced(&self, txn: TxnId, trace: u64) -> Result<Vec<(&'static str, u64)>> {
        let parts = self.take_entry(txn)?;
        match parts.as_slice() {
            [] => Ok(Vec::new()),
            [shard] => {
                let shard = *shard;
                let Some(cell) = self.shards.get(shard) else {
                    return Err(RhError::Protocol("shard index out of range"));
                };
                let held = Stopwatch::start();
                let (lsn, prepare_us) = {
                    let mut engine = cell.engine.lock();
                    let sw = Stopwatch::start();
                    let lsn = engine.commit_prepare(txn)?;
                    (lsn, sw.elapsed_micros())
                };
                let engine_us = held.elapsed_micros().saturating_sub(prepare_us);
                parking_lot::witness::note_hold(
                    names::LS_CORE_ENGINE,
                    names::LW_SUB_COMMIT_PREPARE,
                    prepare_us,
                );
                let forced = Stopwatch::start();
                cell.view.log.flush_to(lsn)?;
                let flush_us = forced.elapsed_micros();
                let phases = vec![
                    (names::PH_ENGINE_HOLD, engine_us),
                    (names::PH_COMMIT_PREPARE, prepare_us),
                    (names::PH_FLUSH_WAIT, flush_us),
                ];
                for &(name, us) in &phases {
                    cell.view.obs.tracer.phase(name, txn.0, trace, us);
                }
                Ok(phases)
            }
            _ => self.commit_2pc(txn, &parts, trace),
        }
    }

    /// 2PC phase one on one participant: force its `Prepare` record.
    fn prepare_shard(&self, txn: TxnId, shard: usize) -> Result<()> {
        let lsn = {
            let mut engine = self.shards[shard].engine.lock();
            engine.prepare_commit(txn)?
        };
        self.shards[shard].view.log.flush_to(lsn)
    }

    /// Best-effort rollback of one shard's half of a doomed cross-shard
    /// commit: a prepared participant resolves as an abort, anything
    /// else (the coordinator, a participant that never finished its
    /// prepare) aborts outright. Errors are swallowed — the decision
    /// record does not exist, so presumed abort covers whatever a
    /// failing shard leaves behind.
    fn abort_in_shard(&self, txn: TxnId, shard: usize) {
        let mut engine = self.shards[shard].engine.lock();
        // Writing the durable outcome under the shard mutex is the
        // presumed-abort protocol. rh-analyze: allow(L6)
        if engine.resolve_prepared(txn, false).is_err() {
            let _ = engine.abort(txn);
        }
    }

    /// Unwinds a cross-shard commit attempt that failed for real (an I/O
    /// error, not an injected crash) **before** the coordinator decision
    /// record existed: every participant rolls back and releases its
    /// locks, so the failure does not strand `Prepared` transactions
    /// that nothing can resolve or drain (the router entry is already
    /// gone by commit time).
    fn unwind_undecided(&self, txn: TxnId, parts: &[usize]) {
        for &shard in parts {
            self.abort_in_shard(txn, shard);
        }
        self.obs.registry.inc(names::M_SHARD_2PC_UNWOUND);
    }

    fn commit_2pc(
        &self,
        txn: TxnId,
        parts: &[usize],
        trace: u64,
    ) -> Result<Vec<(&'static str, u64)>> {
        // The coordinator (lowest participant) never prepares — until its
        // CoordCommit record is durable its updates are an ordinary loser,
        // so presumed abort already covers them. One forced fsync saved
        // per cross-shard transaction.
        //
        // Error discipline: an injected `TwoPcFault` simulates a crash at
        // that instant, so it propagates with the on-log state untouched
        // (recovery is the test subject). A *real* failure before the
        // decision record is durable instead unwinds the transaction —
        // presumed abort — so no participant is left `Prepared` holding
        // locks with no resolution path.
        let Some((&coord, rest)) = parts.split_first() else {
            return Err(RhError::Protocol("2PC with no participants"));
        };
        // Phase timing: each 2PC edge is measured around its durability
        // action and emitted as a trace point on the shard that did the
        // work *before* the next fault point, so a crash mid-protocol
        // still leaves the completed edges in the shards' trace rings
        // (and, via `edge_phase`'s slow-op gate, in their black boxes).
        let mut phases: Vec<(&'static str, u64)> = Vec::with_capacity(2 * rest.len() + 1);
        // Phase one: every non-coordinator participant forces a Prepare.
        for (i, &shard) in rest.iter().enumerate() {
            let edge = Stopwatch::start();
            if let Err(e) = self.prepare_shard(txn, shard) {
                self.unwind_undecided(txn, parts);
                return Err(e);
            }
            phases.push(self.edge_phase(names::PH_2PC_PREPARE, shard, txn, trace, &edge));
            self.obs.registry.inc(names::M_SHARD_2PC_PREPARES);
            self.fault_point(TwoPcFault::AfterPrepare(i))?;
        }
        // Commit point: the coordinator forces the decision record naming
        // every prepared participant, committing locally as it does.
        let coord_edge = Stopwatch::start();
        let participants: Vec<u32> = rest.iter().map(|&s| s as u32).collect();
        let appended = {
            let mut engine = self.shards[coord].engine.lock();
            engine.append_coord_commit(txn, &participants)
        };
        let lsn = match appended {
            Ok(lsn) => lsn,
            Err((e, appended)) => {
                // Unwind only if the decision record was never appended;
                // once appended it could still become durable through a
                // later group-commit flush, and aborting the prepared
                // participants then would contradict it. Leave the
                // ambiguous case to recovery, exactly like a crash. The
                // engine says which: other records (black boxes among
                // them) reach this log without the engine mutex, so the
                // log's length cannot tell.
                if !appended {
                    self.unwind_undecided(txn, parts);
                }
                return Err(e);
            }
        };
        // A flush failure here is the same ambiguity: the record is
        // appended and may yet reach the disk, so the outcome stays
        // undecided until recovery — no unwind.
        self.shards[coord].view.log.flush_to(lsn)?;
        phases.push(self.edge_phase(names::PH_2PC_COORD, coord, txn, trace, &coord_edge));
        self.obs.registry.inc(names::M_SHARD_2PC_COMMITS);
        self.fault_point(TwoPcFault::AfterCoordCommit)?;
        // Phase two: lazy participant commits — the decision is already
        // durable, so these records need no force of their own.
        let mut commits: Vec<(usize, Lsn)> = Vec::with_capacity(rest.len());
        let mut late_err = None;
        for (i, &shard) in rest.iter().enumerate() {
            let edge = Stopwatch::start();
            let resolved = {
                let mut engine = self.shards[shard].engine.lock();
                engine.resolve_prepared(txn, true)
            };
            match resolved {
                Ok(lsn) => {
                    commits.push((shard, lsn));
                    phases.push(self.edge_phase(names::PH_2PC_RESOLVE, shard, txn, trace, &edge));
                }
                // The decision is durable, so a participant that fails to
                // resolve locally stays in doubt for recovery — but must
                // not stop the remaining participants from resolving.
                Err(e) => late_err = Some(e),
            }
            self.fault_point(TwoPcFault::AfterResolve(i))?;
        }
        if let Some(e) = late_err {
            return Err(e);
        }
        // Fully resolved: the decision retires once these lazy Commit
        // records are durable (checkpoint_all checks the log horizons).
        self.retire.lock().push(PendingRetire { coord, txn, commits });
        Ok(phases)
    }

    /// Emits one finished 2PC edge on the shard where it ran: a trace
    /// point (stitched later by `(txn, trace)`), and — when the edge
    /// alone crosses the shard's slow-op threshold — an entry in that
    /// shard's slow-op log, which its flight recorder freezes into black
    /// boxes. Recording per edge (not per transaction) is what lets a
    /// crash *mid*-2PC leave evidence of the completed edges behind.
    fn edge_phase(
        &self,
        name: &'static str,
        shard: usize,
        txn: TxnId,
        trace: u64,
        edge: &Stopwatch,
    ) -> (&'static str, u64) {
        let us = edge.elapsed_micros();
        let obs = &self.shards[shard].view.obs;
        obs.tracer.phase(name, txn.0, trace, us);
        if us >= obs.slowops.threshold_us() {
            obs.record_slow_op(name, txn.0, trace, us, vec![(name, us)]);
        }
        (name, us)
    }

    /// Aborts `txn` in every shard it touched.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let parts = self.take_entry(txn)?;
        for shard in parts {
            let Some(cell) = self.shards.get(shard) else {
                return Err(RhError::Protocol("shard index out of range"));
            };
            let mut engine = cell.engine.lock();
            engine.abort(txn)?;
        }
        Ok(())
    }

    // ---- routed operations --------------------------------------------

    /// Reads `ob` under a shared lock in its owning shard.
    pub fn read(&self, txn: TxnId, ob: ObjectId) -> Result<Value> {
        self.on_shard(self.map.shard_of(ob), &[txn], |eng| eng.read(txn, ob))
    }

    /// Overwrites `ob` in its owning shard.
    pub fn write(&self, txn: TxnId, ob: ObjectId, value: Value) -> Result<()> {
        self.on_shard(self.map.shard_of(ob), &[txn], |eng| eng.write(txn, ob, value))
    }

    /// Adds to `ob` in its owning shard.
    pub fn add(&self, txn: TxnId, ob: ObjectId, delta: Value) -> Result<()> {
        self.on_shard(self.map.shard_of(ob), &[txn], |eng| eng.add(txn, ob, delta))
    }

    /// ASSET `permit`, routed to the object's shard (both transactions
    /// join that shard, so a later commit of either covers it).
    pub fn permit(&self, granter: TxnId, permittee: TxnId, ob: ObjectId) -> Result<()> {
        self.on_shard(self.map.shard_of(ob), &[granter, permittee], |eng| {
            eng.permit(granter, permittee, ob)
        })
    }

    /// Cross-shard `delegate`: the objects are grouped by owning shard
    /// and delegated shard-locally (responsibility for an object never
    /// leaves its shard — what crosses the boundary is the *transaction*,
    /// which 2PC then commits atomically). Every touched shard's engine
    /// mutex is held — in ascending shard order — across both the
    /// validation sweep and the mutation sweep, so no concurrent
    /// operation can invalidate a checked scope in between: a
    /// `NotResponsible` error genuinely leaves no partial transfer.
    pub fn delegate(&self, tor: TxnId, tee: TxnId, objects: &[ObjectId]) -> Result<()> {
        if tor == tee {
            return Err(RhError::SelfDelegation(tor));
        }
        let mut by_shard: BTreeMap<usize, Vec<ObjectId>> = BTreeMap::new();
        for &ob in objects {
            by_shard.entry(self.map.shard_of(ob)).or_default().push(ob);
        }
        // Router joins first (`gtxns` orders before any engine mutex),
        // then lock every touched engine, ascending by shard index.
        for &shard in by_shard.keys() {
            self.join(tor, shard)?;
            self.join(tee, shard)?;
        }
        let mut engines = Vec::with_capacity(by_shard.len());
        for &shard in by_shard.keys() {
            let Some(cell) = self.shards.get(shard) else {
                return Err(RhError::Protocol("shard index out of range"));
            };
            engines.push(cell.engine.lock());
        }
        // Validate everywhere under the same locks the mutation runs
        // under. `delegate` below cannot fail once every object has a
        // live scope for `tor`, so the two sweeps are atomic as a pair.
        for (engine, obs) in engines.iter_mut().zip(by_shard.values()) {
            engine.begin_as(tor)?;
            engine.begin_as(tee)?;
            for &ob in obs {
                if engine.scopes_of(tor, ob).is_empty() {
                    return Err(RhError::NotResponsible { txn: tor, object: ob });
                }
            }
        }
        for (engine, obs) in engines.iter_mut().zip(by_shard.values()) {
            engine.delegate(tor, tee, obs)?;
        }
        Ok(())
    }

    /// Cross-shard `delegate_all`: delegates everything `tor` holds in
    /// every shard it touched to `tee` (joining `tee` to each).
    pub fn delegate_all(&self, tor: TxnId, tee: TxnId) -> Result<()> {
        if tor == tee {
            return Err(RhError::SelfDelegation(tor));
        }
        let parts: Vec<usize> = {
            let gtxns = self.gtxns.lock();
            gtxns
                .entries
                .get(&tor)
                .ok_or(RhError::UnknownTxn(tor))?
                .participants
                .iter()
                .copied()
                .collect()
        };
        for shard in parts {
            self.on_shard(shard, &[tor, tee], |eng| eng.delegate_all(tor, tee))?;
        }
        Ok(())
    }

    /// Declares a savepoint across every shard: participant shards mark
    /// through their engine, the rest record their current log position
    /// (so work in shards joined later is fully covered).
    pub fn savepoint(&self, txn: TxnId) -> Result<u64> {
        let mut gtxns = self.gtxns.lock();
        let token = gtxns.next_token;
        gtxns.next_token += 1;
        let entry = gtxns.entries.get_mut(&txn).ok_or(RhError::UnknownTxn(txn))?;
        let mut marks = Vec::with_capacity(self.shards.len());
        for (shard, cell) in self.shards.iter().enumerate() {
            if entry.participants.contains(&shard) {
                let mut engine = cell.engine.lock();
                marks.push(engine.savepoint(txn)?);
            } else {
                marks.push(cell.view.log.curr_lsn());
            }
        }
        entry.savepoints.insert(token, marks);
        Ok(token)
    }

    /// Partially rolls `txn` back to a token from
    /// [`ShardedDb::savepoint`], in every shard it currently touches.
    pub fn rollback_to(&self, txn: TxnId, token: u64) -> Result<()> {
        let (marks, parts) = {
            let mut gtxns = self.gtxns.lock();
            let entry = gtxns.entries.get_mut(&txn).ok_or(RhError::UnknownTxn(txn))?;
            let marks = entry
                .savepoints
                .get(&token)
                .cloned()
                .ok_or(RhError::Protocol("unknown savepoint token"))?;
            let parts: Vec<usize> = entry.participants.iter().copied().collect();
            (marks, parts)
        };
        for shard in parts {
            let Some(&mark) = marks.get(shard) else {
                return Err(RhError::Protocol("savepoint mark missing for shard"));
            };
            let Some(cell) = self.shards.get(shard) else {
                return Err(RhError::Protocol("shard index out of range"));
            };
            let mut engine = cell.engine.lock();
            engine.rollback_to(txn, mark)?;
        }
        Ok(())
    }

    /// Non-transactional peek at `ob`'s current value in its shard.
    pub fn value_of(&self, ob: ObjectId) -> Result<Value> {
        let Some(cell) = self.shards.get(self.map.shard_of(ob)) else {
            return Err(RhError::Protocol("shard index out of range"));
        };
        let mut engine = cell.engine.lock();
        engine.value_of(ob)
    }

    /// Takes a checkpoint in every shard.
    ///
    /// Every shard's log is forced **before** the first checkpoint is
    /// taken, so the lazily-appended participant `Commit` records of
    /// already-decided cross-shard transactions are durable before any
    /// shard's recovery anchor moves past its `CoordCommit` records. A
    /// decision is *retired* (dropped from future snapshots) only once
    /// every participant's Commit LSN sits below its shard's durable
    /// horizon — decisions not yet covered keep riding inside the
    /// coordinator's snapshots, so a crash anywhere between the
    /// per-shard checkpoints still resolves every in-doubt transaction.
    pub fn checkpoint_all(&self) -> Result<()> {
        for cell in &self.shards {
            cell.view.log.flush_all()?;
        }
        self.retire_durable_decisions();
        for (i, cell) in self.shards.iter().enumerate() {
            {
                let mut engine = cell.engine.lock();
                // A checkpoint forces the master record under the shard mutex —
                // quiescing the shard is the checkpoint's correctness argument.
                // rh-analyze: allow(L6)
                engine.checkpoint()?;
            }
            self.fault_point(TwoPcFault::AfterShardCheckpoint(i))?;
        }
        Ok(())
    }

    /// Drops from the coordinator engines every pending decision whose
    /// participant `Commit` records are all durable; the rest stay
    /// queued (and keep riding in checkpoint snapshots). Checked against
    /// the logs' durable horizons rather than assumed from the
    /// preceding flush: a cross-shard commit can land between the flush
    /// and this sweep.
    fn retire_durable_decisions(&self) {
        let pending = std::mem::take(&mut *self.retire.lock());
        let mut keep = Vec::new();
        for p in pending {
            let durable = p
                .commits
                .iter()
                .all(|&(shard, lsn)| lsn.raw() < self.shards[shard].view.log.durable_len());
            if durable {
                let mut engine = self.shards[p.coord].engine.lock();
                if engine.retire_coord_decision(p.txn) {
                    self.obs.registry.inc(names::M_SHARD_2PC_RETIRED);
                }
            } else {
                keep.push(p);
            }
        }
        self.retire.lock().extend(keep);
    }

    /// Open transactions in the router table (the front-end's drain
    /// aborts these on shutdown).
    pub fn active_txns(&self) -> Vec<TxnId> {
        let gtxns = self.gtxns.lock();
        gtxns.entries.keys().copied().collect()
    }

    // ---- observability ------------------------------------------------

    /// Unified metrics: each shard's absorbed snapshot (log/disk/lock
    /// series included) merge-summed together, plus the router's own
    /// `shard.*` / `server.*` series. Histograms merge bucket-wise.
    /// Takes no engine mutex — safe to call from the introspection
    /// thread while commits are in flight.
    pub fn stats(&self) -> RegistrySnapshot {
        merged_stats(&self.obs, self.shards.iter().map(|c| &c.view))
    }

    /// The delegation provenance chain of `ob`, from its owning shard.
    /// Chains survive crashes per shard, and because transaction ids are
    /// global, a chain's hops read identically whether the delegations
    /// were shard-local or part of cross-shard transactions.
    pub fn provenance(&self, ob: ObjectId) -> Vec<ProvHop> {
        match self.shards.get(self.map.shard_of(ob)) {
            Some(cell) => cell.view.prov.lock().chain(ob).to_vec(),
            None => Vec::new(),
        }
    }

    /// Panics if any shard violates a volatile scope invariant (see
    /// [`RhDb::validate_scope_invariants`]).
    #[doc(hidden)]
    pub fn validate_scope_invariants(&self) {
        for cell in &self.shards {
            let engine = cell.engine.lock();
            engine.validate_scope_invariants();
        }
    }

    // ---- time travel ---------------------------------------------------

    /// Time-travel read routed to `ob`'s owning shard: the value the
    /// committed state held at `as_of` on that shard's log (`Lsn::NULL`
    /// means the log tail). Replays the owning shard's log only — no
    /// engine mutex is taken — and resolves transactions left in doubt
    /// (2PC-prepared) at `as_of` by stitching across shards: a global
    /// transaction counts as committed iff *any* shard's log (or a
    /// checkpoint-carried decision) holds its `CoordCommit` record,
    /// exactly the rule crash recovery applies.
    pub fn read_as_of(&self, ob: ObjectId, as_of: Lsn) -> Result<Value> {
        Ok(self.reenact(ob, as_of, Purpose::Value)?.value())
    }

    /// The committed version timeline of `ob` with update LSNs in
    /// `[from, to]` on its owning shard, cross-shard in-doubt
    /// transactions resolved as in [`ShardedDb::read_as_of`].
    pub fn history(&self, ob: ObjectId, from: Lsn, to: Lsn) -> Result<Vec<VersionRecord>> {
        let versions = self.reenact(ob, to, Purpose::History)?.versions();
        Ok(versions.into_iter().filter(|v| v.lsn >= from).collect())
    }

    /// The full reenactment of `ob` at `as_of` on its owning shard, its
    /// in-doubt transactions settled against every shard's durable
    /// coordinator decisions.
    pub fn reenact(&self, ob: ObjectId, as_of: Lsn, purpose: Purpose) -> Result<Reenactment> {
        let owner = &self.shards[self.map.shard_of(ob)].view;
        let logs: Vec<&LogManager> = self.shards.iter().map(|c| &*c.view.log).collect();
        reenact::query(&owner.log, &logs, &owner.obs, ob, as_of, purpose)
    }

    // ---- crash ---------------------------------------------------------

    /// Simulates a whole-system crash: every shard's volatile state is
    /// dropped; the per-shard stable state survives, in shard order,
    /// ready for [`ShardedDb::recover`].
    pub fn crash(self) -> Vec<(Arc<StableLog>, Arc<Disk>)> {
        self.stop_introspection();
        self.shards.into_iter().map(|cell| cell.engine.into_inner().crash()).collect()
    }
}

/// Adopts a lone engine as a one-shard database: the shape every
/// served deployment has. The router's transaction counter continues
/// the engine's. Nothing is resolved: a lone engine takes no part in
/// two-phase commit, so it has no in-doubt transaction to resolve.
impl From<RhDb> for ShardedDb {
    fn from(db: RhDb) -> Self {
        let (strategy, config) = (db.strategy(), db.config());
        Self::from_engines(strategy, config, ShardMap::RANGE_SHIFT, vec![db], Arc::new(Obs::new()))
    }
}

impl TxnEngine for ShardedDb {
    fn begin(&mut self) -> Result<TxnId> {
        ShardedDb::begin(self)
    }

    fn read(&mut self, txn: TxnId, ob: ObjectId) -> Result<Value> {
        ShardedDb::read(self, txn, ob)
    }

    fn write(&mut self, txn: TxnId, ob: ObjectId, value: Value) -> Result<()> {
        ShardedDb::write(self, txn, ob, value)
    }

    fn add(&mut self, txn: TxnId, ob: ObjectId, delta: Value) -> Result<()> {
        ShardedDb::add(self, txn, ob, delta)
    }

    fn delegate(&mut self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Result<()> {
        ShardedDb::delegate(self, tor, tee, obs)
    }

    fn delegate_all(&mut self, tor: TxnId, tee: TxnId) -> Result<()> {
        ShardedDb::delegate_all(self, tor, tee)
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        ShardedDb::commit(self, txn)
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        ShardedDb::abort(self, txn)
    }

    fn savepoint(&mut self, txn: TxnId) -> Result<u64> {
        ShardedDb::savepoint(self, txn)
    }

    fn rollback_to(&mut self, txn: TxnId, token: u64) -> Result<()> {
        ShardedDb::rollback_to(self, txn, token)
    }

    fn permit(&mut self, granter: TxnId, permittee: TxnId, ob: ObjectId) -> Result<()> {
        ShardedDb::permit(self, granter, permittee, ob)
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.checkpoint_all()
    }

    fn crash_and_recover(self) -> Result<Self> {
        let (strategy, config, shift) = (self.strategy, self.config, self.map.shift());
        let parts = self.crash();
        ShardedDb::recover(strategy, config, parts, shift)
    }

    fn value_of(&mut self, ob: ObjectId) -> Result<Value> {
        ShardedDb::value_of(self, ob)
    }
}
