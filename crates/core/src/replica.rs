//! Read replicas: the engine held in perpetual forward pass.
//!
//! Delegation's core trick — *interpreting* history through scope tables
//! instead of rewriting it — means the WAL is already a complete,
//! append-only replication feed. A replica is therefore not a new kind
//! of engine: it is the restart-recovery forward pass (§3.6.1) that
//! never ends. A replica core *is* recovery's between-passes state
//! ([`Analyzed`]): every shipped record flows through the forward pass's
//! one record interpreter, `ForwardOutcome::apply`, with the same page
//! redo and scope narration a recovery runs, so the replica's scope
//! tables, provenance chains, and coordinator decisions are
//! byte-for-byte what a restart recovery of the same log prefix would
//! build — and **promotion is recovery**: the forward pass is always
//! finished, so promotion runs recovery's own backward tail
//! ([`Analyzed::finish`]) — backward pass over loser-scope clusters,
//! loser termination, log force — and the engine is open for writes. No
//! pass over the log is ever repeated. The primary's black boxes ship
//! with the rest of its log, so the promoted engine's postmortem
//! explains the primary it replaced.
//!
//! ## Staleness contract
//!
//! A replica read carries an optional `min_lsn` freshness bound: the
//! applied watermark ([`ReplicaSet::applied_lsn`], an exclusive record
//! count in the primary's LSN space) must reach the bound before the
//! read answers. [`ReplicaSet::wait_applied`] blocks on the apply
//! condvar up to a deadline and then fails with
//! [`RhError::ReplLagging`] — a bounded read never returns state older
//! than its bound, it either waits or refuses. The primary's
//! durable-watermark probe (`Op::Durable`) hands clients a valid bound
//! for read-your-writes: a commit ack implies the commit record is
//! durable, durable records are exactly what the primary ships, so a
//! replica at that watermark has applied the commit.
//!
//! ## LSN discipline
//!
//! The replica appends every shipped record to its **own** log, which
//! assigns LSNs densely from the local horizon — so a stream applied in
//! order reproduces the primary's LSNs exactly, and any gap or
//! reordering is caught by comparing the shipped LSN against the local
//! `curr_lsn` *before* applying. Time-travel reads (`read_as_of`,
//! `history`) therefore answer on the replica with the primary's LSN
//! coordinates, and a bounced replica resumes from its local log by
//! re-running the forward pass over it — the ordinary recovery
//! constructor — then subscribing from its own `applied_lsn`.

use crate::engine::{DbConfig, RhDb, Strategy};
use crate::recovery::forward::Redo;
use crate::recovery::Analyzed;
use crate::reenact::{self, Purpose, Reenactment, VersionRecord};
use crate::sharded::{ShardMap, ShardedDb};
use parking_lot::{Condvar, Mutex};
use rh_common::codec::Codec;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError};
use rh_obs::{names, Obs, Stopwatch};
use rh_storage::Disk;
use rh_wal::record::LogRecord;
use rh_wal::{LogManager, StableLog};
use std::sync::Arc;
use std::time::Duration;

/// One shard's engine-in-forward-pass: recovery's between-passes state,
/// kept alive between records instead of being consumed by a recovery.
type ReplicaCore = Analyzed;

impl ReplicaCore {
    /// The exclusive applied watermark: every primary record with LSN
    /// below this has been appended locally and analyzed.
    fn applied(&self) -> Lsn {
        self.log.curr_lsn()
    }

    /// Applies one shipped record: verifies the stream position, appends
    /// to the local log (reproducing the primary's LSN), and runs the
    /// forward-pass analysis on it. Returns the new applied watermark.
    fn apply(&mut self, lsn: Lsn, record: &[u8]) -> Result<Lsn> {
        let rec = LogRecord::from_bytes(record)
            .map_err(|_| RhError::CorruptLog { lsn, reason: "undecodable shipped record" })?;
        if rec.lsn != lsn || lsn != self.log.curr_lsn() {
            return Err(RhError::Protocol("replication stream out of order"));
        }
        let assigned = self.log.append(rec.txn, rec.prev_lsn, rec.body.clone());
        debug_assert_eq!(assigned, lsn, "local log must reproduce primary LSNs");
        let mut redo = Redo { log: &self.log, pool: &mut self.pool, obs: &self.obs, span: None };
        self.fwd.apply(&rec, &mut redo)?;
        self.obs.registry.inc(names::M_REPL_FRAMES_APPLIED);
        Ok(self.applied())
    }

    /// Promotion = recovery: the forward pass is already done (it never
    /// stopped), so run recovery's backward tail and hand back a
    /// writable engine with a full [`crate::recovery::RecoveryReport`] —
    /// in-doubt 2PC survivors included, so the sharded resolver can
    /// union decisions across promoted shards exactly as it does across
    /// recovered ones, and the postmortem of the newest black box the
    /// primary shipped. The report's `forward_wall` stays zero: the
    /// "forward pass" of a promotion is the whole replication epoch,
    /// already paid record by record before the promotion began.
    fn promote(self) -> Result<RhDb> {
        let started = Stopwatch::start();
        let log_before = self.log.metrics().snapshot();
        let disk_before = self.disk.metrics().snapshot();
        let obs = Arc::clone(&self.obs);
        let (mut db, report) = self.finish(&started, &log_before, &disk_before, "promote")?;
        obs.registry.inc(names::M_REPL_PROMOTIONS);
        obs.registry.observe(names::M_REPL_PROMOTE_US, report.elapsed.as_micros() as u64);
        obs.mark_timeseries(names::TS_REPL_PROMOTE);
        db.set_recovery_report(report);
        Ok(db)
    }
}

/// One shard's slot: `None` once the set has been promoted (further
/// reads are refused — the promoted engine owns the state now).
struct ShardSlot {
    core: Option<ReplicaCore>,
}

struct ReplicaShard {
    replica: Mutex<ShardSlot>,
    /// Signalled on every applied frame; staleness-bounded reads park
    /// here.
    applied_cv: Condvar,
}

/// A set of per-shard read replicas mirroring one primary (`--shards N`
/// ⇒ N independent streams, one per shard log), serving LSN-bounded
/// reads, time-travel queries, and introspection — and promotable into
/// a writable [`ShardedDb`] when the primary is lost.
pub struct ReplicaSet {
    strategy: Strategy,
    config: DbConfig,
    map: ShardMap,
    shards: Vec<ReplicaShard>,
    /// Set-level `repl.*` counters (staleness waits, promotions);
    /// per-shard apply counters live in each core's registry and are
    /// merge-summed by [`ReplicaSet::stats`].
    obs: Arc<Obs>,
}

impl ReplicaSet {
    /// Opens a replica set over per-shard stable state (fresh logs for a
    /// new replica; a bounced replica's kept logs resume — the forward
    /// pass re-analyzes the local prefix and [`ReplicaSet::applied_lsn`]
    /// tells the subscriber where to resume each stream).
    pub fn open(
        strategy: Strategy,
        config: DbConfig,
        parts: Vec<(Arc<StableLog>, Arc<Disk>)>,
        shift: u32,
    ) -> Result<Self> {
        if parts.is_empty() {
            return Err(RhError::Protocol("replica set needs at least one shard"));
        }
        let map = ShardMap::new(parts.len(), shift);
        let mut shards = Vec::with_capacity(parts.len());
        for (stable, disk) in parts {
            // The forward pass over what the local log already holds: a
            // no-op for a fresh replica, and exactly the resume path for a
            // bounced one (the shipped prefix it kept is re-analyzed, then
            // the stream continues from `applied_lsn`).
            let core = ReplicaCore::open(strategy, config, stable, disk, Arc::new(Obs::new()))?;
            shards.push(ReplicaShard {
                replica: Mutex::named(ShardSlot { core: Some(core) }, names::LS_CORE_REPLICA),
                applied_cv: Condvar::new(),
            });
        }
        Ok(ReplicaSet { strategy, config, map, shards, obs: Arc::new(Obs::new()) })
    }

    /// An all-volatile replica set (fresh mem-backed logs) — the unit
    /// tests' constructor.
    pub fn new_mem(strategy: Strategy, shards: usize, shift: u32) -> Self {
        let parts = (0..shards.max(1)).map(|_| (StableLog::new(), Disk::new())).collect();
        Self::open(strategy, DbConfig::default(), parts, shift)
            .expect("mem-backed replica set cannot fail to open")
    }

    /// Number of shard streams this set consumes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard whose stream carries `ob` (must mirror the primary's
    /// routing map).
    pub fn shard_of(&self, ob: ObjectId) -> usize {
        self.map.shard_of(ob)
    }

    /// The set-level observability hub.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    fn shard(&self, shard: usize) -> Result<&ReplicaShard> {
        self.shards.get(shard).ok_or(RhError::Protocol("replica shard index out of range"))
    }

    /// Runs `f` on the locked core of `shard`, refusing if promoted.
    fn with_core<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut ReplicaCore) -> Result<T>,
    ) -> Result<T> {
        let sh = self.shard(shard)?;
        let mut slot = sh.replica.lock();
        let core = slot
            .core
            .as_mut()
            .ok_or(RhError::Protocol("replica already promoted; reads moved to the new primary"))?;
        f(core)
    }

    /// The shard's applied watermark (exclusive, in the primary's LSN
    /// space): resume subscriptions from here.
    pub fn applied_lsn(&self, shard: usize) -> Result<Lsn> {
        self.with_core(shard, |core| Ok(core.applied()))
    }

    /// Applies one shipped record to `shard` and wakes every
    /// staleness-bounded read parked on the apply condvar. Returns the
    /// new applied watermark. Errors are sticky in effect: the caller
    /// must tear down the subscription and resume from
    /// [`ReplicaSet::applied_lsn`] (counted under `repl.apply.errors`).
    pub fn apply_frame(&self, shard: usize, lsn: Lsn, record: &[u8]) -> Result<Lsn> {
        let sh = self.shard(shard)?;
        let applied = {
            let mut slot = sh.replica.lock();
            let core = slot.core.as_mut().ok_or(RhError::Protocol(
                "replica already promoted; reads moved to the new primary",
            ))?;
            core.apply(lsn, record).inspect_err(|_| {
                self.obs.registry.inc(names::M_REPL_APPLY_ERRORS);
            })?
        };
        sh.applied_cv.notify_all();
        Ok(applied)
    }

    /// Blocks until `shard`'s applied watermark reaches `min_lsn` or
    /// `deadline` elapses; the staleness contract in one function — on
    /// timeout the read fails with [`RhError::ReplLagging`] rather than
    /// ever answering from state older than the bound.
    pub fn wait_applied(&self, shard: usize, min_lsn: Lsn, deadline: Duration) -> Result<Lsn> {
        let sh = self.shard(shard)?;
        let sw = Stopwatch::start();
        let mut slot = sh.replica.lock();
        let mut waited = false;
        loop {
            let applied = slot
                .core
                .as_ref()
                .ok_or(RhError::Protocol(
                    "replica already promoted; reads moved to the new primary",
                ))?
                .applied();
            if applied >= min_lsn {
                if waited {
                    self.obs.registry.inc(names::M_REPL_STALENESS_WAITS);
                }
                return Ok(applied);
            }
            let elapsed = sw.elapsed();
            if elapsed >= deadline {
                self.obs.registry.inc(names::M_REPL_STALENESS_TIMEOUTS);
                return Err(RhError::ReplLagging { min_lsn, applied });
            }
            waited = true;
            let _ = sh.applied_cv.wait_for(&mut slot, deadline - elapsed);
        }
    }

    /// Non-transactional peek at the applied state — the replica twin of
    /// the primary's `value_of`, answering from whatever the forward
    /// pass has applied (no freshness bound; pair with
    /// [`ReplicaSet::value_of_min`] for one).
    pub fn value_of(&self, ob: ObjectId) -> Result<Value> {
        self.with_core(self.map.shard_of(ob), |core| {
            let log = Arc::clone(&core.log);
            core.pool.read_object(ob, &*log)
        })
    }

    /// The staleness-bounded read: waits for the owning shard's forward
    /// pass to reach `min_lsn` (up to `deadline`), then peeks. `min_lsn`
    /// is in the owning shard's LSN space — the primary's
    /// durable-watermark probe for the same object hands out exactly
    /// that coordinate.
    pub fn value_of_min(&self, ob: ObjectId, min_lsn: Lsn, deadline: Duration) -> Result<Value> {
        let shard = self.map.shard_of(ob);
        self.wait_applied(shard, min_lsn, deadline)?;
        self.value_of(ob)
    }

    /// Time-travel read on the replica: the committed value of `ob` as
    /// of `lsn` (primary LSN coordinates), reenacted from the local log
    /// — cross-shard in-doubt transactions resolved against coordinator
    /// decisions found in any shard's local log, exactly as the sharded
    /// primary resolves them.
    pub fn read_as_of(&self, ob: ObjectId, as_of: Lsn) -> Result<Value> {
        Ok(self.reenact(ob, as_of, Purpose::Value)?.value())
    }

    /// The committed version timeline of `ob` over `[from, to]`,
    /// reenacted from the replica's local log.
    pub fn history(&self, ob: ObjectId, from: Lsn, to: Lsn) -> Result<Vec<VersionRecord>> {
        let versions = self.reenact(ob, to, Purpose::History)?.versions();
        Ok(versions.into_iter().filter(|v| v.lsn >= from).collect())
    }

    /// The full reenactment of `ob` at `as_of`, in-doubt transactions
    /// settled against every shard's shipped coordinator decisions.
    /// Holds no shard lock across the replay — the log handles are
    /// internally synchronized, same as the primary's reenact path.
    pub fn reenact(&self, ob: ObjectId, as_of: Lsn, purpose: Purpose) -> Result<Reenactment> {
        let owner = self.map.shard_of(ob);
        let obs = self.with_core(owner, |core| Ok(Arc::clone(&core.obs)))?;
        let mut logs = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            logs.push(self.with_core(i, |core| Ok(Arc::clone(&core.log)))?);
        }
        let shards: Vec<&LogManager> = logs.iter().map(|l| &**l).collect();
        reenact::query(shards[owner], &shards, &obs, ob, as_of, purpose)
    }

    /// The delegation provenance chain of `ob` as the replica's forward
    /// pass has rebuilt it — pre-crash chains render from a replica (and
    /// from the node it promotes into) without any primary.
    pub fn provenance(&self, ob: ObjectId) -> Result<Vec<crate::provenance::ProvHop>> {
        self.with_core(self.map.shard_of(ob), |core| Ok(core.fwd.prov.chain(ob).to_vec()))
    }

    /// One-stop merged metrics snapshot: set-level `repl.*` counters
    /// plus every shard's absorbed log/disk registries, merge-summed
    /// like the sharded router's stats.
    pub fn stats(&self) -> rh_obs::RegistrySnapshot {
        let mut merged = self.obs.registry.snapshot();
        for i in 0..self.shards.len() {
            let snap = self.with_core(i, |core| {
                core.log.metrics().snapshot().export_into(&core.obs.registry);
                core.disk.metrics().snapshot().export_into(&core.obs.registry);
                Ok(core.obs.registry.snapshot())
            });
            if let Ok(snap) = snap {
                merged.merge_sum(&snap);
            }
        }
        merged
    }

    /// Forces every shard's local log — a bounced replica resumes from
    /// what survived, so the subscriber flushes at heartbeat cadence to
    /// bound the re-ship window.
    pub fn flush(&self) -> Result<()> {
        for i in 0..self.shards.len() {
            self.flush_shard(i)?;
        }
        Ok(())
    }

    /// Forces one shard's local log (the per-stream subscriber's
    /// heartbeat-cadence flush).
    pub fn flush_shard(&self, shard: usize) -> Result<()> {
        self.with_core(shard, |core| core.log.flush_all())
    }

    /// Promotes the whole set into a writable database, consuming the
    /// replica state (subsequent reads on this set are refused). Every
    /// shard promotes independently, then in-doubt 2PC resolves against
    /// the union of shipped coordinator decisions — the same
    /// resolve-and-assemble step sharded recovery runs, because
    /// promotion *is* recovery.
    pub fn promote(&self) -> Result<ShardedDb> {
        let mut cores = Vec::with_capacity(self.shards.len());
        for sh in &self.shards {
            let core = sh.replica.lock().core.take();
            cores.push(core.ok_or(RhError::Protocol("replica already promoted"))?);
        }
        // Wake every parked staleness wait so it observes the promoted
        // state and errors out instead of sleeping to its deadline.
        for sh in &self.shards {
            sh.applied_cv.notify_all();
        }
        let mut engines = Vec::with_capacity(cores.len());
        for core in cores {
            engines.push(core.promote()?);
        }
        ShardedDb::resolve_and_assemble(self.strategy, self.config, self.map.shift(), engines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TxnEngine;

    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);

    /// Ships every durable record of `db`'s log into the replica.
    fn ship_all(db: &RhDb, set: &ReplicaSet) -> Lsn {
        let log = db.log();
        let mut lsn = set.applied_lsn(0).unwrap();
        let mut applied = lsn;
        while lsn.raw() < log.durable_len() {
            let rec = log.read(lsn).unwrap();
            applied = set.apply_frame(0, lsn, &rec.to_bytes()).unwrap();
            lsn = lsn.next();
        }
        applied
    }

    #[test]
    fn replica_tracks_committed_state_and_promotes() {
        let mut db = RhDb::new(Strategy::Rh);
        let set = ReplicaSet::new_mem(Strategy::Rh, 1, 0);
        let t1 = db.begin().unwrap();
        db.write(t1, A, 10).unwrap();
        db.commit(t1).unwrap();
        db.log().flush_all().unwrap();
        let applied = ship_all(&db, &set);
        assert_eq!(applied, db.log().curr_lsn());
        assert_eq!(set.value_of(A).unwrap(), 10);
        // An uncommitted update ships (it is durable) but must be undone
        // by promotion: the loser's effects never survive.
        let t2 = db.begin().unwrap();
        db.write(t2, A, 99).unwrap();
        db.log().flush_all().unwrap();
        ship_all(&db, &set);
        let newdb = set.promote().unwrap();
        let r = newdb.begin().unwrap();
        assert_eq!(newdb.read(r, A).unwrap(), 10);
        newdb.commit(r).unwrap();
        let report = newdb.shard_recovery(0).expect("promotion leaves a report");
        assert_eq!(report.losers, vec![t2]);
        // The consumed set refuses further reads.
        assert!(matches!(set.value_of(A), Err(RhError::Protocol(_))));
    }

    #[test]
    fn replica_replays_delegation_and_serves_provenance() {
        let mut db = RhDb::new(Strategy::Rh);
        let set = ReplicaSet::new_mem(Strategy::Rh, 1, 0);
        let t1 = db.begin().unwrap();
        let t2 = db.begin().unwrap();
        db.write(t1, A, 7).unwrap();
        db.delegate(t1, t2, &[A]).unwrap();
        db.abort(t1).unwrap();
        db.commit(t2).unwrap();
        db.log().flush_all().unwrap();
        ship_all(&db, &set);
        // The delegated update survives on the replica because t2
        // committed while responsible — scope interpretation, not log
        // rewriting, exactly as on the primary.
        assert_eq!(set.value_of(A).unwrap(), 7);
        let chain = set.provenance(A).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!((chain[0].from, chain[0].to), (t1, t2));
        // Time travel answers in primary LSN coordinates.
        assert_eq!(set.read_as_of(A, Lsn::NULL).unwrap(), 7);
        let hist = set.history(A, Lsn(0), Lsn::NULL).unwrap();
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].value, 7);
    }

    #[test]
    fn staleness_bound_blocks_or_refuses_never_lies() {
        let mut db = RhDb::new(Strategy::Rh);
        let set = Arc::new(ReplicaSet::new_mem(Strategy::Rh, 1, 0));
        let t = db.begin().unwrap();
        db.write(t, B, 5).unwrap();
        db.commit(t).unwrap();
        db.log().flush_all().unwrap();
        let durable = Lsn(db.log().durable_len());
        // Replica has applied nothing: a bounded read must refuse, with
        // both coordinates in the error.
        match set.value_of_min(B, durable, Duration::from_millis(10)) {
            Err(RhError::ReplLagging { min_lsn, applied }) => {
                assert_eq!(min_lsn, durable);
                assert_eq!(applied, Lsn(0));
            }
            other => panic!("expected ReplLagging, got {other:?}"),
        }
        // A concurrent apply satisfies a parked bounded read.
        let set2 = Arc::clone(&set);
        let waiter =
            std::thread::spawn(move || set2.value_of_min(B, durable, Duration::from_secs(30)));
        ship_all(&db, &set);
        assert_eq!(waiter.join().unwrap().unwrap(), 5);
        let stats = set.stats();
        assert_eq!(stats.counter(names::M_REPL_STALENESS_TIMEOUTS), 1);
    }

    #[test]
    fn out_of_order_or_torn_frames_are_refused() {
        let mut db = RhDb::new(Strategy::Rh);
        let set = ReplicaSet::new_mem(Strategy::Rh, 1, 0);
        let t = db.begin().unwrap();
        db.write(t, A, 1).unwrap();
        db.commit(t).unwrap();
        db.log().flush_all().unwrap();
        let rec1 = db.log().read(Lsn(1)).unwrap();
        // A gap (starting past the replica's watermark) is refused.
        assert!(matches!(
            set.apply_frame(0, Lsn(1), &rec1.to_bytes()),
            Err(RhError::Protocol("replication stream out of order"))
        ));
        // Garbage bytes are refused as corrupt, not applied.
        assert!(matches!(
            set.apply_frame(0, Lsn(0), &[0xff, 0xee]),
            Err(RhError::CorruptLog { .. })
        ));
        assert_eq!(set.applied_lsn(0).unwrap(), Lsn(0));
        assert_eq!(set.stats().counter(names::M_REPL_APPLY_ERRORS), 2);
    }

    #[test]
    fn sharded_promotion_resolves_in_doubt_across_shards() {
        // Build a 2-shard primary, run a cross-shard transaction to the
        // point where one shard is Prepared and the coordinator decision
        // is durable, ship everything, promote, and check the decided
        // transaction committed on the promoted node.
        let db = ShardedDb::new_mem(Strategy::Rh, 2, 0);
        let set = ReplicaSet::new_mem(Strategy::Rh, 2, 0);
        // Objects 0 and 1 land on shards 0 and 1 under shift 0.
        let oa = ObjectId(0);
        let ob = ObjectId(1);
        let t = db.begin().unwrap();
        db.write(t, oa, 11).unwrap();
        db.write(t, ob, 22).unwrap();
        db.commit(t).unwrap();
        for shard in 0..2 {
            let log = db.shard_log(shard).unwrap();
            log.flush_all().unwrap();
            let mut lsn = Lsn(0);
            while lsn.raw() < log.durable_len() {
                let rec = log.read(lsn).unwrap();
                set.apply_frame(shard, lsn, &rec.to_bytes()).unwrap();
                lsn = lsn.next();
            }
        }
        assert_eq!(set.value_of(oa).unwrap(), 11);
        assert_eq!(set.value_of(ob).unwrap(), 22);
        let newdb = set.promote().unwrap();
        assert_eq!(newdb.value_of(oa).unwrap(), 11);
        assert_eq!(newdb.value_of(ob).unwrap(), 22);
    }
}
