//! The serving core: shared state, admission control, session table,
//! and the drain / force-stop lifecycle.
//!
//! One [`Server`] owns one [`Backend`] — either a single engine
//! ([`rh_core::engine::RhDb`] wrapped in the [`rh_etm::EtmSession`]
//! synchronization layer) behind a mutex, or a range-sharded
//! [`rh_core::sharded::ShardedDb`] router — plus a
//! [`rh_obs::TcpService`] accept loop and a table of live sessions.
//! Each accepted connection gets one thread that reads, executes and
//! replies (see [`crate::conn`]). It executes operations under the
//! engine mutex (per shard, for the sharded backend) but forces commits
//! *outside* it, so concurrent sessions' commit records share the WAL's
//! group-commit fsync (the point of the
//! [`rh_core::engine::RhDb::commit_prepare`] split).
//!
//! Lock order in this crate (declared in the `rh-analyze` L2 manifest):
//! `sessions` before `engine` before `subscribers`. In practice guards
//! are scoped so tightly that nesting never happens — the order exists
//! so the analyzer can prove it.

use crate::conn;
use crate::repl::ReplRegistry;
use crate::wire;
use parking_lot::{Condvar, Mutex};
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId};
use rh_core::engine::RhDb;
use rh_core::reenact::Purpose;
use rh_core::replica::ReplicaSet;
use rh_core::sharded::ShardedDb;
use rh_etm::EtmSession;
use rh_lock::LockManager;
use rh_obs::{names, Obs, Stopwatch, TcpService};
use rh_storage::Disk;
use rh_wal::{LogManager, StableLog};
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission control: sessions beyond this are answered with a
    /// rejected hello and closed.
    pub max_sessions: usize,
    /// Per-connection pipelining depth. Each time a session reads, it
    /// queues at most this many of the requests already received and
    /// answers the rest BUSY (never queued unboundedly).
    pub inflight_per_conn: usize,
    /// A connection that keeps its session waiting for the next request
    /// (or stalls mid-frame) longer than this is closed, its open
    /// transactions aborted. Time spent executing does not count.
    pub idle_timeout: Duration,
    /// How long a replica backend blocks a staleness-bounded read
    /// (`ValueOfMin`) waiting for the forward pass to reach the bound
    /// before refusing it with `ReplLagging`. Ignored on primaries.
    pub staleness_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            inflight_per_conn: 32,
            idle_timeout: Duration::from_secs(30),
            staleness_deadline: Duration::from_secs(5),
        }
    }
}

/// One registered session.
struct SessionEntry {
    /// A handle to the socket, kept to force-close it at drain.
    stream: TcpStream,
    /// Transactions begun by this session and not yet terminated.
    open: HashSet<TxnId>,
}

/// The session table: admission state plus transaction ownership, all
/// behind one mutex (`sessions` in the lock-order manifest).
pub(crate) struct SessionTable {
    next_id: u64,
    entries: HashMap<u64, SessionEntry>,
    /// Which session began each live transaction (for abort-on-close).
    owners: HashMap<TxnId, u64>,
}

impl SessionTable {
    fn new() -> Self {
        SessionTable { next_id: 1, entries: HashMap::new(), owners: HashMap::new() }
    }

    /// Admits a connection if below `max`, returning its session id.
    pub(crate) fn admit(&mut self, stream: TcpStream, max: usize) -> Option<u64> {
        if self.entries.len() >= max {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(id, SessionEntry { stream, open: HashSet::new() });
        Some(id)
    }

    /// Records that `sid` began `txn`.
    pub(crate) fn note_begin(&mut self, sid: u64, txn: TxnId) {
        if let Some(e) = self.entries.get_mut(&sid) {
            e.open.insert(txn);
            self.owners.insert(txn, sid);
        }
    }

    /// Records that `txn` terminated (committed or aborted), whoever
    /// owned it.
    pub(crate) fn note_terminated(&mut self, txn: TxnId) {
        if let Some(sid) = self.owners.remove(&txn) {
            if let Some(e) = self.entries.get_mut(&sid) {
                e.open.remove(&txn);
            }
        }
    }

    /// Deregisters `sid`, returning its still-open transactions.
    /// `None` if the session was already gone (closure is idempotent).
    pub(crate) fn close(&mut self, sid: u64) -> Option<Vec<TxnId>> {
        let entry = self.entries.remove(&sid)?;
        let mut open: Vec<TxnId> = entry.open.into_iter().collect();
        open.sort_unstable();
        for t in &open {
            self.owners.remove(t);
        }
        Some(open)
    }

    /// Live session count.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Force-closes every session's socket (drain / force-stop): the
    /// sessions see EOF and their threads wind down.
    fn slam_sockets(&self) {
        for e in self.entries.values() {
            let _ = e.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Removes every entry, returning all still-open transactions.
    fn drain_all(&mut self) -> Vec<TxnId> {
        let mut open: Vec<TxnId> = self.owners.keys().copied().collect();
        open.sort_unstable();
        self.entries.clear();
        self.owners.clear();
        open
    }
}

/// The engine behind the wire: either one [`RhDb`] under the ETM layer
/// and a single mutex (the original configuration), or a range-sharded
/// [`ShardedDb`] whose router synchronizes internally — per-shard engine
/// mutexes instead of one global one, which is what lets independent
/// shards commit concurrently.
pub(crate) enum Backend {
    /// One engine, one mutex; commit forces happen on `log` *outside*
    /// the mutex (group commit).
    Single {
        /// The engine, behind the ETM layer.
        engine: Box<Mutex<EtmSession<RhDb>>>,
        /// The engine's log manager (commit forcing + stats absorption
        /// without the engine mutex).
        log: Arc<LogManager>,
        /// The engine's disk (stats absorption).
        disk: Arc<Disk>,
        /// The engine's lock manager (stats absorption).
        locks: Arc<LockManager>,
    },
    /// N shards behind the router; all methods take `&self`.
    Sharded(Arc<ShardedDb>),
    /// A read replica in perpetual forward pass: serves reads,
    /// time-travel, and introspection; every mutating op is refused
    /// with [`Backend::read_only`]. Promotion happens *outside* the
    /// server (the set is `Arc`-shared with whoever drives failover).
    Replica(Arc<ReplicaSet>),
}

impl Backend {
    /// The uniform refusal every mutating op gets on a replica.
    fn read_only<T>() -> Result<T> {
        Err(RhError::Protocol("replica is read-only: writes go to the primary"))
    }

    pub(crate) fn begin(&self) -> Result<TxnId> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.initiate_empty()
            }
            Backend::Sharded(db) => db.begin(),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn read(&self, t: TxnId, ob: ObjectId) -> Result<Value> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.read(t, ob)
            }
            Backend::Sharded(db) => db.read(t, ob),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn write(&self, t: TxnId, ob: ObjectId, v: Value) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.write(t, ob, v)
            }
            Backend::Sharded(db) => db.write(t, ob, v),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn add(&self, t: TxnId, ob: ObjectId, d: Value) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.add(t, ob, d)
            }
            Backend::Sharded(db) => db.add(t, ob, d),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn delegate(&self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.delegate(tor, tee, obs)
            }
            Backend::Sharded(db) => db.delegate(tor, tee, obs),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn delegate_all(&self, tor: TxnId, tee: TxnId) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.delegate_all(tor, tee)
            }
            Backend::Sharded(db) => db.delegate_all(tor, tee),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn permit(&self, g: TxnId, p: TxnId, ob: ObjectId) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.permit(g, p, ob)
            }
            Backend::Sharded(db) => db.permit(g, p, ob),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    /// The durable commit. Single: prepare under the engine mutex, force
    /// the log outside it so concurrent sessions share one group-commit
    /// fsync. Sharded: the router picks the single-shard fast path (same
    /// prepare/force split, per shard) or the cross-shard 2PC protocol.
    ///
    /// Returns the commit's measured phases `(name, micros)`, already
    /// emitted as `phase.*` trace points attributed to `(t, trace)` on
    /// the obs context where each phase ran (this engine's for the
    /// single backend; the owning shard's for 2PC edges). The phases are
    /// disjoint by construction — `phase.engine_hold` *excludes* the
    /// `commit_prepare` body it brackets — so their sum approximates the
    /// server-side commit latency.
    pub(crate) fn commit(
        &self,
        t: TxnId,
        trace: u64,
        obs: &Obs,
    ) -> Result<Vec<(&'static str, u64)>> {
        match self {
            Backend::Single { engine, log, .. } => {
                let held = Stopwatch::start();
                let mut prepare_us = 0u64;
                let lsn = {
                    let mut eng = engine.lock();
                    eng.commit_with(t, |db, t| {
                        let sw = Stopwatch::start();
                        // The commit-record force under the engine mutex is the
                        // single-node durability point (group commit happens
                        // below, in flush_to). rh-analyze: allow(L6)
                        let lsn = db.commit_prepare(t);
                        prepare_us = sw.elapsed_micros();
                        lsn
                    })?
                };
                let engine_us = held.elapsed_micros().saturating_sub(prepare_us);
                parking_lot::witness::note_hold(
                    names::LS_SERVER_ENGINE,
                    names::LW_SUB_COMMIT_PREPARE,
                    prepare_us,
                );
                let forced = Stopwatch::start();
                log.flush_to(lsn)?;
                let flush_us = forced.elapsed_micros();
                let phases = vec![
                    (names::PH_ENGINE_HOLD, engine_us),
                    (names::PH_COMMIT_PREPARE, prepare_us),
                    (names::PH_FLUSH_WAIT, flush_us),
                ];
                for &(name, us) in &phases {
                    obs.tracer.phase(name, t.0, trace, us);
                }
                Ok(phases)
            }
            Backend::Sharded(db) => db.commit_traced(t, trace),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn abort(&self, t: TxnId) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.abort(t)
            }
            Backend::Sharded(db) => db.abort(t),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn savepoint(&self, t: TxnId) -> Result<u64> {
        match self {
            Backend::Single { engine, .. } => {
                let lsn = {
                    let mut eng = engine.lock();
                    eng.engine().savepoint(t)?
                };
                Ok(wire::token_of(lsn))
            }
            Backend::Sharded(db) => db.savepoint(t),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn rollback_to(&self, t: TxnId, token: u64) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.engine().rollback_to(t, wire::lsn_of(token))
            }
            Backend::Sharded(db) => db.rollback_to(t, token),
            Backend::Replica(_) => Self::read_only(),
        }
    }

    pub(crate) fn value_of(&self, ob: ObjectId) -> Result<Value> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                eng.value_of(ob)
            }
            Backend::Sharded(db) => db.value_of(ob),
            Backend::Replica(set) => set.value_of(ob),
        }
    }

    /// Staleness-bounded read (wire `ValueOfMin`). On a primary every
    /// read is current, so the bound is trivially satisfied and this is
    /// a plain peek. On a replica the owning shard's forward pass must
    /// reach `min_lsn` within `deadline` or the read is refused with
    /// `ReplLagging` — it never answers from state older than its bound.
    pub(crate) fn value_of_min(
        &self,
        ob: ObjectId,
        min_lsn: Lsn,
        deadline: Duration,
    ) -> Result<Value> {
        match self {
            Backend::Single { .. } | Backend::Sharded(_) => self.value_of(ob),
            Backend::Replica(set) => set.value_of_min(ob, min_lsn, deadline),
        }
    }

    /// The durable-watermark probe (wire `Durable`): an LSN-space token
    /// usable as a `ValueOfMin` bound for read-your-writes. Primaries
    /// answer the owning shard's durable length — a commit ack implies
    /// the commit record is below it. Replicas answer their applied
    /// watermark (what a bounded read against *this* node can rely on).
    pub(crate) fn durable_watermark(&self, ob: ObjectId) -> Result<u64> {
        match self {
            Backend::Single { log, .. } => Ok(log.durable_len()),
            Backend::Sharded(db) => {
                let shard = db.shard_of(ob);
                let log =
                    db.shard_log(shard).ok_or(RhError::Protocol("shard index out of range"))?;
                Ok(log.durable_len())
            }
            Backend::Replica(set) => Ok(set.applied_lsn(set.shard_of(ob))?.0),
        }
    }

    /// The log a `ReplSubscribe { shard }` streams from. Only primaries
    /// ship; chaining replicas off replicas is refused.
    pub(crate) fn ship_log(&self, shard: u32) -> Result<Arc<LogManager>> {
        match self {
            Backend::Single { log, .. } => {
                if shard == 0 {
                    Ok(Arc::clone(log))
                } else {
                    Err(RhError::Protocol("shard index out of range"))
                }
            }
            Backend::Sharded(db) => db
                .shard_log(shard as usize)
                .cloned()
                .ok_or(RhError::Protocol("shard index out of range")),
            Backend::Replica(_) => {
                Err(RhError::Protocol("replicas do not ship the log; subscribe to the primary"))
            }
        }
    }

    /// Time-travel read (wire `ReadAsOf`): reenact the object's history
    /// at `as_of` from the WAL alone. Neither arm takes an engine mutex
    /// — the single backend replays through the `log` Arc captured at
    /// bind time, the sharded router replays the owning shard's log and
    /// stitches coordinator decisions from every shard's log — so a
    /// long deep-history replay never stalls the write path.
    pub(crate) fn read_as_of(&self, ob: ObjectId, as_of: Lsn, obs: &Arc<Obs>) -> Result<Value> {
        match self {
            Backend::Single { log, .. } => {
                let r = rh_core::reenact::query(log, obs, ob, as_of, Purpose::Value)?;
                Ok(r.value())
            }
            Backend::Sharded(db) => db.read_as_of(ob, as_of),
            Backend::Replica(set) => set.read_as_of(ob, as_of),
        }
    }

    /// Version timeline (wire `History`) rendered as a `history.v1`
    /// JSON document. Same no-engine-mutex property as
    /// [`Backend::read_as_of`].
    pub(crate) fn history_json(
        &self,
        ob: ObjectId,
        from: Lsn,
        to: Lsn,
        obs: &Arc<Obs>,
    ) -> Result<String> {
        match self {
            Backend::Single { log, .. } => {
                let r = rh_core::reenact::query(log, obs, ob, to, Purpose::History)?;
                Ok(r.to_json_range(from, r.as_of, |_| false).render_pretty())
            }
            Backend::Sharded(db) => {
                let (r, decided) = db.reenact(ob, to, Purpose::History)?;
                Ok(r.to_json_range(from, r.as_of, |t| decided.contains(&t)).render_pretty())
            }
            Backend::Replica(set) => {
                let (r, decided) = set.reenact(ob, to, Purpose::History)?;
                Ok(r.to_json_range(from, r.as_of, |t| decided.contains(&t)).render_pretty())
            }
        }
    }

    pub(crate) fn checkpoint(&self) -> Result<()> {
        match self {
            Backend::Single { engine, .. } => {
                let mut eng = engine.lock();
                // The checkpoint's master-record force runs under the engine
                // mutex: a quiesced engine is what makes the snapshot
                // consistent. rh-analyze: allow(L6)
                eng.engine().checkpoint()
            }
            Backend::Sharded(db) => db.checkpoint_all(),
            // A replica cannot checkpoint (it does not own the
            // database); drain just forces its local logs, best-effort
            // — a promoted-away set has nothing left to flush.
            Backend::Replica(set) => {
                let _ = set.flush();
                Ok(())
            }
        }
    }

    /// One-stop stats, rendered. No engine mutex on either arm: the
    /// single backend absorbs through Arcs captured at bind time, the
    /// sharded router merge-sums per-shard registries.
    pub(crate) fn stats_json(&self, obs: &Arc<Obs>) -> String {
        match self {
            Backend::Single { log, disk, locks, .. } => {
                log.metrics().snapshot().export_into(&obs.registry);
                disk.metrics().snapshot().export_into(&obs.registry);
                locks.stats().snapshot().export_into(&obs.registry);
                obs.registry.snapshot().to_json().render_pretty()
            }
            Backend::Sharded(db) => db.stats().to_json().render_pretty(),
            Backend::Replica(set) => set.stats().to_json().render_pretty(),
        }
    }
}

/// State shared by the accept loop and every per-connection thread.
pub(crate) struct Shared {
    /// The engine backend (single or sharded). See the lock-order
    /// note in the module docs.
    pub(crate) backend: Backend,
    /// The backend's observability hub; `server.*` counters land here,
    /// which is what makes them visible to `RhDb::stats()` and the
    /// `/stats` introspection route.
    pub(crate) obs: Arc<Obs>,
    /// The replication subscriber registry: the ship loops report
    /// shipped/acked watermarks here, the `/replication` introspection
    /// route renders it.
    pub(crate) repl: Arc<ReplRegistry>,
    /// The session table.
    pub(crate) sessions: Mutex<SessionTable>,
    /// Join handles of live per-connection threads, joined at shutdown
    /// (see [`Shared::track_thread`]).
    pub(crate) reapers: Mutex<Vec<JoinHandle<()>>>,
    /// Set during drain: new connections and new requests are refused.
    pub(crate) draining: AtomicBool,
    /// Set by [`Server::force_stop`]: skip all tidy-up (simulated
    /// kill-9 — open transactions must become recovery losers).
    pub(crate) killed: AtomicBool,
    /// Tunables.
    pub(crate) cfg: ServerConfig,
    /// When this incarnation serves a *recovered* engine, the first
    /// committed ack observes `recovery.first_ack_us` against this
    /// watch — the operational "time until the restarted server did
    /// useful durable work" number the recovery report cannot see.
    pub(crate) started: Stopwatch,
    /// Armed at bind iff the engine came out of recovery; the first
    /// commit ack disarms it.
    pub(crate) first_ack_pending: AtomicBool,
    /// Flag + condvar behind [`Server::run_until_shutdown`].
    stop_flag: Mutex<bool>,
    stop_cv: Condvar,
}

impl Shared {
    /// Signals `run_until_shutdown` to return (wire `Shutdown` op).
    pub(crate) fn request_shutdown(&self) {
        let mut stopped = self.stop_flag.lock();
        *stopped = true;
        self.stop_cv.notify_all();
    }

    /// Keeps a per-connection thread's handle for drain and force-stop
    /// to join, first dropping the handles of threads that already
    /// exited: an exited thread that is never joined keeps its stack
    /// mapped, so holding every handle ever spawned grows the process
    /// with each connection.
    pub(crate) fn track_thread(&self, handle: JoinHandle<()>) {
        let mut reapers = self.reapers.lock();
        reapers.retain(|h| !h.is_finished());
        reapers.push(handle);
    }

    /// Current session count, for the active-sessions gauge.
    pub(crate) fn session_gauge(&self) {
        let n = { self.sessions.lock().len() } as u64;
        self.obs.registry.set(names::M_SRV_SESSIONS_ACTIVE, n);
    }
}

/// A running transaction front-end.
///
/// ```no_run
/// use rh_core::engine::{RhDb, Strategy};
/// use rh_server::{Server, ServerConfig};
///
/// let db = RhDb::new(Strategy::Rh);
/// let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// server.run_until_shutdown();          // returns after a wire Shutdown op
/// let _db = server.shutdown().unwrap(); // drain: abort leftovers, checkpoint
/// ```
pub struct Server {
    shared: Arc<Shared>,
    service: TcpService,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `db`.
    ///
    /// The engine is wrapped in an [`EtmSession`] and owned by the
    /// server until [`Server::shutdown`] returns it. If the engine has
    /// a flight recorder, a "server-start" black box is frozen so a
    /// post-crash incarnation's postmortem covers the serving period.
    pub fn bind(addr: &str, db: RhDb, cfg: ServerConfig) -> std::io::Result<Server> {
        Self::bind_with_repl(addr, db, cfg, Arc::new(ReplRegistry::new()))
    }

    /// [`Server::bind`] with a caller-supplied replication registry, so
    /// the `/replication` introspection route (wired up before the
    /// engine moves into the server) and the ship loops share one view.
    pub fn bind_with_repl(
        addr: &str,
        db: RhDb,
        cfg: ServerConfig,
        repl: Arc<ReplRegistry>,
    ) -> std::io::Result<Server> {
        let log = Arc::clone(db.log());
        let disk = Arc::clone(db.disk());
        let locks = Arc::clone(db.locks());
        let obs = Arc::clone(db.obs());
        let recovered = db.last_recovery().is_some();
        db.record_blackbox("server-start");
        let backend = Backend::Single {
            engine: Box::new(Mutex::named(EtmSession::new(db), names::LS_SERVER_ENGINE)),
            log,
            disk,
            locks,
        };
        Self::bind_backend(addr, backend, obs, recovered, cfg, repl)
    }

    /// Binds `addr` and serves a range-sharded engine: requests are
    /// routed by object id at the wire layer, single-shard transactions
    /// take the per-shard fast path, cross-shard ones commit through
    /// 2PC. The router's internal synchronization replaces the single
    /// engine mutex, so sessions on different shards execute
    /// concurrently. Tear down with [`Server::shutdown_sharded`] (or
    /// [`Server::force_stop`] for a simulated kill-9).
    pub fn bind_sharded(addr: &str, db: ShardedDb, cfg: ServerConfig) -> std::io::Result<Server> {
        Self::bind_sharded_with_repl(addr, db, cfg, Arc::new(ReplRegistry::new()))
    }

    /// [`Server::bind_sharded`] with a caller-supplied replication
    /// registry (see [`Server::bind_with_repl`]).
    pub fn bind_sharded_with_repl(
        addr: &str,
        db: ShardedDb,
        cfg: ServerConfig,
        repl: Arc<ReplRegistry>,
    ) -> std::io::Result<Server> {
        let obs = Arc::clone(db.obs());
        let recovered = db.stats().counter(names::M_RECOVERY_RUNS) > 0;
        Self::bind_backend(addr, Backend::Sharded(Arc::new(db)), obs, recovered, cfg, repl)
    }

    /// Binds `addr` and serves a read replica: reads, staleness-bounded
    /// reads, time-travel, and stats answer from the set's perpetual
    /// forward pass; every mutating op is refused. The set stays
    /// `Arc`-shared with the caller, which keeps feeding it via a
    /// [`crate::repl::ReplicaRunner`] and promotes it on failover
    /// (tear this server down with [`Server::shutdown_replica`] first,
    /// then bind a writable server over the promoted engine).
    pub fn bind_replica(
        addr: &str,
        set: Arc<ReplicaSet>,
        cfg: ServerConfig,
        repl: Arc<ReplRegistry>,
    ) -> std::io::Result<Server> {
        let obs = Arc::clone(set.obs());
        Self::bind_backend(addr, Backend::Replica(set), obs, false, cfg, repl)
    }

    fn bind_backend(
        addr: &str,
        backend: Backend,
        obs: Arc<Obs>,
        recovered: bool,
        cfg: ServerConfig,
        repl: Arc<ReplRegistry>,
    ) -> std::io::Result<Server> {
        let shared = Arc::new(Shared {
            backend,
            obs,
            repl,
            sessions: Mutex::named(SessionTable::new(), names::LS_SERVER_SESSIONS),
            reapers: Mutex::named(Vec::new(), names::LS_SERVER_REAPERS),
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            cfg,
            started: Stopwatch::start(),
            first_ack_pending: AtomicBool::new(recovered),
            stop_flag: Mutex::named(false, names::LS_SERVER_STOP_FLAG),
            stop_cv: Condvar::new(),
        });
        let on_conn = Arc::clone(&shared);
        let service = TcpService::bind(
            addr,
            "rh-serve",
            Box::new(move |stream| conn::accept(&on_conn, stream)),
        )?;
        Ok(Server { shared, service })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.service.local_addr()
    }

    /// The stable half of the engine's log (crash tests keep this to
    /// recover a post-`force_stop` incarnation). For a sharded server
    /// this is shard 0's stable log; crash tests over sharded servers
    /// should keep per-shard handles from the [`ShardedDb`] instead.
    pub fn stable(&self) -> Arc<StableLog> {
        match &self.shared.backend {
            Backend::Single { log, .. } => log.stable(),
            Backend::Sharded(db) => db.primary_log().stable(),
            Backend::Replica(set) => {
                // Test-support accessor; a consumed (promoted) set is a
                // harness bug, not a durability path.
                set.shard_stable(0).expect("replica set not yet promoted") // rh-analyze: allow(L1)
            }
        }
    }

    /// The replication subscriber registry this server's ship loops
    /// report into (render it behind a `/replication` route).
    pub fn repl_registry(&self) -> Arc<ReplRegistry> {
        Arc::clone(&self.shared.repl)
    }

    /// The engine's disk handle (crash tests pair it with
    /// [`Server::stable`] for [`RhDb::recover`]). Shard 0's disk for a
    /// sharded server.
    pub fn disk(&self) -> Arc<Disk> {
        match &self.shared.backend {
            Backend::Single { disk, .. } => Arc::clone(disk),
            Backend::Sharded(db) => Arc::clone(db.primary_disk()),
            Backend::Replica(set) => {
                // Test-support accessor, as in `stable` above.
                set.shard_disk(0).expect("replica set not yet promoted") // rh-analyze: allow(L1)
            }
        }
    }

    /// Blocks until a client sends the wire `Shutdown` op.
    pub fn run_until_shutdown(&self) {
        let mut stopped = self.shared.stop_flag.lock();
        while !*stopped {
            self.shared.stop_cv.wait(&mut stopped);
        }
    }

    /// Waits up to `timeout` for a wire `Shutdown` op; `true` once one
    /// arrived. The polling form of [`Server::run_until_shutdown`], for
    /// callers that interleave another liveness check (a failover
    /// driver watching its replication source, say).
    pub fn wait_shutdown_for(&self, timeout: Duration) -> bool {
        let mut stopped = self.shared.stop_flag.lock();
        if !*stopped {
            let _ = self.shared.stop_cv.wait_for(&mut stopped, timeout);
        }
        *stopped
    }

    /// Graceful drain: stop accepting, close every session (their open
    /// transactions abort), checkpoint, and hand the engine back.
    ///
    /// The checkpoint moves the master record, so the next incarnation
    /// of this database must be opened from a surviving disk image —
    /// the normal path for a *graceful* stop. (Crash restarts instead
    /// rely on the master staying NULL while serving: the server never
    /// checkpoints mid-flight.)
    pub fn shutdown(self) -> Result<RhDb> {
        match Self::drain(self)? {
            Backend::Single { engine, .. } => {
                let db = engine.into_inner().into_engine();
                db.record_blackbox("server-drain");
                Ok(db)
            }
            _ => Err(RhError::Protocol("not a single-engine server: drain with its own shutdown")),
        }
    }

    /// Graceful drain of a sharded server: stop accepting, close every
    /// session (their open transactions abort in every shard they
    /// touched), checkpoint every shard, and hand the sharded engine
    /// back.
    pub fn shutdown_sharded(self) -> Result<ShardedDb> {
        match Self::drain(self)? {
            Backend::Sharded(db) => Arc::try_unwrap(db)
                .map_err(|_| RhError::Protocol("sharded engine still shared at drain")),
            _ => Err(RhError::Protocol("not a sharded server: drain with its own shutdown")),
        }
    }

    /// Graceful stop of a replica server: refuse new work, close every
    /// session, force the local logs, and hand the (still `Arc`-shared)
    /// set back. The failover path: stop the runner, `promote()` the
    /// set, call this to free the address, then bind a writable server
    /// over the promoted engine.
    pub fn shutdown_replica(self) -> Result<Arc<ReplicaSet>> {
        match Self::drain(self)? {
            Backend::Replica(set) => Ok(set),
            _ => Err(RhError::Protocol("not a replica server: drain with its own shutdown")),
        }
    }

    /// The common drain: refuse new work, close sessions, abort
    /// leftovers, checkpoint, and unwrap the shared state.
    fn drain(server: Server) -> Result<Backend> {
        let Server { shared, mut service } = server;
        shared.draining.store(true, Ordering::SeqCst);
        service.shutdown();
        {
            let table = shared.sessions.lock();
            table.slam_sockets();
        }
        join_reapers(&shared);
        let leftovers = {
            let mut table = shared.sessions.lock();
            table.drain_all()
        };
        for t in &leftovers {
            // Already-terminated ids are fine: abort is best-effort
            // here, the session threads normally beat us to it.
            let _ = shared.backend.abort(*t);
            shared.obs.registry.inc(names::M_SRV_TXNS_ABORTED_ON_CLOSE);
        }
        shared.backend.checkpoint()?;
        shared.obs.registry.inc(names::M_SRV_DRAINS);
        shared.obs.registry.set(names::M_SRV_SESSIONS_ACTIVE, 0);
        drop(service);
        let shared = Arc::try_unwrap(shared)
            .map_err(|_| RhError::Protocol("server state still shared at drain"))?;
        Ok(shared.backend)
    }

    /// Simulated kill-9: stop everything *without* aborting open
    /// transactions, flushing the log tail, or checkpointing. Volatile
    /// state evaporates exactly as in [`RhDb::crash`]; pair the handles
    /// from [`Server::stable`] / [`Server::disk`] with
    /// [`RhDb::recover`] to bring up the next incarnation.
    pub fn force_stop(self) {
        let Server { shared, mut service } = self;
        shared.killed.store(true, Ordering::SeqCst);
        shared.draining.store(true, Ordering::SeqCst);
        service.shutdown();
        {
            let table = shared.sessions.lock();
            table.slam_sockets();
        }
        join_reapers(&shared);
        // Dropping `shared` drops the engine: buffer pool, transaction
        // table, scopes, unflushed log tail — all gone, as in a crash.
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.service.local_addr()).finish()
    }
}

/// Joins every per-connection thread still tracked.
fn join_reapers(shared: &Arc<Shared>) {
    let handles = {
        let mut reapers = shared.reapers.lock();
        std::mem::take(&mut *reapers)
    };
    for h in handles {
        let _ = h.join();
    }
}
