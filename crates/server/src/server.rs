//! The serving core: shared state, admission control, session table,
//! and the drain / force-stop lifecycle.
//!
//! One [`Server`] owns one [`Backend`] — a [`rh_core::sharded::ShardedDb`]
//! router over N ≥ 1 shards (one shard is the default deployment), or a
//! read replica — plus a [`rh_obs::TcpService`] accept loop and a table
//! of live sessions. Each accepted connection gets one thread that
//! reads, executes and replies (see [`crate::conn`]). Operations run
//! under the owning shard's engine mutex, but commits are forced
//! *outside* it, so concurrent sessions' commit records share the WAL's
//! group-commit fsync (the point of the
//! [`rh_core::engine::RhDb::commit_prepare`] split).
//!
//! Lock order in this crate (declared in the `rh-analyze` L2 manifest):
//! `sessions` before `subscribers`. In practice guards are scoped so
//! tightly that nesting never happens — the order exists so the
//! analyzer can prove it. Engine mutexes live inside the router and
//! are never taken while a server lock is held.

use crate::conn;
use crate::repl::ReplRegistry;
use parking_lot::{Condvar, Mutex};
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId};
use rh_core::reenact::Purpose;
use rh_core::replica::ReplicaSet;
use rh_core::sharded::ShardedDb;
use rh_obs::{names, Obs, Sampler, Stopwatch, TcpService};
use rh_wal::LogManager;
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

/// The engine behind the wire.
pub(crate) enum Backend {
    /// The writable database: N ≥ 1 shards behind the router, which
    /// synchronizes internally (per-shard engine mutexes), so every
    /// method takes `&self` and sessions on different shards execute
    /// concurrently.
    Primary(Arc<ShardedDb>),
    /// A read replica in perpetual forward pass: serves reads,
    /// time-travel, and introspection; every mutating op is refused
    /// (see [`Backend::primary`]). Promotion happens *outside* the
    /// server (the set is `Arc`-shared with whoever drives failover).
    Replica(Arc<ReplicaSet>),
}

impl Backend {
    /// The writable database every transactional op runs against, or
    /// the uniform refusal a replica gives it.
    pub(crate) fn primary(&self) -> Result<&ShardedDb> {
        match self {
            Backend::Primary(db) => Ok(db),
            Backend::Replica(_) => {
                Err(RhError::Protocol("replica is read-only: writes go to the primary"))
            }
        }
    }

    pub(crate) fn value_of(&self, ob: ObjectId) -> Result<Value> {
        match self {
            Backend::Primary(db) => db.value_of(ob),
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
            Backend::Primary(db) => db.value_of(ob),
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
            Backend::Primary(db) => {
                let log = db
                    .shard_log(db.shard_of(ob))
                    .ok_or(RhError::Protocol("shard index out of range"))?;
                Ok(log.durable_len())
            }
            Backend::Replica(set) => Ok(set.applied_lsn(set.shard_of(ob))?.0),
        }
    }

    /// The log a `ReplSubscribe { shard }` streams from. Only primaries
    /// ship; chaining replicas off replicas is refused.
    pub(crate) fn ship_log(&self, shard: u32) -> Result<Arc<LogManager>> {
        match self {
            Backend::Primary(db) => db
                .shard_log(shard as usize)
                .cloned()
                .ok_or(RhError::Protocol("shard index out of range")),
            Backend::Replica(_) => {
                Err(RhError::Protocol("replicas do not ship the log; subscribe to the primary"))
            }
        }
    }

    /// Time-travel read (wire `ReadAsOf`): reenact the object's history
    /// at `as_of` from the owning shard's WAL, stitching coordinator
    /// decisions from every shard's log. No engine mutex is taken, so a
    /// long deep-history replay never stalls the write path.
    pub(crate) fn read_as_of(&self, ob: ObjectId, as_of: Lsn) -> Result<Value> {
        match self {
            Backend::Primary(db) => db.read_as_of(ob, as_of),
            Backend::Replica(set) => set.read_as_of(ob, as_of),
        }
    }

    /// Version timeline (wire `History`) rendered as a `history.v1`
    /// JSON document. Same no-engine-mutex property as
    /// [`Backend::read_as_of`].
    pub(crate) fn history_json(&self, ob: ObjectId, from: Lsn, to: Lsn) -> Result<String> {
        let r = match self {
            Backend::Primary(db) => db.reenact(ob, to, Purpose::History)?,
            Backend::Replica(set) => set.reenact(ob, to, Purpose::History)?,
        };
        Ok(r.to_json_range(from, r.as_of).render_pretty())
    }

    pub(crate) fn checkpoint(&self) -> Result<()> {
        match self {
            Backend::Primary(db) => db.checkpoint_all(),
            // A replica cannot checkpoint (it does not own the
            // database); drain just forces its local logs, best-effort
            // — a promoted-away set has nothing left to flush.
            Backend::Replica(set) => {
                let _ = set.flush();
                Ok(())
            }
        }
    }

    /// One-stop stats, rendered. No engine mutex: the registries are
    /// merge-summed across shards.
    pub(crate) fn stats_json(&self) -> String {
        match self {
            Backend::Primary(db) => db.stats().to_json().render_pretty(),
            Backend::Replica(set) => set.stats().to_json().render_pretty(),
        }
    }
}

/// State shared by the accept loop and every per-connection thread.
pub(crate) struct Shared {
    /// The engine backend (primary or replica). See the lock-order
    /// note in the module docs.
    pub(crate) backend: Backend,
    /// The backend's observability hub; `server.*` counters land here,
    /// which is what makes them visible to `ShardedDb::stats()` and the
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
/// use rh_core::sharded::ShardedDb;
/// use rh_server::{Server, ServerConfig};
///
/// let db = ShardedDb::from(RhDb::new(Strategy::Rh));
/// let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// server.run_until_shutdown();          // returns after a wire Shutdown op
/// let _db = server.shutdown().unwrap(); // drain: abort leftovers, checkpoint
/// ```
pub struct Server {
    shared: Arc<Shared>,
    service: TcpService,
    /// The flight recorder's black-box cadence: one thread per served
    /// primary, holding no engine mutex ([`ShardedDb::blackbox_tick`]).
    /// `None` on a replica, whose log must mirror its primary's exactly.
    cadence: Option<Sampler>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `db`, one
    /// shard or many: requests route by object id, single-shard
    /// transactions take the group-committed fast path, cross-shard ones
    /// commit through 2PC. The server owns the database until
    /// [`Server::shutdown`] returns it (or [`Server::force_stop`]
    /// simulates a kill-9).
    ///
    /// A fresh database freezes a "server-start" black box in every
    /// shard with a flight recorder (unforced: it rides the first
    /// commit's flush), so a post-crash incarnation's postmortem covers
    /// the serving period; one that came out of recovery or promotion
    /// already froze its own. From one [`rh_core::flight::CADENCE`]
    /// after the bind on, every shard whose log grew freezes another box
    /// per period, until the server stops.
    pub fn bind(addr: &str, db: ShardedDb, cfg: ServerConfig) -> std::io::Result<Server> {
        Self::bind_with_repl(addr, db, cfg, Arc::new(ReplRegistry::new()))
    }

    /// [`Server::bind`] with a caller-supplied replication registry, so
    /// the `/replication` introspection route (wired up before the
    /// database moves into the server) and the ship loops share one
    /// view.
    pub fn bind_with_repl(
        addr: &str,
        db: ShardedDb,
        cfg: ServerConfig,
        repl: Arc<ReplRegistry>,
    ) -> std::io::Result<Server> {
        let recovered = (0..db.shard_count()).any(|k| db.shard_recovery(k).is_some());
        if !recovered {
            db.freeze_blackbox_all("server-start");
        }
        let obs = Arc::clone(db.obs());
        let db = Arc::new(db);
        let mut server =
            Self::bind_backend(addr, Backend::Primary(Arc::clone(&db)), obs, recovered, cfg, repl)?;
        // The first tick comes one period after the bind, never on the
        // restart path the bind completes.
        server.cadence = Some(Sampler::spawn_after(
            rh_core::flight::CADENCE,
            Box::new(move || db.blackbox_tick()),
        ));
        Ok(server)
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
        Ok(Server { shared, service, cadence: None })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.service.local_addr()
    }

    /// The replication subscriber registry this server's ship loops
    /// report into (render it behind a `/replication` route).
    pub fn repl_registry(&self) -> Arc<ReplRegistry> {
        Arc::clone(&self.shared.repl)
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
    /// transactions abort in every shard they touched), checkpoint
    /// every shard, and hand the database back.
    ///
    /// The checkpoint moves the master records, so the next incarnation
    /// of this database must be opened from a surviving disk image —
    /// the normal path for a *graceful* stop. (Crash restarts instead
    /// rely on the masters staying NULL while serving: the server never
    /// checkpoints mid-flight.)
    pub fn shutdown(self) -> Result<ShardedDb> {
        match Self::drain(self)? {
            Backend::Primary(db) => {
                Arc::try_unwrap(db).map_err(|_| RhError::Protocol("database still shared at drain"))
            }
            Backend::Replica(_) => {
                Err(RhError::Protocol("a replica server drains with shutdown_replica"))
            }
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
            Backend::Primary(_) => Err(RhError::Protocol("a primary server drains with shutdown")),
        }
    }

    /// The common drain: refuse new work, close sessions, abort
    /// leftovers, checkpoint, and unwrap the shared state.
    fn drain(server: Server) -> Result<Backend> {
        let Server { shared, mut service, cadence } = server;
        drop(cadence);
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
            let _ = shared.backend.primary().and_then(|db| db.abort(*t));
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
    /// transactions, flushing the log tails, or checkpointing. Volatile
    /// state evaporates exactly as in [`ShardedDb::crash`]; recover the
    /// next incarnation from the stable logs (and disks) the caller
    /// kept, as a restarted machine would.
    pub fn force_stop(self) {
        let Server { shared, mut service, cadence } = self;
        drop(cadence);
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
