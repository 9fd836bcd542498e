//! Shared event and metric names.
//!
//! The tracer and registry key everything by `&'static str`; these
//! constants keep the producers (engine, recovery passes, WAL) and the
//! consumers (invariant observers, JSON artifacts, tests) in one
//! vocabulary. The `log.*` / `disk.*` / `lock.*` metric names are filled
//! by the per-crate snapshot exporters; `scope.*` and `recovery.*` are
//! maintained directly by the core engine.

// ---- span names -------------------------------------------------------

/// Whole restart recovery (forward + backward + termination).
pub const SPAN_RECOVERY: &str = "recovery";
/// The forward pass (analysis + redo).
pub const SPAN_FORWARD: &str = "forward_pass";
/// The backward pass (cluster sweep + undo).
pub const SPAN_BACKWARD: &str = "backward_pass";
/// One checkpoint (flush + begin/end records + master move).
pub const SPAN_CHECKPOINT: &str = "checkpoint";
/// One abort's undo sweep during normal processing.
pub const SPAN_ABORT: &str = "abort";
/// One partial rollback (savepoint) sweep.
pub const SPAN_ROLLBACK: &str = "rollback_to";

// ---- point-event names ------------------------------------------------

/// One record examined by the backward sweep; `lsn_lo` = position.
pub const EV_UNDO_VISIT: &str = "undo_visit";
/// One update undone (CLR written); `lsn_lo` = compensated LSN,
/// `payload` = CLR LSN.
pub const EV_UNDO_CLR: &str = "undo_clr";
/// The sweep jumped over an inter-cluster gap; `lsn_lo`/`lsn_hi` bound
/// the *skipped* records exclusive/exclusive, `payload` = distance.
pub const EV_GAP_SKIP: &str = "gap_skip";
/// A new cluster was entered; `lsn_hi` = its right end.
pub const EV_CLUSTER_START: &str = "cluster_start";
/// A delegation during normal processing; `txn` = delegator,
/// `payload` = delegatee, `lsn_lo` = delegate-record LSN.
pub const EV_DELEGATE: &str = "delegate";
/// A delegate record replayed by the forward pass.
pub const EV_DELEGATE_REPLAY: &str = "delegate_replay";
/// An in-place log rewrite (baselines only); `lsn_lo` = position.
pub const EV_REWRITE: &str = "rewrite_in_place";
/// A responsibility hop appended to an object's provenance chain;
/// `lsn_lo` = delegate-record LSN, `lsn_hi` = object id, `txn` =
/// delegator, `payload` = delegatee. Emitted during normal processing
/// and again when the forward pass rebuilds the chain from the log.
pub const EV_PROVENANCE_HOP: &str = "provenance_hop";
/// A flight-recorder black box was appended to the log; `lsn_lo` =
/// `lsn_hi` = its LSN, `payload` = encoded record bytes.
pub const EV_BLACKBOX_RECORD: &str = "blackbox_record";
/// A group of records reached stable storage; `payload` = record count.
pub const EV_LOG_FLUSH: &str = "log_flush";
/// A page left the pool for stable storage; `payload` = page id.
pub const EV_PAGE_FLUSH: &str = "page_flush";
/// Forward-pass progress: updates/CLRs reapplied so far; `payload` =
/// running redone count. Emitted so a `/timeseries` scrape during a long
/// recovery shows redo advancing, not just a final total.
pub const EV_PAGES_REDONE: &str = "pages_redone";

// ---- phase-timer names (request latency attribution) -------------------
// Phase timers are emitted as *point* events whose `payload` is the
// phase's duration in microseconds, `txn` is the transaction they belong
// to, and `lsn_lo` carries the client-assigned trace id (or `NONE`).
// Points rather than retroactive spans because the tracer stamps
// timestamps inside the ring lock — a span cannot be back-dated to when
// the phase actually began. `rh-trace` stitches them into waterfalls by
// (trace id, txn).

/// Time a decoded request waited in its session's queue before the
/// session started executing it (about 0 for a client with one request
/// outstanding; pipelined requests wait for the ones ahead of them).
pub const PH_QUEUE_WAIT: &str = "phase.queue_wait";
/// Engine-mutex phase of a single-engine commit: mutex acquisition plus
/// ETM bookkeeping, *excluding* `commit_prepare` (reported separately so
/// the two never overlap).
pub const PH_ENGINE_HOLD: &str = "phase.engine_hold";
/// The `commit_prepare` body (commit record append + lock release) under
/// the engine mutex.
pub const PH_COMMIT_PREPARE: &str = "phase.commit_prepare";
/// Group-commit flush wait: from mutex release to the commit LSN being
/// durable.
pub const PH_FLUSH_WAIT: &str = "phase.flush_wait";
/// One participant's 2PC `Prepare` force (prepare record + flush), on
/// the participant shard.
pub const PH_2PC_PREPARE: &str = "phase.twopc.prepare_force";
/// The coordinator's `CoordCommit` force — the 2PC commit point.
pub const PH_2PC_COORD: &str = "phase.twopc.coord_force";
/// One participant's lazy catch-up (`resolve_prepared`) after the
/// coordinator decided.
pub const PH_2PC_RESOLVE: &str = "phase.twopc.lazy_catchup";
/// Server-side service time the instrumented phases do not cover:
/// dispatch, router orchestration between forces, reply serialization.
/// Emitted as `service_total - sum(other phases)` so a waterfall's sum
/// accounts for the whole service interval, not just the named pieces.
pub const PH_SERVE_OTHER: &str = "phase.serve_other";

// ---- phase histograms --------------------------------------------------

/// Histogram: request queue wait, microseconds.
pub const M_SRV_QUEUE_US: &str = "server.queue_us";
/// Histogram: engine-mutex phase of a commit (excluding
/// `commit_prepare`), microseconds.
pub const M_SRV_ENGINE_US: &str = "server.engine_us";
/// Histogram: `commit_prepare` under the engine mutex, microseconds.
pub const M_SRV_COMMIT_PREPARE_US: &str = "server.commit_prepare_us";
/// Histogram: group-commit flush wait, microseconds.
pub const M_SRV_FLUSH_US: &str = "server.flush_us";
/// Histogram: per-participant 2PC `Prepare` force, microseconds.
pub const M_SHARD_PREPARE_US: &str = "shard.twopc.prepare_us";
/// Histogram: coordinator `CoordCommit` force, microseconds.
pub const M_SHARD_COORD_US: &str = "shard.twopc.coord_us";
/// Histogram: per-participant lazy catch-up, microseconds.
pub const M_SHARD_RESOLVE_US: &str = "shard.twopc.resolve_us";

// ---- time-series / slow-op log ----------------------------------------

/// Samples appended to the time-series ring (including marks).
pub const M_TS_SAMPLES: &str = "timeseries.samples";
/// Operations admitted to the slow-op log (over threshold, kept or
/// displacing a faster entry).
pub const M_SLOWOPS_RECORDED: &str = "slowops.recorded";
/// Histogram: elapsed time from server start to the first commit
/// acknowledged after a restart recovery, microseconds (ROADMAP item 2's
/// time-to-first-ack hook; observed once per recovered process).
pub const M_RECOVERY_FIRST_ACK_US: &str = "recovery.first_ack_us";

// ---- reenactment (time-travel reads) ----------------------------------

/// Reenactment queries answered (`read_as_of` + `history`).
pub const M_REENACT_QUERIES: &str = "reenact.queries";
/// Log records read by reenactment queries (seed checkpoint, the
/// object's own records and its transactions' outcome records, pre-seed
/// reconstruction); index ingest is counted separately.
pub const M_REENACT_RECORDS: &str = "reenact.records_scanned";
/// Replays that seeded from a checkpoint value overlay (the rest
/// replayed from the log's first record).
pub const M_REENACT_SEEDED: &str = "reenact.checkpoint_seeded";
/// Committed versions returned by reenactment queries.
pub const M_REENACT_VERSIONS: &str = "reenact.versions";
/// Log records read into the time-travel index (each record once per
/// log incarnation; queries ingest only up to the LSN they ask about).
pub const M_REENACT_INDEX_INGESTED: &str = "reenact.index.ingested";
/// Gauge: LSNs the time-travel index currently holds across its
/// per-object, per-transaction and checkpoint lists.
pub const M_REENACT_INDEX_ENTRIES: &str = "reenact.index.entries";
/// In-doubt transactions a reenactment resolved against another shard's
/// durable coordinator decision (cross-shard history stitching).
pub const M_REENACT_CROSS_SHARD_DECISIONS: &str = "reenact.cross_shard_decisions";
/// Audit reenactment queries whose answer disagreed with the
/// acked-effects oracle (must stay zero).
pub const M_AUDIT_DIVERGENCES: &str = "audit.divergences";

// ---- time-series mark labels ------------------------------------------
// Marks are sample annotations in the `/timeseries` ring: a sample taken
// at a named moment rather than by the periodic cadence.

/// Recovery started (sample taken before the forward pass).
pub const TS_RECOVERY_START: &str = "recovery.start";
/// Forward pass (analysis + redo) completed.
pub const TS_RECOVERY_FORWARD: &str = "recovery.forward_done";
/// Backward pass (undo) completed.
pub const TS_RECOVERY_UNDO: &str = "recovery.undo_done";
/// Recovery fully completed (losers terminated, log forced).
pub const TS_RECOVERY_DONE: &str = "recovery.done";
/// A replica finished promotion and opened for writes.
pub const TS_REPL_PROMOTE: &str = "repl.promote";

// ---- metric names -----------------------------------------------------

/// Scopes opened (first update of an invoker on an object).
pub const M_SCOPE_OPENS: &str = "scope.opens";
/// Scopes extended by a further update.
pub const M_SCOPE_EXTENDS: &str = "scope.extends";
/// Scopes merged into a delegatee's `Ob_List` entry.
pub const M_SCOPE_MERGES: &str = "scope.merges";
/// Scopes split/truncated by a partial rollback.
pub const M_SCOPE_SPLITS: &str = "scope.splits";
/// Delegate operations issued during normal processing.
pub const M_SCOPE_DELEGATES: &str = "scope.delegates";
/// Delegate records replayed by the forward pass.
pub const M_SCOPE_DELEGATE_REPLAYS: &str = "scope.delegate_replays";
/// Provenance hops recorded (one per object actually transferred by a
/// delegation, in normal processing or forward-pass replay).
pub const M_PROVENANCE_HOPS: &str = "scope.provenance.hops";
/// Histogram: an object's responsibility-chain depth, observed after
/// each hop is appended.
pub const M_PROVENANCE_CHAIN_DEPTH: &str = "scope.provenance.chain_depth";

/// Flight-recorder black boxes appended to the log.
pub const M_BLACKBOX_RECORDS: &str = "blackbox.records";
/// Encoded bytes of the black boxes appended to the log.
pub const M_BLACKBOX_BYTES: &str = "blackbox.bytes";
/// Black-box forces that failed (the black box is strictly
/// best-effort: a failure never reaches the engine).
pub const M_BLACKBOX_ERRORS: &str = "blackbox.errors";

/// Histogram: forward-pass wall clock, microseconds.
pub const M_RECOVERY_FORWARD_US: &str = "recovery.forward_us";
/// Histogram: backward-pass wall clock, microseconds.
pub const M_RECOVERY_UNDO_US: &str = "recovery.undo_us";
/// Histogram: whole-recovery wall clock, microseconds.
pub const M_RECOVERY_TOTAL_US: &str = "recovery.total_us";
/// Histogram: LSN distance between consecutive backward-sweep visits
/// (1 = adjacent; larger values are cluster-gap jumps).
pub const M_UNDO_LSN_JUMP: &str = "undo.lsn_jump";
/// Counter: recoveries performed.
pub const M_RECOVERY_RUNS: &str = "recovery.runs";

// ---- absorbed snapshot names ------------------------------------------
// Set (absolutely, not incremented) by the per-crate `export_into`
// exporters. They live here rather than in the exporting crates so every
// name literal in the workspace resolves to exactly one constant — the
// `rh-analyze` L3 lint enforces this.

/// Records appended to the log.
pub const M_LOG_APPENDS: &str = "log.appends";
/// Physical log flushes (group commits).
pub const M_LOG_FLUSHES: &str = "log.flushes";
/// Records made durable by flushes.
pub const M_LOG_RECORDS_FLUSHED: &str = "log.records_flushed";
/// Records read back from the log.
pub const M_LOG_RECORDS_READ: &str = "log.records_read";
/// Positioned reads of log segment files (reads and scans).
pub const M_LOG_STABLE_READS: &str = "log.stable_reads";
/// Non-sequential log accesses.
pub const M_LOG_SEEKS: &str = "log.seeks";
/// In-place log rewrites (zero under ARIES/RH; the baselines pay these).
pub const M_LOG_IN_PLACE_REWRITES: &str = "log.in_place_rewrites";
/// Physical fsyncs issued by the log backend.
pub const M_LOG_FSYNCS: &str = "log.fsyncs";
/// Bytes made durable by flushes.
pub const M_LOG_BYTES_FLUSHED: &str = "log.bytes_flushed";

/// Pages read from stable storage into the pool.
pub const M_DISK_PAGE_READS: &str = "disk.page_reads";
/// Pages written from the pool to stable storage.
pub const M_DISK_PAGE_WRITES: &str = "disk.page_writes";

/// Lock grants (upgrades and re-grants included).
pub const M_LOCK_ACQUISITIONS: &str = "lock.acquisitions";
/// Immediate-mode conflicts surfaced to callers.
pub const M_LOCK_CONFLICTS: &str = "lock.conflicts";
/// Blocking waits entered.
pub const M_LOCK_WAITS: &str = "lock.waits";
/// Microseconds spent parked in blocking waits.
pub const M_LOCK_WAIT_MICROS: &str = "lock.wait_micros";
/// Deadlocks detected (requester chosen as victim).
pub const M_LOCK_DEADLOCKS: &str = "lock.deadlocks";
/// Lock transfers applied by delegation.
pub const M_LOCK_TRANSFERS: &str = "lock.transfers";
/// ASSET permits granted.
pub const M_LOCK_PERMITS: &str = "lock.permits";

/// EOS batches flushed to the global log.
pub const M_EOS_BATCHES_FLUSHED: &str = "eos.batches_flushed";
/// EOS items flushed.
pub const M_EOS_ITEMS_FLUSHED: &str = "eos.items_flushed";
/// EOS items reapplied by recovery sweeps.
pub const M_EOS_ITEMS_REPLAYED: &str = "eos.items_replayed";
/// EOS items discarded by aborts / crashes (never logged).
pub const M_EOS_ITEMS_DISCARDED: &str = "eos.items_discarded";

// ---- network front-end (rh-server) ------------------------------------
// Maintained directly by `rh-server` in the router's registry; exported
// through `ShardedDb::stats()` and the `/stats` introspection route.

/// Sessions accepted by the front-end (hello exchanged).
pub const M_SRV_SESSIONS_OPENED: &str = "server.sessions.opened";
/// Sessions refused by admission control (hello answered BUSY).
pub const M_SRV_SESSIONS_REJECTED: &str = "server.sessions.rejected";
/// Sessions fully closed (socket gone, open transactions resolved).
pub const M_SRV_SESSIONS_CLOSED: &str = "server.sessions.closed";
/// Gauge: sessions currently registered.
pub const M_SRV_SESSIONS_ACTIVE: &str = "server.sessions.active";
/// Requests decoded off the wire (admitted or bounced).
pub const M_SRV_REQUESTS: &str = "server.requests";
/// Replies answered BUSY because the per-connection pipeline was full.
pub const M_SRV_REPLIES_BUSY: &str = "server.replies.busy";
/// Replies carrying an engine error.
pub const M_SRV_REPLIES_ERR: &str = "server.replies.err";
/// Commits acknowledged to clients (durable on ack).
pub const M_SRV_COMMITS: &str = "server.commits";
/// Open transactions aborted because their session closed.
pub const M_SRV_TXNS_ABORTED_ON_CLOSE: &str = "server.txns.aborted_on_close";
/// Graceful drains performed (abort leftovers, checkpoint, stop).
pub const M_SRV_DRAINS: &str = "server.drains";
/// Histogram: per-request service time (engine work + reply encode),
/// microseconds.
pub const M_SRV_REQUEST_US: &str = "server.request_us";

/// Histogram: client-observed commit round trip (request write to
/// durable ack), microseconds. Maintained by the `rh-client` load
/// generator in its own registry.
pub const M_CLIENT_COMMIT_US: &str = "client.commit_us";
/// Histogram: client-observed non-commit operation round trip,
/// microseconds.
pub const M_CLIENT_OP_US: &str = "client.op_us";

// ---- sharded engine (rh-core::sharded) --------------------------------
// Maintained by the cross-shard router registry; per-shard engine series
// keep their usual names and are merge-summed into the unified view.

/// Cross-shard transactions committed through two-phase commit.
pub const M_SHARD_2PC_COMMITS: &str = "shard.twopc.commits";
/// Participant `Prepare` records forced (phase one votes).
pub const M_SHARD_2PC_PREPARES: &str = "shard.twopc.prepares";
/// Transactions that touched more than one shard (committed or not).
pub const M_SHARD_CROSS_TXNS: &str = "shard.cross.txns";
/// In-doubt transactions resolved by sharded recovery (committed or
/// presumed-aborted against the unioned coordinator records). Always
/// present (possibly zero) after a sharded recovery, so crash-cycle CI
/// can assert on it.
pub const M_SHARD_INDOUBT_RESOLVED: &str = "shard.indoubt.resolved";
/// Of the resolved in-doubt transactions, how many committed.
pub const M_SHARD_INDOUBT_COMMITTED: &str = "shard.indoubt.committed";
/// Coordinator decisions retired at a checkpoint: every participant's
/// Commit record was durable, so snapshots stop carrying the decision.
pub const M_SHARD_2PC_RETIRED: &str = "shard.twopc.retired";
/// Cross-shard commit attempts rolled back (presumed abort) after a real
/// failure before the coordinator decision record existed.
pub const M_SHARD_2PC_UNWOUND: &str = "shard.twopc.unwound";

// ---- replication (log shipping + read replicas) -----------------------
// Primary-side `repl.ship.*` counters are maintained by the rh-server
// shipping endpoint; replica-side `repl.apply.*` / `repl.promote.*` by
// `rh-core::replica`. Lag gauges are computed at `/replication` render
// time from subscriber state.

/// Log records shipped to subscribers (one per `ReplMsg::Frame`).
pub const M_REPL_FRAMES_SHIPPED: &str = "repl.ship.frames";
/// Heartbeats shipped to subscribers (nothing to ship, primary alive).
pub const M_REPL_HEARTBEATS: &str = "repl.ship.heartbeats";
/// Progress acks received from subscribers.
pub const M_REPL_ACKS: &str = "repl.ship.acks";
/// Gauge: live log-shipping subscribers.
pub const M_REPL_SUBSCRIBERS: &str = "repl.ship.subscribers";
/// Log records applied by the replica's perpetual forward pass.
pub const M_REPL_FRAMES_APPLIED: &str = "repl.apply.frames";
/// Shipped frames a replica rejected (out-of-order LSN, undecodable
/// record). Each one kills the subscription; reconnect resumes cleanly.
pub const M_REPL_APPLY_ERRORS: &str = "repl.apply.errors";
/// Replica reconnects to the primary (resume-from-`applied_lsn`).
pub const M_REPL_RECONNECTS: &str = "repl.apply.reconnects";
/// Staleness-bounded reads that waited for the forward pass to catch up
/// to their `min_lsn` (satisfied within the deadline).
pub const M_REPL_STALENESS_WAITS: &str = "repl.read.staleness_waits";
/// Staleness-bounded reads that hit the wait deadline and returned
/// `ReplLagging` instead of stale data.
pub const M_REPL_STALENESS_TIMEOUTS: &str = "repl.read.staleness_timeouts";
/// Promotions performed (replica → writable primary).
pub const M_REPL_PROMOTIONS: &str = "repl.promotions";
/// Histogram: promotion wall clock (finish forward pass + backward pass
/// + open for writes), microseconds.
pub const M_REPL_PROMOTE_US: &str = "repl.promote_us";

/// ETM dependency edges accepted.
pub const M_ETM_EDGES_FORMED: &str = "etm.edges_formed";
/// ETM dependency requests rejected as cycles.
pub const M_ETM_CYCLES_REJECTED: &str = "etm.cycles_rejected";
/// ETM cascading aborts scheduled.
pub const M_ETM_CASCADE_ABORTS: &str = "etm.cascade_aborts";

// ---- lock-witness (compat parking_lot::witness) -----------------------
// Site names given to `Mutex::named` / `RwLock::named` at construction.
// Each value is the lock's identity in the witness's observed-edge graph
// and hold-time report, and MUST equal the static analyzer's inferred id
// for the same lock (`<crate>.<field>`): `rh-analyze --lock-graph`
// unifies the two graphs by these strings, and an unwitnessed rename
// shows up as an unpredicted dynamic edge. The `fixture.` prefix is
// reserved for deliberate test rigs and excluded from exports.

/// The server's session table.
pub const LS_SERVER_SESSIONS: &str = "server.sessions";
/// The server's reaper-thread join handles.
pub const LS_SERVER_REAPERS: &str = "server.reapers";
/// The server's stop flag (condvar-coupled).
pub const LS_SERVER_STOP_FLAG: &str = "server.stop_flag";
/// The segmented file log's segment map + active segment.
pub const LS_WAL_STATE: &str = "wal.state";
/// The master (checkpoint) record cell.
pub const LS_WAL_MASTER: &str = "wal.master";
/// The stable log's volatile tail.
pub const LS_WAL_INNER: &str = "wal.inner";
/// The group-commit leader/follower state (condvar-coupled).
pub const LS_WAL_SYNC_STATE: &str = "wal.sync_state";
/// The in-memory log backend's record vector.
pub const LS_WAL_RECORDS: &str = "wal.records";
/// The in-memory log backend's truncation base.
pub const LS_WAL_BASE: &str = "wal.base";
/// The log's time-travel index (ingest + lookups; taken before any
/// other log lock).
pub const LS_WAL_INDEX: &str = "wal.index";
/// A shard's engine mutex (ranked: the router may hold several in
/// ascending shard order).
pub const LS_CORE_ENGINE: &str = "core.engine";
/// The cross-shard router's global-transaction table.
pub const LS_CORE_GTXNS: &str = "core.gtxns";
/// The provenance table behind delegation chains.
pub const LS_CORE_PROV: &str = "core.prov";
/// The captured postmortem report cell.
pub const LS_CORE_POSTMORTEM: &str = "core.postmortem";
/// The router's 2PC fault-injection plan cell.
pub const LS_CORE_FAULT: &str = "core.fault";
/// The router's retired-decision scratch list.
pub const LS_CORE_RETIRE: &str = "core.retire";
/// The router's introspection-server handle cell.
pub const LS_CORE_SERVER: &str = "core.server";
/// The router's cadence-sampler handle cell.
pub const LS_CORE_SAMPLER: &str = "core.sampler";
/// A replica's engine-in-forward-pass state (condvar-coupled: apply
/// notifies staleness-bounded readers).
pub const LS_CORE_REPLICA: &str = "core.replica";
/// The shipping endpoint's subscriber registry (`/replication` source).
pub const LS_SRV_SUBSCRIBERS: &str = "server.subscribers";
/// The EOS global log's pending commit batches.
pub const LS_EOS_BATCHES: &str = "eos.batches";
/// The EOS global log's applied-value snapshot.
pub const LS_EOS_SNAPSHOT: &str = "eos.snapshot";
/// The lock manager's whole-table state (condvar-coupled).
pub const LS_LOCKMGR_STATE: &str = "lockmgr.state";
/// The in-memory disk's page map (rwlock).
pub const LS_STORAGE_PAGES: &str = "storage.pages";

/// Sub-histogram name: the `commit_prepare` slice of an engine-mutex
/// hold, attributed via `witness::note_hold`.
pub const LW_SUB_COMMIT_PREPARE: &str = "commit_prepare";

// ---- lock-witness aggregates (bridged by rh-core) ---------------------
// The witness itself is dependency-free; `rh-core` copies these
// aggregates out of its snapshot into the metrics registry on each
// sampler tick so `/metrics` and the time-series ring see them.

/// Gauge: lock sites interned by the witness.
pub const M_LW_SITES: &str = "lockwitness.sites";
/// Acquisitions witnessed across all sites.
pub const M_LW_ACQUIRES: &str = "lockwitness.acquires";
/// Guard releases witnessed (hold-time observations).
pub const M_LW_RELEASES: &str = "lockwitness.releases";
/// Distinct nesting edges observed.
pub const M_LW_EDGES: &str = "lockwitness.edges";
/// Deadlock cycles diagnosed at runtime (each aborted a thread).
pub const M_LW_CYCLES: &str = "lockwitness.cycles";
