//! Restart recovery (paper §3.6): the same two passes as ARIES —
//! forward (analysis + redo, "repeating history") and backward (undo) —
//! with delegation realized by *interpreting* the log through the
//! reconstructed scope tables instead of rewriting it.

pub mod backward;
pub mod clusters;
pub mod forward;

pub use backward::{undo_scopes, UndoStats, WalkScope};
pub use forward::{forward_pass, ForwardOutcome, ForwardStats, LazyScopes};

use crate::engine::{DbConfig, RhDb, Strategy};
use crate::scope::Scope;
use crate::txn_table::{TrList, TxnStatus};
use rh_common::{Lsn, ObjectId, Result, TxnId};
use rh_obs::{blackbox, names, BlackBoxRecord, JsonValue, Obs, Stopwatch};
use rh_storage::{BufferPool, Disk};
use rh_wal::metrics::LogMetricsSnapshot;
use rh_wal::record::RecordBody;
use rh_wal::{LogManager, StableLog};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// What a completed recovery did — consumed by tests and the E3/E4/E6
/// experiments.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Forward-pass statistics.
    pub forward: ForwardStats,
    /// Backward-pass statistics.
    pub undo: UndoStats,
    /// Transactions rolled back by this recovery.
    pub losers: Vec<TxnId>,
    /// Transactions left **in doubt**: a 2PC `Prepare` record with no
    /// local decision. They stay in the table (status `Prepared`) for the
    /// sharded resolver; empty for unsharded databases.
    pub indoubt: Vec<TxnId>,
    /// Coordinator commit decisions found in this log, with their
    /// participant shard lists.
    pub coord_commits: Vec<(TxnId, Vec<u32>)>,
    /// Transactions whose commit records were seen (winners).
    pub winners_seen: u64,
    /// Wall clock for the whole recovery (attach through log force),
    /// split into `forward_wall`, `undo_wall`, `open_wall` and
    /// `force_wall`.
    pub elapsed: Duration,
    /// Wall clock for the forward pass alone.
    pub forward_wall: Duration,
    /// Wall clock for the backward pass alone.
    pub undo_wall: Duration,
    /// Wall clock from the backward pass to the final force: loser
    /// termination, engine open, the predecessor postmortem and this
    /// incarnation's first black box.
    pub open_wall: Duration,
    /// Wall clock for the final log force.
    pub force_wall: Duration,
    /// Log activity attributable to this recovery (snapshot delta).
    pub log_delta: LogMetricsSnapshot,
    /// Disk activity attributable to this recovery (snapshot delta).
    pub disk_delta: rh_storage::DiskMetricsSnapshot,
    /// Predecessor diff: the newest black box the forward pass met in
    /// the log (final spans, counters at freeze time) against
    /// post-recovery state. `None` when the log holds no box (a fresh or
    /// mem-backed log) or the newest one does not parse — a damaged box
    /// costs the postmortem, never the recovery.
    pub postmortem: Option<JsonValue>,
}

/// Collects the scopes the backward pass must walk. For RH: exactly the
/// loser scopes ("It is enough to inspect records within the loser
/// scopes to find all loser updates", §3.6.2). The lazy baseline
/// (`lazy_scopes` present) additionally walks every *delegated* scope —
/// winners included — because it physically rewrites the log to reflect
/// the delegations (§3.2). A scope's identity is (object, invoker,
/// first-LSN); the live table's version is preferred (it may have been
/// extended after a delegation back).
fn collect_walk_scopes(
    tr: &TrList,
    losers: &[TxnId],
    lazy_scopes: Option<&LazyScopes>,
) -> Result<Vec<WalkScope>> {
    let loser_set: HashSet<TxnId> = losers.iter().copied().collect();
    let mut scopes: Vec<WalkScope> = Vec::new();
    for &t in losers {
        for (ob, scope) in tr.get(t)?.ob_list.all_scopes() {
            scopes.push(WalkScope { owner: t, ob, scope, loser: true });
        }
    }
    if let Some(lazy_scopes) = lazy_scopes {
        let present: HashSet<(ObjectId, TxnId, Lsn)> =
            scopes.iter().map(|ws| (ws.ob, ws.scope.invoker, ws.scope.first)).collect();
        for (&(ob, invoker, first), &(last, owner)) in lazy_scopes {
            if present.contains(&(ob, invoker, first)) {
                continue;
            }
            scopes.push(WalkScope {
                owner,
                ob,
                scope: Scope { invoker, first, last },
                loser: loser_set.contains(&owner),
            });
        }
    }
    Ok(scopes)
}

/// Terminates the losers (Abort if not already aborted, then End) and
/// Ends committed transactions whose End record was lost in the crash,
/// draining the table down to the in-doubt survivors. The caller forces
/// the log afterwards.
fn terminate_losers(log: &LogManager, tr: &mut TrList, losers: &[TxnId]) -> Result<()> {
    for &t in losers {
        if tr.get(t)?.status != TxnStatus::Aborted {
            let prev = tr.bc(t)?;
            let lsn = log.append(t, prev, RecordBody::Abort);
            tr.set_bc(t, lsn)?;
        }
        let prev = tr.bc(t)?;
        log.append(t, prev, RecordBody::End);
        tr.remove(t);
    }
    for t in tr.with_status(TxnStatus::Committed) {
        let prev = tr.bc(t)?;
        log.append(t, prev, RecordBody::End);
        tr.remove(t);
    }
    Ok(())
}

/// An engine whose forward pass has run: the log and pages it repeated
/// history on, and the state it rebuilt. Restart recovery holds one
/// between its two passes; a read replica holds one for as long as it
/// follows a primary (`crate::replica`). Both end through
/// [`Analyzed::finish`].
pub(crate) struct Analyzed {
    pub(crate) strategy: Strategy,
    pub(crate) config: DbConfig,
    pub(crate) log: Arc<LogManager>,
    pub(crate) disk: Arc<Disk>,
    pub(crate) pool: BufferPool,
    pub(crate) fwd: ForwardOutcome,
    pub(crate) obs: Arc<Obs>,
}

impl Analyzed {
    /// Attaches to `stable` and runs the forward pass over the whole
    /// retained log, from the master's checkpoint if there is one.
    pub(crate) fn open(
        strategy: Strategy,
        config: DbConfig,
        stable: Arc<StableLog>,
        disk: Arc<Disk>,
        obs: Arc<Obs>,
    ) -> Result<Self> {
        let log = Arc::new(LogManager::attach(stable));
        let mut pool = BufferPool::new(Arc::clone(&disk), config.pool_pages);
        let fwd = forward_pass(&log, &mut pool, strategy == Strategy::LazyRewrite, &obs)?;
        Ok(Analyzed { strategy, config, log, disk, pool, fwd, obs })
    }

    /// The backward tail restart recovery and replica promotion share:
    /// undo the loser scopes, terminate the losers, open the engine with
    /// its flight recorder, diff the newest black box the forward pass
    /// met against the recovered state, freeze this incarnation's first
    /// box (tagged `reason`), and force the log — which makes that box
    /// durable without a force of its own. Returns the engine and its
    /// report; `elapsed` runs from `started` to the log force, and the
    /// log and disk deltas from the given snapshots. The report's
    /// `forward_wall` is left for the caller.
    pub(crate) fn finish(
        self,
        started: &Stopwatch,
        log_before: &LogMetricsSnapshot,
        disk_before: &rh_storage::DiskMetricsSnapshot,
        reason: &str,
    ) -> Result<(RhDb, RecoveryReport)> {
        let Analyzed { strategy, config, log, disk, mut pool, mut fwd, obs } = self;
        let lazy = strategy == Strategy::LazyRewrite;
        let (tr, compensated) = (&mut fwd.tr, &mut fwd.compensated);
        let losers = tr.losers();
        let scopes = collect_walk_scopes(tr, &losers, fwd.lazy_scopes.as_ref())?;
        let undo_started = Stopwatch::start();
        let undo = undo_scopes(&log, &mut pool, tr, scopes, compensated, lazy, &obs)?;
        let undo_wall = undo_started.elapsed();
        obs.registry.observe(names::M_RECOVERY_UNDO_US, undo_wall.as_micros() as u64);
        let open_started = Stopwatch::start();
        terminate_losers(&log, tr, &losers)?;
        // Only in-doubt (2PC-prepared) transactions may survive; the
        // sharded resolver terminates them once every shard's decision
        // records have been unioned.
        let indoubt = tr.with_status(TxnStatus::Prepared);
        debug_assert!(tr.len() == indoubt.len(), "the tail must drain all but the in-doubt");

        let mut db = RhDb::from_parts(strategy, config, log, disk, pool, fwd.tr, fwd.next_txn, obs);
        db.set_provenance(fwd.prov);
        // Decisions survive into the new incarnation's checkpoints until
        // the sharded resolver retires them (unsharded logs never have
        // any).
        db.set_coord_decisions(&fwd.coord_commits);
        db.attach_flight_recorder();
        // The predecessor's box is parsed only now, once, after both
        // passes.
        let postmortem = fwd
            .newest_box
            .and_then(|(lsn, payload)| BlackBoxRecord::parse(lsn.raw(), &payload))
            .map(|pred| blackbox::postmortem(&pred, &db.stats(), blackbox::DEFAULT_FINAL_EVENTS));
        if let Some(pm) = &postmortem {
            db.set_postmortem(pm.clone());
        }
        db.freeze_blackbox(reason);
        let open_wall = open_started.elapsed();
        let force_started = Stopwatch::start();
        db.log().flush_all()?;
        let force_wall = force_started.elapsed();
        let report = RecoveryReport {
            winners_seen: fwd.stats.commits_seen,
            forward: fwd.stats,
            undo,
            losers,
            indoubt,
            coord_commits: fwd.coord_commits,
            elapsed: started.elapsed(),
            forward_wall: Duration::ZERO,
            undo_wall,
            open_wall,
            force_wall,
            log_delta: db.log().metrics().snapshot().since(log_before),
            disk_delta: db.disk().metrics().snapshot().since(disk_before),
            postmortem,
        };
        Ok((db, report))
    }
}

/// Runs restart recovery and returns a ready-to-use engine.
///
/// Steps (Fig. 3): attach to the stable log, forward pass from the last
/// checkpoint (analysis + redo), then the backward tail shared with
/// replica promotion ([`Analyzed::finish`]): backward pass over
/// loser-scope clusters, abort/end records for the losers, the
/// predecessor postmortem and a "recovery" black box, log force.
pub fn recover(
    strategy: Strategy,
    config: DbConfig,
    stable: Arc<StableLog>,
    disk: Arc<Disk>,
) -> Result<RhDb> {
    let obs = Arc::new(Obs::new());
    let started = Stopwatch::start();
    let span = obs.tracer.span(names::SPAN_RECOVERY);
    // Recovery progress is first-class telemetry: each pass boundary
    // pins a *marked* sample into the time-series ring, so once this
    // obs context becomes the recovered engine's, `/timeseries` shows
    // the recovery era alongside live serving samples.
    obs.mark_timeseries(names::TS_RECOVERY_START);
    let disk_before = disk.metrics().snapshot();

    // ---- forward pass (analysis + redo) ------------------------------
    let fwd_started = Stopwatch::start();
    let analyzed = Analyzed::open(strategy, config, stable, disk, Arc::clone(&obs))?;
    let forward_wall = fwd_started.elapsed();
    obs.mark_timeseries(names::TS_RECOVERY_FORWARD);
    {
        use rh_obs::trace::NONE;
        span.point(names::EV_PAGES_REDONE, NONE, NONE, NONE, analyzed.fwd.stats.redone);
    }
    // Observed before the backward tail, so the "recovery" black box it
    // freezes carries the run and both passes' wall clocks.
    obs.registry.inc(names::M_RECOVERY_RUNS);
    obs.registry.observe(names::M_RECOVERY_FORWARD_US, forward_wall.as_micros() as u64);

    // ---- backward pass, termination, black box, log force ---------------
    // The log was attached fresh, so all of its counts are this recovery's.
    let log_before = LogMetricsSnapshot::default();
    let (mut db, mut report) = analyzed.finish(&started, &log_before, &disk_before, "recovery")?;
    drop(span);
    obs.mark_timeseries(names::TS_RECOVERY_UNDO);
    obs.registry.observe(names::M_RECOVERY_TOTAL_US, report.elapsed.as_micros() as u64);
    obs.mark_timeseries(names::TS_RECOVERY_DONE);
    report.forward_wall = forward_wall;
    db.set_recovery_report(report);
    Ok(db)
}
