//! Engine 2 — the small-scope model checker.
//!
//! The property tests sample histories; this module *exhausts* them.
//! Within explicit bounds (≤3 transactions, ≤2 objects, ≤6 events —
//! the small-scope hypothesis: real protocol bugs show up in small
//! counterexamples), every well-formed interleaving of
//! update/delegate/commit/abort is enumerated via
//! [`rh_workload::enumerate`], a crash is appended at every prefix —
//! i.e. at every LSN — and full ARIES/RH recovery runs against the
//! log-free [`Oracle`] reference semantics of paper §2.1.
//!
//! Checked per history, per strategy:
//!
//! * **final state** — every touched object's value after recovery
//!   equals the oracle's (losers undone, winners preserved, delegated
//!   updates follow their *final* responsible transaction);
//! * **undone-update set** — the backward pass undid exactly the
//!   oracle's live loser updates, no more (over-undo corrupts winners),
//!   no fewer (under-undo leaks losers); ARIES/RH strategy only — the
//!   lazy baseline rewrites instead of compensating;
//! * **trace invariants** — the recovery trace passes the rh-obs
//!   observers: strictly monotone backward sweep, inter-cluster gaps
//!   skipped, zero in-place rewrites (ARIES/RH strategy).
//!
//! Both engine strategies ([`Strategy::Rh`] and
//! [`Strategy::LazyRewrite`]) replay every history, so the two
//! implementations cannot drift from the spec *or* from each other.

use rh_core::engine::{RhDb, Strategy};
use rh_core::history::{replay_engine, Event, Oracle};
use rh_core::TxnEngine;
use rh_obs::json::JsonValue;
use rh_obs::observer;
use rh_workload::enumerate::{for_each_prefix, Bounds};

/// One history on which an engine disagreed with the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The full event history, crash included (debug-rendered).
    pub history: String,
    /// Engine strategy that diverged.
    pub strategy: &'static str,
    /// What differed.
    pub detail: String,
}

/// Aggregate result of a model-checking run.
#[derive(Debug)]
pub struct ModelOutcome {
    /// Bounds that were exhausted.
    pub bounds: Bounds,
    /// Histories checked (= enumerated prefixes; each gets one crash).
    pub histories: u64,
    /// Engine replays performed (two strategies per history).
    pub engine_runs: u64,
    /// Total divergences seen.
    pub divergence_count: u64,
    /// First few divergences, with full histories for reproduction.
    pub divergences: Vec<Divergence>,
}

/// At most this many divergent histories are kept verbatim in the
/// outcome/artifact; the count still covers all of them.
const KEEP: usize = 25;

fn record(out: &mut ModelOutcome, strategy: &'static str, events: &[Event], detail: String) {
    out.divergence_count += 1;
    if out.divergences.len() < KEEP {
        out.divergences.push(Divergence { history: format!("{events:?}"), strategy, detail });
    }
}

/// How to compare the engine's undone-update count with the oracle's
/// live loser-update count.
#[derive(Clone, Copy, PartialEq)]
enum UndoneCheck {
    /// The crash may have eaten unflushed tail updates, so the engine
    /// may legitimately undo *fewer* than the oracle's live set — but
    /// never more (over-undo would corrupt committed state).
    AtMost,
    /// A checkpoint right before the crash flushed every update, so the
    /// backward pass must undo *exactly* the oracle's live loser set.
    Exact,
}

/// Index just past the last flush-forcing event (`Commit` or
/// `Checkpoint`) in `prefix` — the durable boundary of the log when a
/// crash lands right after `prefix`. Aborts and rollbacks are *lazily*
/// durable (engine.rs `abort` deliberately skips the force), so an
/// abort after this boundary is lost in the crash and its transaction
/// legitimately presents as a loser again during recovery.
fn durable_boundary(prefix: &[Event]) -> usize {
    prefix
        .iter()
        .rposition(|e| matches!(e, Event::Commit(_) | Event::Checkpoint))
        .map_or(0, |i| i + 1)
}

/// Replays `events` (which end in `Crash`) through one engine strategy
/// and returns the list of property violations. `undone_allowed` is the
/// reference undo count the engine is compared against (the full
/// history's for `Exact`, the durable prefix's for `AtMost`).
fn check_one(
    strategy: Strategy,
    events: &[Event],
    oracle: &Oracle,
    undone: UndoneCheck,
    undone_allowed: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut db = match replay_engine(RhDb::new(strategy), events) {
        Ok(db) => db,
        Err(e) => return vec![format!("engine rejected a well-formed history: {e:?}")],
    };
    for ob in oracle.touched() {
        match db.value_of(ob) {
            Ok(got) => {
                let want = oracle.value(ob);
                if got != want {
                    problems.push(format!("state divergence on {ob}: engine={got}, oracle={want}"));
                }
            }
            Err(e) => problems.push(format!("value_of({ob}) failed after recovery: {e:?}")),
        }
    }
    let Some(report) = db.last_recovery() else {
        problems.push("no recovery report after crash".to_string());
        return problems;
    };
    if strategy == Strategy::Rh {
        let bad = match undone {
            UndoneCheck::Exact => report.undo.undone != undone_allowed,
            UndoneCheck::AtMost => report.undo.undone > undone_allowed,
        };
        if bad {
            problems.push(format!(
                "undone-update divergence: engine undid {}, oracle expects {} ({})",
                report.undo.undone,
                undone_allowed,
                if undone == UndoneCheck::Exact { "exactly; log fully flushed" } else { "at most" }
            ));
        }
        let trace = db.trace_snapshot();
        let stats = db.stats();
        for (name, res) in [
            ("backward_monotone", observer::check_backward_monotone(&trace)),
            ("gaps_skipped", observer::check_gaps_skipped(&trace)),
            ("no_rewrites", observer::check_no_rewrites(&trace, &stats)),
        ] {
            if let Err(e) = res {
                problems.push(format!("invariant {name} violated: {e}"));
            }
        }
    }
    problems
}

/// Replays `events` (ending in `Crash`) through the ARIES/RH engine,
/// recording after **every commit** the log position and the oracle's
/// committed state (`value_as_of`) and version timeline (`versions`)
/// for every object touched so far. Each recorded point is verified
/// twice against reenactment: live, immediately after the commit, and
/// again after the final crash's recovery — `read_as_of`/`history`
/// answers must be stable across the crash boundary, because
/// reenactment interprets the same log records recovery does.
///
/// A checkpoint at or below the target seeds the reenactment and
/// summarizes every version *committed* before it into its value
/// overlay, so the engine reports exactly the oracle's versions whose
/// responsible transaction committed after the last checkpoint — an
/// update logged before the checkpoint by a transaction that commits
/// after it included (its scope straddles the seed). Each label commits
/// once, so the summarized versions are those of the labels committed
/// by the checkpoint. With no checkpoint in the prefix that is the whole
/// list.
///
/// RH strategy only: the lazy baseline rewrites log records in place at
/// delegation, so its history is not reenactable by design.
pub fn check_time_travel(events: &[Event]) -> Vec<String> {
    use rh_common::{Lsn, ObjectId, RhError, TxnId};
    use std::collections::{BTreeSet, HashMap};

    /// One object's expectation at an instant: committed value and
    /// committed versions (engine txn ids, at-the-time values).
    type ObjectExpect = (ObjectId, i64, Vec<(TxnId, i64)>);
    struct Point {
        as_of: Lsn,
        /// Per touched object at this instant.
        expect: Vec<ObjectExpect>,
    }

    let mut problems = Vec::new();
    let mut db = RhDb::new(Strategy::Rh);
    let mut oracle = Oracle::new();
    let mut ids: HashMap<u32, TxnId> = HashMap::new();
    // Label → engine id mapping that survives crashes (crashed labels
    // are never reused, but their committed versions still name them).
    let mut all_ids: HashMap<u32, TxnId> = HashMap::new();
    let mut sp_tokens: HashMap<(u32, u32), u64> = HashMap::new();
    let mut points: Vec<Point> = Vec::new();
    // Labels committed so far, and those committed by the last
    // checkpoint (whose versions its seed summarizes).
    let mut committed: BTreeSet<u32> = BTreeSet::new();
    let mut summarized: BTreeSet<u32> = BTreeSet::new();

    // One point's verification against the engine, shared by the live
    // and the post-recovery passes.
    let verify = |db: &RhDb, p: &Point, when: &str, problems: &mut Vec<String>| {
        for (ob, want, want_versions) in &p.expect {
            match db.read_as_of(*ob, p.as_of) {
                Ok(got) if got == *want => {}
                Ok(got) => problems.push(format!(
                    "read_as_of({ob}, {}) {when}: engine={got}, oracle={want}",
                    p.as_of
                )),
                // Truncation may legitimately outrun an old target; any
                // other error (or an error with nothing truncated) is a
                // divergence.
                Err(RhError::Reenact { .. }) if db.log().first_lsn().raw() > 0 => return,
                Err(e) => {
                    problems.push(format!("read_as_of({ob}, {}) {when} failed: {e:?}", p.as_of))
                }
            }
            match db.history(*ob, Lsn::FIRST, p.as_of) {
                Ok(got) => {
                    let got: Vec<(TxnId, i64)> =
                        got.iter().map(|v| (v.responsible, v.value)).collect();
                    if got != *want_versions {
                        problems.push(format!(
                            "history({ob}, ..{}) {when}: engine={got:?}, oracle={want_versions:?}",
                            p.as_of
                        ));
                    }
                }
                Err(RhError::Reenact { .. }) if db.log().first_lsn().raw() > 0 => return,
                Err(e) => {
                    problems.push(format!("history({ob}, ..{}) {when} failed: {e:?}", p.as_of))
                }
            }
        }
    };

    for ev in events {
        oracle.apply(ev);
        let stepped = match ev {
            Event::Begin(t) => db.begin().map(|id| {
                ids.insert(*t, id);
                all_ids.insert(*t, id);
            }),
            Event::Write(t, ob, v) => db.write(ids[t], *ob, *v),
            Event::Add(t, ob, d) => db.add(ids[t], *ob, *d),
            Event::Delegate(tor, tee, obs) => db.delegate(ids[tor], ids[tee], obs),
            Event::DelegateAll(tor, tee) => db.delegate_all(ids[tor], ids[tee]),
            Event::Commit(t) => db.commit(ids[t]),
            Event::Abort(t) => db.abort(ids[t]),
            Event::Savepoint(t, slot) => TxnEngine::savepoint(&mut db, ids[t]).map(|token| {
                sp_tokens.insert((*t, *slot), token);
            }),
            Event::RollbackTo(t, slot) => match sp_tokens.get(&(*t, *slot)) {
                Some(&token) => TxnEngine::rollback_to(&mut db, ids[t], token),
                None => Ok(()),
            },
            Event::Checkpoint => {
                summarized = committed.clone();
                TxnEngine::checkpoint(&mut db)
            }
            Event::Crash => {
                ids.clear();
                sp_tokens.clear();
                match db.crash_and_recover() {
                    Ok(recovered) => {
                        db = recovered;
                        Ok(())
                    }
                    Err(e) => return vec![format!("recovery failed mid-history: {e:?}")],
                }
            }
        };
        if let Err(e) = stepped {
            return vec![format!("engine rejected a well-formed history: {e:?}")];
        }
        if let Event::Commit(t) = ev {
            committed.insert(*t);
            let as_of = db.log().last_lsn();
            let expect = oracle
                .touched()
                .into_iter()
                .map(|ob| {
                    let versions = oracle
                        .versions(ob)
                        .into_iter()
                        .filter(|(l, _)| !summarized.contains(l))
                        .map(|(l, v)| (all_ids[&l], v))
                        .collect();
                    (ob, oracle.value_as_of(ob), versions)
                })
                .collect();
            let point = Point { as_of, expect };
            verify(&db, &point, "live", &mut problems);
            points.push(point);
        }
    }
    // The history ended in a crash: every recorded answer must hold
    // verbatim against the recovered log.
    for p in &points {
        verify(&db, p, "after recovery", &mut problems);
    }
    problems
}

/// Exhausts `bounds`: every history prefix, crash appended, both engine
/// strategies vs the oracle.
pub fn run(bounds: &Bounds) -> ModelOutcome {
    let mut out = ModelOutcome {
        bounds: *bounds,
        histories: 0,
        engine_runs: 0,
        divergence_count: 0,
        divergences: Vec::new(),
    };
    let mut events: Vec<Event> = Vec::new();
    for_each_prefix(bounds, &mut |prefix| {
        out.histories += 1;
        // Variant A — crash exactly here, unflushed tail and all. The
        // engine may lose (and thus not undo) tail updates, so the
        // undone check is an upper bound; final values must still match
        // the oracle on both strategies. The bound comes from the
        // *durable prefix* (through the last commit/checkpoint): aborts
        // and rollbacks after that boundary are lazily durable, so the
        // crash may resurrect their transactions as losers and the
        // engine legitimately re-undoes what the abort already undid.
        events.clear();
        events.extend_from_slice(prefix);
        events.push(Event::Crash);
        let oracle = Oracle::run(&events);
        let mut durable: Vec<Event> = prefix[..durable_boundary(prefix)].to_vec();
        durable.push(Event::Crash);
        let undone_allowed = Oracle::run(&durable).last_undone().len() as u64;
        for (strategy, name) in [(Strategy::Rh, "rh"), (Strategy::LazyRewrite, "lazy_rewrite")] {
            out.engine_runs += 1;
            for detail in check_one(strategy, &events, &oracle, UndoneCheck::AtMost, undone_allowed)
            {
                record(&mut out, name, &events, detail);
            }
        }
        // Variant A′ — the same history checked through the time-travel
        // lens: reenacted read_as_of/history at every committed LSN,
        // live and again after the crash's recovery (RH only; the lazy
        // baseline rewrites its log, so its history is not reenactable).
        out.engine_runs += 1;
        for detail in check_time_travel(&events) {
            record(&mut out, "rh+time_travel", &events, detail);
        }
        // Variant B — checkpoint (flushes the whole log, engine.rs
        // `checkpoint`), then crash: every update, abort, and rollback
        // is durable, so the backward pass must undo exactly the
        // oracle's live loser set.
        events.pop();
        events.push(Event::Checkpoint);
        events.push(Event::Crash);
        let oracle = Oracle::run(&events);
        let undone_exact = oracle.last_undone().len() as u64;
        out.engine_runs += 1;
        for detail in check_one(Strategy::Rh, &events, &oracle, UndoneCheck::Exact, undone_exact) {
            record(&mut out, "rh+checkpointed", &events, detail);
        }
        // Variant B′ — time travel across a checkpoint-then-crash edge:
        // commit points recorded *before* the final checkpoint must
        // still be answerable (or legitimately truncated) afterwards.
        out.engine_runs += 1;
        for detail in check_time_travel(&events) {
            record(&mut out, "rh+checkpointed+time_travel", &events, detail);
        }
    });
    out
}

impl ModelOutcome {
    /// Renders the `model_check.json` artifact body.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "bounds",
                JsonValue::obj(vec![
                    ("txns", JsonValue::U64(u64::from(self.bounds.txns))),
                    ("objects", JsonValue::U64(self.bounds.objects)),
                    ("max_events", JsonValue::U64(self.bounds.max_events as u64)),
                    ("max_checkpoints", JsonValue::U64(self.bounds.max_checkpoints as u64)),
                    ("delegate_all", JsonValue::Bool(self.bounds.delegate_all)),
                ]),
            ),
            ("histories", JsonValue::U64(self.histories)),
            ("engine_runs", JsonValue::U64(self.engine_runs)),
            ("divergence_count", JsonValue::U64(self.divergence_count)),
            (
                "divergences",
                JsonValue::Arr(
                    self.divergences
                        .iter()
                        .map(|d| {
                            JsonValue::obj(vec![
                                ("strategy", JsonValue::Str(d.strategy.to_string())),
                                ("detail", JsonValue::Str(d.detail.clone())),
                                ("history", JsonValue::Str(d.history.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_bug_is_caught() {
        // Sanity-check the checker itself: hand it a history whose
        // oracle expectation we corrupt, and it must object. We corrupt
        // by comparing against an oracle for a *different* history.
        let events =
            vec![Event::Begin(0), Event::Write(0, rh_common::ObjectId(0), 7), Event::Crash];
        let wrong_oracle = Oracle::run(&[
            Event::Begin(0),
            Event::Write(0, rh_common::ObjectId(0), 7),
            Event::Commit(0), // committed ⇒ value survives ⇒ mismatch
            Event::Crash,
        ]);
        let problems = check_one(Strategy::Rh, &events, &wrong_oracle, UndoneCheck::AtMost, 0);
        assert!(!problems.is_empty(), "checker failed to flag a forced divergence");
    }

    #[test]
    fn tiny_scope_is_clean() {
        let bounds =
            Bounds { txns: 1, objects: 1, max_events: 3, max_checkpoints: 1, delegate_all: false };
        let out = run(&bounds);
        assert!(out.histories > 0);
        assert_eq!(out.engine_runs, out.histories * 5);
        assert_eq!(out.divergence_count, 0, "divergences: {:?}", out.divergences);
    }
}
