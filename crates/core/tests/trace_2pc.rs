//! Trace-context propagation across a cross-shard 2PC commit: the
//! per-shard trace rings must stitch into one waterfall containing
//! every protocol edge exactly once, and — because the edge points are
//! emitted *before* each crash-injection point — a crash mid-protocol
//! must leave the completed edges (and their slow-op entries) in the
//! shards' flight-recorder black boxes.

use rh_common::ObjectId;
use rh_core::engine::DbConfig;
use rh_core::flight::boxes_in_dir;
use rh_core::sharded::{ShardedDb, TwoPcFault};
use rh_core::Strategy;
use rh_obs::blackbox::BlackBoxRecord;
use rh_obs::{names, JsonValue};
use rh_wal::StableLog;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Objects 0 and 1 land on shards 0 and 1 under shift 0, so shard 0 is
/// the coordinator (lowest participant) and shard 1 the sole preparer.
const OB_A: ObjectId = ObjectId(0);
const OB_B: ObjectId = ObjectId(1);

const TRACE: u64 = 0xBEEF;

fn both_strategies(case: impl Fn(Strategy)) {
    case(Strategy::Rh);
    case(Strategy::LazyRewrite);
}

/// Every `phase.*` point tagged with `trace`, harvested from all shard
/// rings — the stitching a trace consumer performs over `/trace`.
fn stitched_phases(db: &ShardedDb, shards: usize, trace: u64) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for k in 0..shards {
        let obs = db.shard_obs(k).expect("shard obs");
        for ev in obs.tracer.snapshot().events {
            if ev.lsn_lo == trace && ev.name.starts_with("phase.") {
                out.push((ev.name, ev.txn));
            }
        }
    }
    out
}

#[test]
fn cross_shard_commit_stitches_every_edge_exactly_once() {
    both_strategies(|strategy| {
        let db = ShardedDb::new_mem(strategy, 2, 0);
        let t = db.begin().unwrap();
        db.write(t, OB_A, 7).unwrap();
        db.write(t, OB_B, 9).unwrap();
        let phases = db.commit_traced(t, TRACE).unwrap();

        // The returned phase list and the stitched ring contents must
        // agree: one prepare force (the coordinator never prepares),
        // one coordinator decision force, one lazy catch-up.
        let count = |list: &[(&'static str, u64)], name: &str| {
            list.iter().filter(|(n, _)| *n == name).count()
        };
        let returned: Vec<(&'static str, u64)> = phases.clone();
        let stitched = stitched_phases(&db, 2, TRACE);
        for list in [&returned, &stitched] {
            assert_eq!(count(list, names::PH_2PC_PREPARE), 1, "{strategy:?}: {list:?}");
            assert_eq!(count(list, names::PH_2PC_COORD), 1, "{strategy:?}: {list:?}");
            assert_eq!(count(list, names::PH_2PC_RESOLVE), 1, "{strategy:?}: {list:?}");
        }
        // Stitch key: every ring point carries the global txn id.
        assert!(stitched.iter().all(|&(_, txn)| txn == t.raw()), "{stitched:?}");

        // A second, single-shard commit must contribute *no* 2PC edges
        // under a fresh trace id — the fast path bypasses the protocol.
        let t2 = db.begin().unwrap();
        db.write(t2, ObjectId(2), 5).unwrap(); // shard 0 under % 2
        db.commit_traced(t2, TRACE + 1).unwrap();
        let solo = stitched_phases(&db, 2, TRACE + 1);
        assert_eq!(count(&solo, names::PH_2PC_PREPARE), 0);
        assert_eq!(count(&solo, names::PH_2PC_COORD), 0);
        assert_eq!(count(&solo, names::PH_COMMIT_PREPARE), 1);
        assert_eq!(count(&solo, names::PH_FLUSH_WAIT), 1);
    });
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-trace2pc-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The newest black box in a shard's log.
fn last_blackbox(shard_dir: &Path) -> BlackBoxRecord {
    boxes_in_dir(shard_dir).expect("readable log dir").pop().expect("a black box")
}

fn slow_op_names(rec: &BlackBoxRecord) -> Vec<String> {
    rec.slow_ops()
        .iter()
        .filter_map(|op| op.get("op").and_then(JsonValue::as_str).map(str::to_string))
        .collect()
}

#[test]
fn crash_mid_2pc_preserves_slow_edges_in_the_black_box() {
    let dir = scratch("blackbox");
    let shard_dirs: Vec<PathBuf> = (0..2).map(|k| dir.join(format!("shard-{k}"))).collect();
    let stables =
        shard_dirs.iter().map(|d| StableLog::open_dir(d).expect("open shard dir")).collect();
    let db = ShardedDb::with_stable_logs(Strategy::Rh, DbConfig::default(), stables, 0).unwrap();
    // Threshold 0: every completed 2PC edge lands in its shard's
    // slow-op log the moment it finishes.
    for k in 0..2 {
        db.shard_obs(k).unwrap().slowops.set_threshold_us(0);
    }

    let t = db.begin().unwrap();
    db.write(t, OB_A, 21).unwrap();
    db.write(t, OB_B, 23).unwrap();
    // The crash hits after the coordinator decision is durable: the
    // prepare edge (shard 1) and the decision force (shard 0) have both
    // completed — and were traced — but the commit never acks.
    db.inject_fault(TwoPcFault::AfterCoordCommit);
    assert!(db.commit_traced(t, TRACE).is_err());

    // The cadence freeze a real deployment runs before the lights go
    // out (the flight recorder's whole point): then the process dies.
    db.record_blackbox_all("pre-crash");
    drop(db);

    // Postmortem, from the on-disk logs alone: each shard's black box
    // carries the slow-op entries for the edges it had completed, still
    // tagged with the client's trace id.
    let coord = last_blackbox(&shard_dirs[0]);
    let coord_slow = slow_op_names(&coord);
    assert!(
        coord_slow.iter().any(|n| n == names::PH_2PC_COORD),
        "coordinator black box lost the decision edge: {coord_slow:?}"
    );
    let part = last_blackbox(&shard_dirs[1]);
    let part_slow = slow_op_names(&part);
    assert!(
        part_slow.iter().any(|n| n == names::PH_2PC_PREPARE),
        "participant black box lost the prepare edge: {part_slow:?}"
    );
    for rec in [&coord, &part] {
        for op in rec.slow_ops() {
            if op.get("op").and_then(JsonValue::as_str).map(|n| n.starts_with("phase.twopc."))
                == Some(true)
            {
                assert_eq!(op.get("trace").and_then(JsonValue::as_u64), Some(TRACE));
            }
        }
    }
    // The run stopped before the resolve edge: no shard may claim one.
    for slow in [&coord_slow, &part_slow] {
        assert!(!slow.iter().any(|n| n == names::PH_2PC_RESOLVE), "{slow:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
