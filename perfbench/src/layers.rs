//! Per-layer measurements taken from outside the program: deltas of the
//! counters and histograms `rh-serve` already exports through
//! `stats_json`, in-process passes with spans around the engine's public
//! calls, the fields of a `RecoveryReport`, and a raw fsync loop.

use crate::history::Probe;
use crate::plan::{self, Plan, Spans};
use crate::stats::Samples;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId};
use rh_core::engine::DbConfig;
use rh_core::{RhDb, ShardedDb, Strategy};
use rh_obs::json::{self, JsonValue};
use rh_storage::Disk;
use rh_wal::StableLog;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A parsed `stats_json` document.
#[derive(Debug)]
pub struct StatsDoc(JsonValue);

impl StatsDoc {
    /// Parses the server's rendered stats.
    pub fn parse(text: &str) -> Result<StatsDoc, String> {
        json::parse(text).map(StatsDoc).map_err(|e| format!("stats json: {e}"))
    }

    /// A counter (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.0.get("counters").and_then(|c| c.get(name)).and_then(JsonValue::as_u64).unwrap_or(0)
            as f64
    }

    /// A histogram's `(sum, count)` (zeros when absent).
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let h = self.0.get("histograms").and_then(|c| c.get(name));
        let field =
            |f: &str| h.and_then(|h| h.get(f)).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
        (field("sum"), field("count"))
    }
}

/// Counter and histogram growth between two scrapes.
#[derive(Debug)]
pub struct StatsDelta<'a> {
    /// Earlier scrape.
    pub before: &'a StatsDoc,
    /// Later scrape.
    pub after: &'a StatsDoc,
}

impl StatsDelta<'_> {
    /// Growth of a counter.
    pub fn counter(&self, name: &str) -> f64 {
        self.after.counter(name) - self.before.counter(name)
    }

    /// Mean of the observations a histogram gained.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (s1, c1) = self.after.hist(name);
        let (s0, c0) = self.before.hist(name);
        ratio(s1 - s0, c1 - c0)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median µs of a 4 KiB append + `fdatasync`, the floor under any
/// forced commit on this file system.
pub fn fsync_floor_us(dir: &Path, rounds: usize) -> Result<f64, String> {
    let path = dir.join("fsync-floor");
    let mut f = std::fs::File::create(&path).map_err(|e| format!("create fsync probe: {e}"))?;
    let block = [0x5au8; 4096];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        f.write_all(&block).map_err(|e| format!("fsync probe write: {e}"))?;
        f.sync_data().map_err(|e| format!("fsync probe sync: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    Ok(Samples::new(samples).pct(50.0))
}

/// What one in-process pass measured.
#[derive(Debug, Default)]
pub struct InProcess {
    /// Spans around `begin`/`write`/`add`/`delegate`/`abort`/
    /// `commit_prepare`/`flush_to` on one engine, `twopc_commit` on the
    /// sharded engine, and `read_as_of` on the recovered engine.
    pub spans: Spans,
    /// Forward-pass wall, ms (summed over shards).
    pub forward_ms: f64,
    /// Backward-pass wall, ms (summed over shards).
    pub undo_ms: f64,
    /// Records the forward pass scanned.
    pub records_scanned: f64,
    /// Records the backward pass visited.
    pub undo_visited: f64,
    /// Updates undone.
    pub undone: f64,
    /// Loser clusters swept.
    pub clusters: f64,
    /// `read_as_of` answers that disagreed with the oracle.
    pub divergences: u64,
}

fn eng<T>(what: &str, r: rh_common::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("in-process {what}: {e}"))
}

fn open(dir: &Path) -> Result<std::sync::Arc<StableLog>, String> {
    StableLog::open_dir(dir).map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Runs `plans` single-threaded on a fresh file-backed engine (and, for
/// sharded workloads, on a fresh sharded engine), then recovers a copy
/// of the crashed image in process and replays `probes` against it.
pub fn in_process(
    work: &Path,
    image: &Path,
    shards: usize,
    plans: &[Plan],
    probes: &[Probe],
) -> Result<InProcess, String> {
    let mut out = InProcess { spans: Spans::new(true), ..InProcess::default() };
    {
        let dir = work.join("engine");
        let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), open(&dir)?);
        for p in plans {
            eng("plan", plan::run_engine(&mut db, p, &mut out.spans))?;
        }
    }
    if shards > 1 {
        let logs = (0..shards)
            .map(|k| open(&work.join(format!("sharded/shard-{k}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let db = eng(
            "sharded open",
            ShardedDb::with_stable_logs(Strategy::Rh, DbConfig::default(), logs, plan::RANGE_SHIFT),
        )?;
        for p in plans {
            eng("sharded plan", plan::run_sharded(&db, p, &mut out.spans))?;
        }
    }
    let copy = work.join("recover");
    crate::serve::copy_dir(image, &copy)?;
    let reports = if shards == 1 {
        let db = eng(
            "recover",
            RhDb::recover(Strategy::Rh, DbConfig::default(), open(&copy)?, Disk::new()),
        )?;
        out.divergences = replay(&mut out.spans, probes, |ob, lsn| db.read_as_of(ob, lsn));
        db.last_recovery().into_iter().cloned().collect::<Vec<_>>()
    } else {
        let parts = (0..shards)
            .map(|k| Ok((open(&copy.join(format!("shard-{k}")))?, Disk::new())))
            .collect::<Result<Vec<_>, String>>()?;
        let db = eng(
            "sharded recover",
            ShardedDb::recover(Strategy::Rh, DbConfig::default(), parts, plan::RANGE_SHIFT),
        )?;
        out.divergences = replay(&mut out.spans, probes, |ob, lsn| db.read_as_of(ob, lsn));
        (0..shards).filter_map(|k| db.shard_recovery(k)).collect()
    };
    for r in reports {
        out.forward_ms += r.forward_wall.as_secs_f64() * 1e3;
        out.undo_ms += r.undo_wall.as_secs_f64() * 1e3;
        out.records_scanned += r.forward.records_scanned as f64;
        out.undo_visited += r.undo.visited as f64;
        out.undone += r.undo.undone as f64;
        out.clusters += r.undo.clusters as f64;
    }
    Ok(out)
}

/// Answers every probe through `read` under a `read_as_of` span and
/// returns how many answers disagreed with the oracle.
fn replay(
    spans: &mut Spans,
    probes: &[Probe],
    read: impl Fn(ObjectId, Lsn) -> rh_common::Result<Value>,
) -> u64 {
    let wrong = |p: &&Probe| !matches!(spans.time("read_as_of", || read(p.ob, p.lsn)), Ok(v) if v == p.expect);
    probes.iter().filter(wrong).count() as u64
}
