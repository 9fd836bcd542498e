//! One full serve/load/drain cycle against an in-process server —
//! the measurement unit shared by the `server_throughput` Criterion
//! bench and the `rh-bench --check-baselines` regression gate, so the
//! gate re-runs exactly the workload the checked-in baselines measured.
//!
//! A cycle stands up a fresh file-backed server (one shard or
//! range-sharded), drives it with the `rh-load` closed-loop generator,
//! verifies the oracle, and drains. Points are named the way baseline
//! rows are named: `serve_t16_d30` (16 threads, 30% delegation) or
//! `serve_s4_t16_d30` (the same mix on 4 shards, with the standard
//! cross-shard fraction mixed in).

use rh_client::load::{run_load, LoadSpec};
use rh_core::engine::{DbConfig, Strategy};
use rh_core::sharded::{ShardMap, ShardedDb};
use rh_obs::Stopwatch;
use rh_server::{Server, ServerConfig};
use rh_wal::StableLog;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Transactions each load thread runs per cycle.
pub const TXNS_PER_THREAD: usize = 10;
/// Updates each transaction applies.
pub const UPDATES_PER_TXN: usize = 4;
/// Fraction of transactions that touch a second shard on sharded
/// points. Fixed so a point is fully determined by its name.
pub const CROSS_SHARD_FRACTION: f64 = 0.25;

/// One point on the serving grid: a thread count, a delegation mix,
/// and a shard count (1 = the unsharded fast path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclePoint {
    /// Concurrent client connections.
    pub threads: usize,
    /// Fraction of transactions routed through the delegation idiom.
    pub delegation: f64,
    /// Engine shards (1 = single engine, no 2PC anywhere).
    pub shards: usize,
}

/// What one serve/load/drain cycle observed.
#[derive(Debug, Clone, Copy)]
pub struct CycleOutcome {
    /// Transactions the oracle saw acknowledged.
    pub txns: u64,
    /// Server-side commit counter delta.
    pub commits: u64,
    /// Server-side fsync counter delta (summed over shards).
    pub fsyncs: u64,
}

impl CyclePoint {
    /// The unsharded grid point `serve_t{threads}_d{delegation%}`.
    pub fn single(threads: usize, delegation: f64) -> Self {
        CyclePoint { threads, delegation, shards: 1 }
    }

    /// The sharded grid point `serve_s{shards}_t{threads}_d{delegation%}`.
    pub fn sharded(shards: usize, threads: usize, delegation: f64) -> Self {
        CyclePoint { threads, delegation, shards }
    }

    /// The baseline row name for this point.
    pub fn name(&self) -> String {
        let d = (self.delegation * 100.0) as u32;
        if self.shards > 1 {
            format!("serve_s{}_t{}_d{d}", self.shards, self.threads)
        } else {
            format!("serve_t{}_d{d}", self.threads)
        }
    }

    /// Parses a baseline row name back into its point; `None` for rows
    /// that are not serving points.
    pub fn parse(name: &str) -> Option<Self> {
        let rest = name.strip_prefix("serve_")?;
        let mut shards = 1usize;
        let mut rest = rest;
        if let Some(r) = rest.strip_prefix('s') {
            let (s, r) = r.split_once('_')?;
            shards = s.parse().ok()?;
            rest = r;
        }
        let rest = rest.strip_prefix('t')?;
        let (t, d) = rest.split_once("_d")?;
        Some(CyclePoint {
            threads: t.parse().ok()?,
            delegation: d.parse::<u32>().ok()? as f64 / 100.0,
            shards,
        })
    }

    /// The load-generator spec this point drives.
    pub fn spec(&self) -> LoadSpec {
        LoadSpec {
            threads: self.threads,
            txns_per_thread: TXNS_PER_THREAD,
            updates_per_txn: UPDATES_PER_TXN,
            delegation_fraction: self.delegation,
            seed: 42,
            base_offset: 0,
            cross_shard_fraction: if self.shards > 1 { CROSS_SHARD_FRACTION } else { 0.0 },
            shards: self.shards,
            trace: false,
            audit_fraction: 0.0,
            replica: None,
        }
    }

    /// Commits one cycle of this point is expected to acknowledge.
    pub fn commits(&self) -> u64 {
        (self.threads * TXNS_PER_THREAD) as u64
    }
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-bench-cycle-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One full serve/load/drain cycle on a fresh directory. Object ids are
/// deterministic per thread, so every cycle needs its own engine — a
/// reused one would see the generator's `add` objects twice.
pub fn one_cycle(point: &CyclePoint) -> CycleOutcome {
    let dir = scratch();
    let stables = (0..point.shards)
        .map(|k| StableLog::open_dir(dir.join(format!("shard-{k}"))).expect("bench log dir"))
        .collect();
    let db = ShardedDb::with_stable_logs(
        Strategy::Rh,
        DbConfig::default(),
        stables,
        ShardMap::RANGE_SHIFT,
    )
    .expect("bench open");
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let report = run_load(&addr, &point.spec()).expect("load");
    assert_eq!(report.divergences, 0, "bench run diverged: {report:?}");
    assert_eq!(report.errors, 0, "bench run errored: {report:?}");
    let out = CycleOutcome {
        txns: report.txns_committed,
        commits: report.server_commits_delta,
        fsyncs: report.server_fsyncs_delta,
    };
    drop(server.shutdown().expect("drain"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Median wall time over `iters` cycles (no warmup — a cycle carries
/// its own server setup, as the baselines did), plus the fsync delta
/// from the median-timed run's neighborhood.
pub fn median_cycle_ns(point: &CyclePoint, iters: usize) -> (u64, u64) {
    let mut times: Vec<(u64, u64)> = (0..iters.max(1))
        .map(|_| {
            let sw = Stopwatch::start();
            let out = one_cycle(point);
            (sw.elapsed().as_nanos() as u64, out.fsyncs)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Committed transactions per second implied by a cycle time.
pub fn txns_per_sec(commits: u64, median_ns: u64) -> u64 {
    (commits * 1_000_000_000).checked_div(median_ns).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for point in [
            CyclePoint::single(1, 0.0),
            CyclePoint::single(16, 0.3),
            CyclePoint::sharded(4, 16, 0.3),
            CyclePoint::sharded(8, 4, 0.25),
        ] {
            let name = point.name();
            assert_eq!(CyclePoint::parse(&name), Some(point), "{name}");
        }
        assert_eq!(CyclePoint::parse("tracer_point_enabled"), None);
        assert_eq!(CyclePoint::parse("serve_bogus"), None);
    }

    #[test]
    fn sharded_points_mix_cross_shard_traffic() {
        let spec = CyclePoint::sharded(4, 16, 0.3).spec();
        assert_eq!(spec.shards, 4);
        assert!(spec.cross_shard_fraction > 0.0);
        assert_eq!(CyclePoint::single(16, 0.3).spec().cross_shard_fraction, 0.0);
    }
}
