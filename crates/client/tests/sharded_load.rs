//! Acceptance test for the sharded serving stack: a concurrent mixed
//! workload with cross-shard transactions (and cross-shard delegation
//! chains) against a 4-shard file-backed server must finish with zero
//! oracle divergences, commit cross-shard traffic through 2PC, and
//! drain gracefully with every shard checkpointed.

use rh_client::load::{self, run_load, LoadSpec};
use rh_core::engine::{DbConfig, Strategy};
use rh_core::sharded::{ShardMap, ShardedDb};
use rh_server::{Server, ServerConfig};
use rh_wal::StableLog;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 4;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-shardload-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sharded_server(strategy: Strategy, dir: &Path) -> (Server, String) {
    let stables = (0..SHARDS)
        .map(|k| StableLog::open_dir(dir.join(format!("shard-{k}"))).expect("open shard dir"))
        .collect();
    let db =
        ShardedDb::with_stable_logs(strategy, DbConfig::default(), stables, ShardMap::RANGE_SHIFT)
            .expect("sharded open");
    let obs_addr = db.serve_introspection("127.0.0.1:0").expect("introspection").to_string();
    (Server::bind("127.0.0.1:0", db, ServerConfig::default()).expect("bind"), obs_addr)
}

#[test]
fn cross_shard_load_holds_the_oracle_and_commits_via_2pc() {
    let dir = scratch("accept");
    let (server, obs_addr) = sharded_server(Strategy::Rh, &dir);
    let addr = server.local_addr().to_string();

    let spec = LoadSpec {
        threads: 8,
        txns_per_thread: 20,
        updates_per_txn: 4,
        delegation_fraction: 0.3,
        cross_shard_fraction: 0.5,
        shards: SHARDS,
        seed: 9,
        base_offset: 0,
        trace: true,
        // Interleave time-travel audits with the 2PC write load: the
        // reenacted value of already-acked objects must agree with the
        // oracle exactly, even while cross-shard commits are in flight.
        audit_fraction: 0.25,
        replica: None,
    };
    let report = run_load(&addr, &spec).expect("load run");

    assert_eq!(report.divergences, 0, "oracle divergence: {report:?}");
    assert!(report.audit_queries > 0, "the audit draw must fire: {report:?}");
    assert_eq!(report.audit_divergences, 0, "audit divergence: {report:?}");
    assert_eq!(report.errors, 0, "no transaction may fail: {report:?}");
    let expected = (spec.threads * spec.txns_per_thread) as u64;
    assert_eq!(report.txns_committed, expected);
    assert_eq!(report.server_commits_delta, expected);

    // Every acked commit carried a trace id; the server's `/trace`
    // rings must stitch a waterfall for (at least) 99% of them, and for
    // every cross-shard commit — the acceptance population — the
    // waterfall must exist and its phase sum must not exceed the
    // client-observed round trip (disjoint timers cannot overlap it).
    assert_eq!(report.traced.len() as u64, expected);
    let cov = load::trace_coverage(&obs_addr, &report.traced).expect("trace fetch");
    assert!(cov.stitched_fraction() >= 0.99, "stitched only {:?}", cov);
    assert!(cov.cross_traced > 0, "the mix must produce cross-shard commits");
    assert_eq!(cov.cross_stitched, cov.cross_traced, "unstitched 2PC commits: {cov:?}");
    let doc = rh_client::introspect::http_get_json(&obs_addr, "/trace").expect("trace doc");
    let falls = rh_client::introspect::stitch(&rh_client::introspect::collect_phases(&doc));
    let by_trace: std::collections::HashMap<u64, _> =
        falls.into_iter().map(|w| (w.trace, w)).collect();
    for tc in report.traced.iter().filter(|t| t.cross_shard) {
        let wf = &by_trace[&tc.trace];
        let named = |n: &str| wf.phases.iter().filter(|(name, _)| name == n).count();
        assert!(named("phase.twopc.prepare_force") >= 1, "no prepare edge: {wf:?}");
        assert_eq!(named("phase.twopc.coord_force"), 1, "coord edge: {wf:?}");
        assert!(
            wf.total_us() <= tc.client_us + tc.client_us / 20 + 50,
            "phase sum {} overlaps the client round trip {}",
            wf.total_us(),
            tc.client_us
        );
    }

    let db = server.shutdown().expect("drain");
    let stats = db.stats();
    assert_eq!(stats.counter("server.commits"), expected);
    // Half the transactions drew a remote-range write, so a healthy
    // number of commits must have gone through the 2PC path. (The
    // cross-shard counter also sees delegators that aborted after
    // handing off, so it bounds the 2PC commits from above.)
    let cross = stats.counter("shard.cross.txns");
    let twopc = stats.counter("shard.twopc.commits");
    assert!(twopc >= expected / 4, "only {twopc} 2PC commits out of {expected}");
    assert!(twopc <= cross);
    // One prepare per 2PC commit (the coordinator never prepares).
    assert!(stats.counter("shard.twopc.prepares") >= twopc);
    // Graceful drain checkpoints every shard, not just the primary.
    for k in 0..SHARDS {
        let log = db.shard_log(k).expect("shard log");
        assert!(!log.stable().master().is_null(), "shard {k} must be checkpointed on drain");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lazy_rewrite_serves_the_same_sharded_contract() {
    let dir = scratch("lazy");
    let (server, _obs) = sharded_server(Strategy::LazyRewrite, &dir);
    let addr = server.local_addr().to_string();

    let spec = LoadSpec {
        threads: 4,
        txns_per_thread: 10,
        updates_per_txn: 3,
        delegation_fraction: 0.5,
        cross_shard_fraction: 0.4,
        shards: SHARDS,
        seed: 13,
        base_offset: 0,
        trace: false,
        audit_fraction: 0.0,
        replica: None,
    };
    let report = run_load(&addr, &spec).expect("load run");
    assert_eq!(report.divergences, 0, "oracle divergence: {report:?}");
    assert_eq!(report.errors, 0);
    assert_eq!(report.txns_committed, (spec.threads * spec.txns_per_thread) as u64);

    let db = server.shutdown().expect("drain");
    assert!(db.stats().counter("shard.twopc.commits") >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
