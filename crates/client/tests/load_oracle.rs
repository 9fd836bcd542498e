//! Acceptance test for the serving stack: a 16-thread mixed workload
//! (writes, adds, delegation chains) against a file-backed server must
//! finish with **zero** oracle divergences, and the server-side fsync
//! count must grow sublinearly in commits — i.e. group commit must be
//! observably batching concurrent sessions.

use rh_client::load::{run_load, LoadSpec};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::sharded::ShardedDb;
use rh_server::{Server, ServerConfig};
use rh_wal::StableLog;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-load-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sixteen_threads_zero_divergence_and_batched_fsyncs() {
    let dir = scratch("accept");
    let stable = StableLog::open_dir(&dir).expect("open dir");
    let db = ShardedDb::from(RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable));
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let spec = LoadSpec {
        threads: 16,
        txns_per_thread: 25,
        updates_per_txn: 4,
        delegation_fraction: 0.3,
        seed: 7,
        ..LoadSpec::default()
    };
    let report = run_load(&addr, &spec).expect("load run");

    assert_eq!(report.divergences, 0, "oracle divergence: {report:?}");
    assert_eq!(report.errors, 0, "no transaction may fail: {report:?}");
    assert_eq!(report.busy, 0, "a blocking client never overruns its in-flight cap");
    let expected = (spec.threads * spec.txns_per_thread) as u64;
    assert_eq!(report.txns_committed, expected);
    assert!(report.objects_checked >= expected * spec.updates_per_txn as u64);
    assert_eq!(report.server_commits_delta, expected);

    // The batching claim itself: 400 concurrent commits must need
    // strictly fewer forces than one-fsync-per-commit would.
    assert!(
        report.server_fsyncs_delta < report.server_commits_delta,
        "group commit not batching: {} fsyncs for {} commits",
        report.server_fsyncs_delta,
        report.server_commits_delta
    );

    let db = server.shutdown().expect("drain");
    let stats = db.stats();
    assert_eq!(stats.counter("server.commits"), expected);
    assert_eq!(stats.counter("server.sessions.active"), 0);
    db.validate_scope_invariants();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lazy_rewrite_strategy_serves_the_same_contract() {
    let dir = scratch("lazy");
    let stable = StableLog::open_dir(&dir).expect("open dir");
    let db =
        ShardedDb::from(RhDb::with_stable_log(Strategy::LazyRewrite, DbConfig::default(), stable));
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let spec = LoadSpec {
        threads: 8,
        txns_per_thread: 10,
        updates_per_txn: 3,
        delegation_fraction: 0.5,
        seed: 11,
        ..LoadSpec::default()
    };
    let report = run_load(&addr, &spec).expect("load run");
    assert_eq!(report.divergences, 0, "oracle divergence: {report:?}");
    assert_eq!(report.errors, 0);
    assert_eq!(report.txns_committed, (spec.threads * spec.txns_per_thread) as u64);

    let db = server.shutdown().expect("drain");
    db.validate_scope_invariants();
    let _ = std::fs::remove_dir_all(&dir);
}
