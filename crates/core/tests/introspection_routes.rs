//! The one introspection route table serves every deployment shape: a
//! file-backed database of one shard and one of two, each crashed and
//! recovered, answer every endpoint their index page lists with a 200
//! and a document that parses — and `/postmortem` names each shard's
//! last pre-crash black box.

use rh_common::ObjectId;
use rh_core::engine::{DbConfig, Strategy};
use rh_core::sharded::ShardedDb;
use rh_obs::JsonValue;
use rh_storage::Disk;
use rh_wal::StableLog;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-routes-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, shards: usize) -> Vec<std::sync::Arc<StableLog>> {
    (0..shards)
        .map(|k| StableLog::open_dir(dir.join(format!("shard-{k}"))).expect("open"))
        .collect()
}

/// `(status line, body)` of one GET.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap_or("").to_string(), body.to_string())
}

/// Runs a delegating history on every shard (routing shift 0 puts
/// object `k` on shard `k % shards`), freezes a "pre-crash" black box
/// in every shard, crashes, and recovers from the directories alone.
/// Returns the recovered database and a delegated object.
fn crashed_and_recovered(dir: &Path, shards: usize) -> (ShardedDb, ObjectId) {
    let db = ShardedDb::with_stable_logs(Strategy::Rh, DbConfig::default(), open(dir, shards), 0)
        .expect("open");
    let delegated = ObjectId(shards as u64);
    for k in 0..shards as u64 {
        let (t1, t2) = (db.begin().unwrap(), db.begin().unwrap());
        let ob = ObjectId(shards as u64 + k);
        db.write(t1, ob, 10 + k as i64).unwrap();
        db.delegate(t1, t2, &[ob]).unwrap();
        db.abort(t1).unwrap();
        db.commit(t2).unwrap();
    }
    let loser = db.begin().unwrap();
    db.write(loser, ObjectId(100 * shards as u64), -1).unwrap();
    db.record_blackbox_all("pre-crash");
    drop(db.crash());
    let parts = open(dir, shards).into_iter().map(|s| (s, Disk::new())).collect();
    let db = ShardedDb::recover(Strategy::Rh, DbConfig::default(), parts, 0).expect("recover");
    (db, delegated)
}

fn every_route_answers(shards: usize) {
    let dir = scratch(&format!("s{shards}"));
    let (db, ob) = crashed_and_recovered(&dir, shards);
    let addr = db.serve_introspection("127.0.0.1:0").expect("bind");

    // The index: any unknown path lists every route.
    let (status, body) = get(addr, "/");
    assert!(status.contains("404"), "{status}");
    let index = rh_obs::json::parse(&body).expect("index parses");
    let paths: Vec<String> = index
        .get("paths")
        .and_then(JsonValue::as_arr)
        .expect("paths")
        .iter()
        .map(|p| p.as_str().expect("path").to_string())
        .collect();
    for route in [
        "/stats",
        "/metrics",
        "/timeseries",
        "/slowops",
        "/trace",
        "/provenance",
        "/provenance/<ob>",
        "/postmortem",
        "/asof/<ob>/<lsn>",
        "/history/<ob>",
    ] {
        assert!(paths.iter().any(|p| p == route), "{route} missing from the index: {paths:?}");
    }

    for route in &paths {
        let path = route.replace("<ob>", &ob.raw().to_string()).replace("<lsn>", "now");
        let (status, body) = get(addr, &path);
        assert!(status.contains("200"), "GET {path} ({shards} shards): {status} {body}");
        if path == "/metrics" {
            rh_obs::promtext::validate(&body)
                .unwrap_or_else(|(line, e)| panic!("/metrics line {line}: {e}"));
        } else {
            rh_obs::json::parse(&body).unwrap_or_else(|e| panic!("GET {path}: {e:?}"));
        }
    }

    // One postmortem per shard, each naming that shard's predecessor.
    let (_, body) = get(addr, "/postmortem");
    let pm = rh_obs::json::parse(&body).expect("postmortem parses");
    let per_shard = pm.as_arr().expect("one entry per shard");
    assert_eq!(per_shard.len(), shards);
    for (k, entry) in per_shard.iter().enumerate() {
        let reason = entry.get("predecessor").and_then(|p| p.get("reason"));
        assert_eq!(reason.and_then(JsonValue::as_str), Some("pre-crash"), "shard {k}: {entry:?}");
    }

    // The delegated object's chain and its reenacted value.
    let (_, body) = get(addr, &format!("/provenance/{}", ob.raw()));
    let chain = rh_obs::json::parse(&body).expect("chain parses");
    assert_eq!(chain.as_arr().map(<[JsonValue]>::len), Some(1), "{chain:?}");
    let (_, body) = get(addr, &format!("/asof/{}/now", ob.raw()));
    let asof = rh_obs::json::parse(&body).expect("asof parses");
    assert_eq!(asof.get("value").and_then(JsonValue::as_i64), Some(10));

    db.stop_introspection();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_serves_every_route() {
    every_route_answers(1);
}

#[test]
fn two_shards_serve_every_route() {
    every_route_answers(2);
}
