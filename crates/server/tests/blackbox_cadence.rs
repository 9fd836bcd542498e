//! The flight recorder on a served database: black boxes land in the
//! log on the server's one-second cadence while the log grows, never
//! while it is idle, and each stays small even when frozen from a full
//! trace ring and a loaded registry.

use rh_common::codec::Codec;
use rh_common::ObjectId;
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::flight::boxes_in_dir;
use rh_core::sharded::ShardedDb;
use rh_obs::{names, Stopwatch};
use rh_server::wire::{self, Hello, Op, Reply, ReplyBody, Request, Response};
use rh_server::{Server, ServerConfig};
use rh_wal::StableLog;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-blackbox-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload = wire::read_frame(&mut stream).expect("hello frame").expect("hello present");
    assert!(Hello::from_bytes(&payload).expect("hello decodes").accepted);
    stream
}

fn call(stream: &mut TcpStream, id: u64, op: Op) -> Reply {
    wire::write_frame(stream, &Request { id, trace: wire::NO_TRACE, op }.to_bytes()).expect("send");
    let payload = wire::read_frame(stream).expect("reply frame").expect("reply present");
    Response::from_bytes(&payload).expect("reply decodes").reply
}

/// One committed transaction writing `value` to `ob`.
fn commit_one(stream: &mut TcpStream, id: &mut u64, ob: ObjectId, value: i64) {
    *id += 1;
    let Reply::Ok(ReplyBody::Txn(t)) = call(stream, *id, Op::Begin) else { panic!("begin") };
    *id += 1;
    assert_eq!(call(stream, *id, Op::Write(t, ob, value)), Reply::Ok(ReplyBody::Unit));
    *id += 1;
    assert_eq!(call(stream, *id, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
}

/// Total bytes of the log's segment files.
fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .map(|p| p.metadata().unwrap().len())
        .sum()
}

#[test]
fn served_log_lands_cadence_boxes_while_it_grows_and_none_while_idle() {
    let dir = scratch("cadence");
    let db = RhDb::with_stable_log(
        Strategy::Rh,
        DbConfig::default(),
        StableLog::open_dir(&dir).expect("open"),
    );
    let server =
        Server::bind("127.0.0.1:0", ShardedDb::from(db), ServerConfig::default()).expect("bind");
    let mut c = connect(server.local_addr());
    let mut id = 0;

    // Commits flow for ~2.5 s: the cadence ticks at ~1 s and ~2 s, and
    // each box rides the next commit's flush.
    let flowing = Stopwatch::start();
    let mut v = 0u64;
    while flowing.elapsed() < Duration::from_millis(2500) {
        v += 1;
        commit_one(&mut c, &mut id, ObjectId(v % 16), v as i64);
    }
    let boxes = boxes_in_dir(&dir).unwrap();
    assert_eq!(boxes.first().map(|b| b.reason.as_str()), Some("server-start"));
    let cadence = boxes.iter().filter(|b| b.reason == "cadence").count();
    assert!(cadence >= 2, "{cadence} cadence boxes in 2.5 s of commits: {boxes:?}");

    // Idle: one more tick boxes the commits since the last box, the one
    // after forces it, and from then on the log does not grow at all.
    std::thread::sleep(Duration::from_millis(2500));
    let settled = (log_bytes(&dir), boxes_in_dir(&dir).unwrap().len());
    std::thread::sleep(Duration::from_millis(2500));
    assert_eq!(
        (log_bytes(&dir), boxes_in_dir(&dir).unwrap().len()),
        settled,
        "an idle server's log must not grow"
    );
    drop(c);
    server.shutdown().expect("drain");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_box_from_a_full_ring_and_a_loaded_registry_fits_in_8_kb() {
    // Two file-backed shards behind a server: served, cross-shard load
    // fills the router's `server.*` series and both shards' registries.
    let root = scratch("size");
    let stables =
        (0..2).map(|k| StableLog::open_dir(root.join(format!("shard-{k}"))).unwrap()).collect();
    let db = ShardedDb::with_stable_logs(Strategy::Rh, DbConfig::default(), stables, 0).unwrap();
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).expect("bind");
    let mut c = connect(server.local_addr());
    let mut id = 0;
    for i in 0..50 {
        id += 1;
        let Reply::Ok(ReplyBody::Txn(t)) = call(&mut c, id, Op::Begin) else { panic!("begin") };
        for ob in [2 * i, 2 * i + 1] {
            id += 1;
            assert_eq!(call(&mut c, id, Op::Add(t, ObjectId(ob), 1)), Reply::Ok(ReplyBody::Unit));
        }
        id += 1;
        assert_eq!(call(&mut c, id, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
    }
    drop(c);
    let db = server.shutdown().expect("drain");

    // Fill shard 0's trace ring and slow-op log with entries as wide as
    // a long-lived server writes them (ten-digit LSNs, object and
    // transaction ids; full 64-bit trace ids), then freeze: shard 0's
    // box carries the merged registry, the largest there is.
    let obs = db.shard_obs(0).unwrap();
    let wide = 1u64 << 33;
    for i in 0..rh_obs::trace::DEFAULT_CAPACITY as u64 {
        obs.tracer.point(names::EV_PROVENANCE_HOP, wide + i, wide + i, wide + i, wide + i);
    }
    obs.slowops.set_threshold_us(0);
    for i in 0..64 {
        let trace = u64::MAX / 3 + i;
        obs.record_slow_op(
            names::PH_2PC_COORD,
            wide + i,
            trace,
            100_000 + i,
            vec![(names::PH_2PC_COORD, 100_000 + i)],
        );
    }
    let before = obs.registry.snapshot();
    db.record_blackbox_all("size");
    let after = obs.registry.snapshot();
    assert_eq!(
        after.counter(names::M_BLACKBOX_RECORDS),
        before.counter(names::M_BLACKBOX_RECORDS) + 1
    );
    let bytes = after.counter(names::M_BLACKBOX_BYTES) - before.counter(names::M_BLACKBOX_BYTES);
    assert!(db.stats().counters.len() > 30, "the registry must be loaded");
    assert!(bytes <= 8 << 10, "a box from a full ring is {bytes} bytes");
    drop(db);
    std::fs::remove_dir_all(&root).unwrap();
}
