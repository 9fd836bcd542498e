//! Wire-level tests of log shipping, read replicas, and failover:
//!
//! * a replica follows a primary over the v4 subscription stream and
//!   serves staleness-bounded reads under the contract — block until
//!   the bound is applied, or refuse with `REPL_LAGGING`, never serve
//!   staler;
//! * a bounced primary is re-dialed and the stream resumes from the
//!   replica's applied watermark (no re-seed);
//! * a kill-9'd primary mid-cross-shard-delegation is failed over by
//!   promoting the replica, and the promoted engine satisfies the
//!   acked-effects oracle: acked commits exact, unacked staged work
//!   rolled back, pre-crash provenance and history intact.

use rh_common::codec::Codec;
use rh_common::{Lsn, ObjectId, TxnId};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::replica::ReplicaSet;
use rh_core::sharded::ShardedDb;
use rh_server::wire::{self, errcode, Hello, Op, Reply, ReplyBody, Request, Response};
use rh_server::{ReplRegistry, ReplicaRunner, RunnerConfig, Server, ServerConfig};
use rh_storage::Disk;
use rh_wal::StableLog;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-repl-{}-{}-{}",
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
    let hello = Hello::from_bytes(&payload).expect("hello decodes");
    assert!(hello.accepted, "expected admission");
    stream
}

fn call(stream: &mut TcpStream, id: u64, op: Op) -> Reply {
    wire::write_frame(stream, &Request { id, trace: wire::NO_TRACE, op }.to_bytes()).expect("send");
    let payload = wire::read_frame(stream).expect("reply frame").expect("reply present");
    let resp = Response::from_bytes(&payload).expect("reply decodes");
    assert_eq!(resp.id, id, "reply correlation");
    resp.reply
}

fn ok_txn(reply: Reply) -> TxnId {
    match reply {
        Reply::Ok(ReplyBody::Txn(t)) => t,
        other => panic!("expected txn reply, got {other:?}"),
    }
}

fn ok_value(reply: Reply) -> i64 {
    match reply {
        Reply::Ok(ReplyBody::Value(v)) => v,
        other => panic!("expected value reply, got {other:?}"),
    }
}

fn ok_token(reply: Reply) -> u64 {
    match reply {
        Reply::Ok(ReplyBody::Token(t)) => t,
        other => panic!("expected token reply, got {other:?}"),
    }
}

/// A fast-failover runner config for tests.
fn quick_runner(max_failures: Option<u32>) -> RunnerConfig {
    RunnerConfig {
        ack_every: 4,
        heartbeat_grace: Duration::from_millis(800),
        reconnect_backoff: Duration::from_millis(50),
        max_reconnect_failures: max_failures,
    }
}

/// Polls `probe` until it returns true or ~`secs` seconds elapse.
fn wait_until(secs: u64, mut probe: impl FnMut() -> bool) -> bool {
    for _ in 0..secs * 50 {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn replica_follows_and_enforces_the_staleness_contract() {
    let primary = Server::bind(
        "127.0.0.1:0",
        ShardedDb::from(RhDb::new(Strategy::Rh)),
        ServerConfig::default(),
    )
    .expect("bind primary");
    let set = Arc::new(ReplicaSet::new_mem(Strategy::Rh, 1, 0));
    let registry = Arc::new(ReplRegistry::new());
    let runner = ReplicaRunner::start(
        Arc::clone(&set),
        Arc::clone(&registry),
        primary.local_addr().to_string(),
        quick_runner(None),
    );
    let replica_cfg =
        ServerConfig { staleness_deadline: Duration::from_millis(600), ..ServerConfig::default() };
    let replica = Server::bind_replica("127.0.0.1:0", Arc::clone(&set), replica_cfg, registry)
        .expect("bind replica");

    let ob = ObjectId(7);
    let mut p = connect(primary.local_addr());
    let t = ok_txn(call(&mut p, 1, Op::Begin));
    assert_eq!(call(&mut p, 2, Op::Write(t, ob, 42)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, 3, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
    // The commit acked, so the durable watermark covers it.
    let bound = ok_token(call(&mut p, 4, Op::Durable(ob)));
    assert!(bound > 0);

    // Read-your-writes across nodes: the bounded read either waits for
    // the stream to apply through `bound` or refuses — here it must
    // succeed well within the deadline, and must serve the acked value.
    let mut r = connect(replica.local_addr());
    assert_eq!(ok_value(call(&mut r, 1, Op::ValueOfMin(ob, Lsn(bound)))), 42);
    // The replica's own durable probe now reports at least the bound.
    assert!(ok_token(call(&mut r, 2, Op::Durable(ob))) >= bound);
    // Plain reads work too.
    assert_eq!(ok_value(call(&mut r, 3, Op::ValueOf(ob))), 42);

    // A bound the primary never wrote: the replica parks until its
    // deadline, then refuses with the dedicated class — it never
    // answers with a staler value.
    match call(&mut r, 4, Op::ValueOfMin(ob, Lsn(bound + 1_000))) {
        Reply::Err { code, .. } => assert_eq!(code, errcode::REPL_LAGGING),
        other => panic!("expected REPL_LAGGING, got {other:?}"),
    }

    // Writes are refused: the replica is read-only.
    match call(&mut r, 5, Op::Begin) {
        Reply::Err { code, .. } => assert_eq!(code, errcode::PROTOCOL),
        other => panic!("expected read-only refusal, got {other:?}"),
    }

    // `/replication` accounting on the primary: one subscriber, and
    // once the heartbeat acks drain the tail, zero lag.
    let caught_up = wait_until(5, || {
        let doc = primary.repl_registry().to_json().render_pretty();
        let parsed = rh_obs::json::parse(&doc).expect("repl json");
        let subs = parsed.get("subscribers").and_then(rh_obs::JsonValue::as_arr).unwrap();
        subs.len() == 1
            && subs[0].get("lag_frames").and_then(rh_obs::JsonValue::as_u64) == Some(0)
            && subs[0].get("shipped_lsn").and_then(rh_obs::JsonValue::as_u64) >= Some(bound)
    });
    assert!(caught_up, "primary registry never showed a caught-up subscriber");
    let doc = primary.repl_registry().to_json().render_pretty();
    assert!(doc.contains("\"schema\": \"repl.v1\""), "schema tag missing: {doc}");

    runner.stop();
    let _set = replica.shutdown_replica().expect("replica drain");
    let _db = primary.shutdown().expect("primary drain");
}

#[test]
fn bounced_primary_resumes_the_stream_without_reseeding() {
    let dir = scratch("bounce");
    let stable = StableLog::open_dir(&dir).expect("open dir");
    let primary = Server::bind(
        "127.0.0.1:0",
        ShardedDb::from(RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable)),
        ServerConfig::default(),
    )
    .expect("bind primary");
    let addr = primary.local_addr();

    let set = Arc::new(ReplicaSet::new_mem(Strategy::Rh, 1, 0));
    let registry = Arc::new(ReplRegistry::new());
    let runner = ReplicaRunner::start(
        Arc::clone(&set),
        Arc::clone(&registry),
        addr.to_string(),
        quick_runner(None), // retry forever: this replica outlives the bounce
    );

    let (ob1, ob2) = (ObjectId(1), ObjectId(2));
    let mut p = connect(addr);
    let t = ok_txn(call(&mut p, 1, Op::Begin));
    assert_eq!(call(&mut p, 2, Op::Write(t, ob1, 10)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, 3, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
    assert!(wait_until(5, || set.value_of(ob1).ok() == Some(10)), "replica never caught up");

    // Kill -9 the primary; the stream dies and the runner re-dials.
    primary.force_stop();

    // Crash-restart the primary on the SAME address from its surviving
    // log; the replica's subscription resumes from its own applied
    // watermark — the primary re-ships only the unapplied suffix.
    let stable = StableLog::open_dir(&dir).expect("reopen dir");
    assert!(!stable.is_empty());
    let db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new())
        .expect("primary recovery");
    let primary = Server::bind(&addr.to_string(), ShardedDb::from(db), ServerConfig::default())
        .expect("rebind primary");

    let mut p = connect(primary.local_addr());
    let t = ok_txn(call(&mut p, 1, Op::Begin));
    assert_eq!(call(&mut p, 2, Op::Write(t, ob2, 20)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, 3, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));

    // Both the pre-bounce and post-bounce commits serve from the
    // replica. If the resumed stream had restarted from LSN 0, the
    // replica's continuity check would have refused every duplicate
    // frame and ob2 would never arrive.
    assert!(wait_until(10, || set.value_of(ob2).ok() == Some(20)), "resume never completed");
    assert_eq!(set.value_of(ob1).unwrap(), 10);
    let stats = set.stats();
    assert_eq!(stats.counter(rh_obs::names::M_REPL_APPLY_ERRORS), 0, "resume was not clean");

    // The bounce is visible in the replica's self-report.
    let doc = registry.to_json().render_pretty();
    let parsed = rh_obs::json::parse(&doc).expect("repl json");
    let streams = parsed.get("replica").and_then(rh_obs::JsonValue::as_arr).expect("replica arr");
    assert!(streams[0].get("reconnects").and_then(rh_obs::JsonValue::as_u64) >= Some(1));

    runner.stop();
    let _db = primary.shutdown().expect("drain");
}

/// Shard residents under `% 2` routing (shift 0).
const EVEN: ObjectId = ObjectId(10);
const ODD: ObjectId = ObjectId(11);

#[test]
fn kill9_mid_cross_shard_delegation_promote_satisfies_the_oracle() {
    let primary = Server::bind(
        "127.0.0.1:0",
        ShardedDb::new_mem(Strategy::Rh, 2, 0),
        ServerConfig::default(),
    )
    .expect("bind primary");
    let set = Arc::new(ReplicaSet::new_mem(Strategy::Rh, 2, 0));
    let registry = Arc::new(ReplRegistry::new());
    // Promote-on-failure budget: a few dead dials declare the source lost.
    let runner = ReplicaRunner::start(
        Arc::clone(&set),
        Arc::clone(&registry),
        primary.local_addr().to_string(),
        quick_runner(Some(3)),
    );

    let mut p = connect(primary.local_addr());
    let mut id = 0u64;
    let mut next = || {
        id += 1;
        id
    };

    // Acked cross-shard delegation: t2 takes responsibility for t1's
    // writes on both shards, t1 aborts, t2 commits through 2PC.
    let t1 = ok_txn(call(&mut p, next(), Op::Begin));
    let t2 = ok_txn(call(&mut p, next(), Op::Begin));
    assert_eq!(call(&mut p, next(), Op::Write(t1, EVEN, 7)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, next(), Op::Write(t1, ODD, 8)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(
        call(&mut p, next(), Op::Delegate(t1, t2, vec![EVEN, ODD])),
        Reply::Ok(ReplyBody::Unit)
    );
    assert_eq!(call(&mut p, next(), Op::Abort(t1)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, next(), Op::Commit(t2)), Reply::Ok(ReplyBody::Unit));

    // A second cross-shard delegation is staged but never committed
    // when the primary dies: its updates and the delegate record are in
    // both logs' tails.
    let (stage_a, stage_b) = (ObjectId(20), ObjectId(21));
    let t3 = ok_txn(call(&mut p, next(), Op::Begin));
    let t4 = ok_txn(call(&mut p, next(), Op::Begin));
    assert_eq!(call(&mut p, next(), Op::Write(t3, stage_a, 666)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, next(), Op::Write(t3, stage_b, 667)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(
        call(&mut p, next(), Op::Delegate(t3, t4, vec![stage_a, stage_b])),
        Reply::Ok(ReplyBody::Unit)
    );

    // Marker commits on each shard force both logs, making the staged
    // records durable (prefix durability) — so they SHIP to the replica
    // before the crash, and promotion must roll them back.
    let (mark_e, mark_o) = (ObjectId(30), ObjectId(31));
    let m1 = ok_txn(call(&mut p, next(), Op::Begin));
    assert_eq!(call(&mut p, next(), Op::Write(m1, mark_e, 1)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, next(), Op::Commit(m1)), Reply::Ok(ReplyBody::Unit));
    let m2 = ok_txn(call(&mut p, next(), Op::Begin));
    assert_eq!(call(&mut p, next(), Op::Write(m2, mark_o, 1)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut p, next(), Op::Commit(m2)), Reply::Ok(ReplyBody::Unit));

    // Both shards' streams have applied through the markers (the staged
    // delegation precedes them in LSN order, so it arrived too).
    assert!(
        wait_until(5, || {
            set.value_of(mark_e).ok() == Some(1) && set.value_of(mark_o).ok() == Some(1)
        }),
        "replica never applied through the markers"
    );
    // Pre-crash provenance already serves from the replica.
    let chain = set.provenance(EVEN).expect("chain");
    assert_eq!((chain[0].from, chain[0].to), (t1, t2));

    // Kill -9: volatile state (including t3/t4's in-memory fate) is gone.
    primary.force_stop();

    // The runner exhausts its reconnect budget and flags the loss.
    assert!(wait_until(10, || runner.source_lost()), "source loss never detected");
    runner.stop();

    // Failover: promotion finishes the forward pass, undoes the staged
    // loser clusters, resolves in-doubt 2PC, and opens for writes.
    let db = set.promote().expect("promote");
    assert_eq!(db.shard_count(), 2, "two shards must promote to a two-shard engine");

    // The acked-effects oracle: acked commits serve exactly; the
    // unacked staged delegation never had a decision record, so
    // presumed abort rolls it back to the base value.
    assert_eq!(db.value_of(EVEN).unwrap(), 7);
    assert_eq!(db.value_of(ODD).unwrap(), 8);
    assert_eq!(db.value_of(mark_e).unwrap(), 1);
    assert_eq!(db.value_of(mark_o).unwrap(), 1);
    assert_eq!(db.value_of(stage_a).unwrap(), 0, "staged loser write survived promotion");
    assert_eq!(db.value_of(stage_b).unwrap(), 0, "staged loser write survived promotion");

    // Pre-crash provenance and history survive promotion.
    let chain = db.provenance(EVEN);
    assert_eq!((chain[0].from, chain[0].to), (t1, t2));
    assert_eq!(db.read_as_of(EVEN, Lsn::NULL).unwrap(), 7);

    // The promoted engine is writable — this node is now the primary.
    let t = db.begin().unwrap();
    db.write(t, EVEN, 100).unwrap();
    db.write(t, ODD, 101).unwrap();
    db.commit(t).unwrap();
    assert_eq!(db.value_of(EVEN).unwrap(), 100);
    assert_eq!(db.value_of(ODD).unwrap(), 101);

    // And the consumed replica set refuses further reads.
    assert!(set.value_of(EVEN).is_err(), "promoted set must not serve replica reads");
}

/// One HTTP GET against an introspection endpoint, parsed as JSON.
fn http_get_json(addr: SocketAddr, path: &str) -> rh_obs::JsonValue {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "GET {path}: {head}");
    rh_obs::json::parse(body).expect("json body")
}

#[test]
fn promoted_replica_serves_the_dead_primarys_newest_black_box() {
    // A file-backed primary freezes black boxes into its log; they ship
    // with every other record, so once the primary is killed the
    // promoted replica's `/postmortem` explains it.
    let dir = scratch("postmortem");
    let db = RhDb::with_stable_log(
        Strategy::Rh,
        DbConfig::default(),
        StableLog::open_dir(&dir).expect("open primary log"),
    );
    let primary = Server::bind("127.0.0.1:0", ShardedDb::from(db), ServerConfig::default())
        .expect("bind primary");
    let set = Arc::new(ReplicaSet::new_mem(Strategy::Rh, 1, 0));
    let registry = Arc::new(ReplRegistry::new());
    let runner = ReplicaRunner::start(
        Arc::clone(&set),
        Arc::clone(&registry),
        primary.local_addr().to_string(),
        quick_runner(Some(3)),
    );

    // Commits carry the primary's "server-start" box to disk, and so
    // down the stream.
    let mut p = connect(primary.local_addr());
    let mut id = 0u64;
    for v in 1..=5 {
        id += 1;
        let t = ok_txn(call(&mut p, id, Op::Begin));
        id += 1;
        assert_eq!(call(&mut p, id, Op::Write(t, EVEN, v)), Reply::Ok(ReplyBody::Unit));
        id += 1;
        assert_eq!(call(&mut p, id, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
    }
    id += 1;
    let durable = match call(&mut p, id, Op::Durable(EVEN)) {
        Reply::Ok(ReplyBody::Token(lsn)) => lsn,
        other => panic!("expected a durable watermark, got {other:?}"),
    };
    assert!(
        wait_until(5, || set.applied_lsn(0).is_ok_and(|l| l.raw() >= durable)),
        "replica never applied the primary's durable prefix"
    );
    primary.force_stop();
    assert!(wait_until(10, || runner.source_lost()), "source loss never detected");
    runner.stop();

    let newest = rh_core::flight::boxes_in_dir(&dir)
        .expect("primary log dir")
        .pop()
        .expect("the primary froze a black box");
    assert!(newest.seq < durable, "the newest box was shipped before the kill");
    let db = set.promote().expect("promote");
    let addr = db.serve_introspection("127.0.0.1:0").expect("introspection");
    let pm = http_get_json(addr, "/postmortem");
    let pred = pm.as_arr().and_then(|shards| shards.first()).and_then(|s| s.get("predecessor"));
    let pred = pred.expect("the promoted replica serves the primary's postmortem");
    assert_eq!(pred.get("seq").and_then(rh_obs::JsonValue::as_u64), Some(newest.seq));
    assert_eq!(
        pred.get("reason").and_then(rh_obs::JsonValue::as_str),
        Some(newest.reason.as_str())
    );
    db.stop_introspection();
    std::fs::remove_dir_all(&dir).unwrap();
}
