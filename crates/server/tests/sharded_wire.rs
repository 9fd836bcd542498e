//! Wire-level tests of the sharded backend: the full op surface routed
//! by object id, cross-shard transactions (including the delegation
//! idiom) committing through 2PC, error codes surviving the routing
//! layer, and the sharded drain.
//!
//! Uses routing shift 0 so `ObjectId(k)` lands on shard `k % 2` — every
//! test can place objects on specific shards by parity.

use rh_common::codec::Codec;
use rh_common::{ObjectId, TxnId};
use rh_core::engine::Strategy;
use rh_core::sharded::ShardedDb;
use rh_server::wire::{self, errcode, Hello, Op, Reply, ReplyBody, Request, Response};
use rh_server::{Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};

/// Shard 0 and shard 1 residents under `% 2` routing.
const EVEN: ObjectId = ObjectId(10);
const ODD: ObjectId = ObjectId(11);

fn mem_sharded(cfg: ServerConfig) -> Server {
    let db = ShardedDb::new_mem(Strategy::Rh, 2, 0);
    Server::bind("127.0.0.1:0", db, cfg).expect("bind")
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

fn stats_counter(c: &mut TcpStream, id: u64, name: &str) -> u64 {
    let json = match call(c, id, Op::Stats) {
        Reply::Ok(ReplyBody::Json(s)) => s,
        other => panic!("expected stats json, got {other:?}"),
    };
    let parsed = rh_obs::json::parse(&json).expect("stats parse");
    parsed
        .get("counters")
        .and_then(|cs| cs.get(name))
        .and_then(rh_obs::JsonValue::as_u64)
        .unwrap_or(0)
}

#[test]
fn cross_shard_ops_route_and_commit_through_2pc() {
    let server = mem_sharded(ServerConfig::default());
    let mut c = connect(server.local_addr());
    let mut id = 0u64;
    let mut next = || {
        id += 1;
        id
    };

    // One transaction spanning both shards, with reads, a savepoint
    // rollback, and adds crossing the boundary.
    let t = ok_txn(call(&mut c, next(), Op::Begin));
    assert_eq!(call(&mut c, next(), Op::Write(t, EVEN, 40)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::Write(t, ODD, 7)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::Add(t, EVEN, 2)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(ok_value(call(&mut c, next(), Op::Read(t, EVEN))), 42);
    assert_eq!(ok_value(call(&mut c, next(), Op::Read(t, ODD))), 7);
    let token = match call(&mut c, next(), Op::Savepoint(t)) {
        Reply::Ok(ReplyBody::Token(tok)) => tok,
        other => panic!("expected token, got {other:?}"),
    };
    assert_eq!(call(&mut c, next(), Op::Write(t, ODD, -1)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::RollbackTo(t, token)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(ok_value(call(&mut c, next(), Op::Read(t, ODD))), 7);
    assert_eq!(call(&mut c, next(), Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(ok_value(call(&mut c, next(), Op::ValueOf(EVEN))), 42);
    assert_eq!(ok_value(call(&mut c, next(), Op::ValueOf(ODD))), 7);

    // The delegation idiom across the shard boundary: t1 writes on both
    // shards, t2 takes responsibility for both, t1 aborts, t2 commits.
    let t1 = ok_txn(call(&mut c, next(), Op::Begin));
    let t2 = ok_txn(call(&mut c, next(), Op::Begin));
    let (a, b) = (ObjectId(20), ObjectId(21));
    assert_eq!(call(&mut c, next(), Op::Write(t1, a, 8)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::Write(t1, b, 9)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::Delegate(t1, t2, vec![a, b])), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::Abort(t1)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, next(), Op::Commit(t2)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(ok_value(call(&mut c, next(), Op::ValueOf(a))), 8);
    assert_eq!(ok_value(call(&mut c, next(), Op::ValueOf(b))), 9);

    // Three transactions went cross-shard (t, t1, t2) but t1 aborted:
    // two 2PC rounds, one non-coordinator prepare each.
    assert_eq!(stats_counter(&mut c, next(), "shard.cross.txns"), 3);
    assert_eq!(stats_counter(&mut c, next(), "shard.twopc.commits"), 2);
    assert_eq!(stats_counter(&mut c, next(), "shard.twopc.prepares"), 2);

    let _db = server.shutdown().expect("drain");
}

#[test]
fn engine_errors_survive_the_routing_layer() {
    let server = mem_sharded(ServerConfig::default());
    let mut a = connect(server.local_addr());

    let ta = ok_txn(call(&mut a, 1, Op::Begin));
    // Unknown transaction id, on the 2PC commit path.
    match call(&mut a, 2, Op::Commit(TxnId(9999))) {
        Reply::Err { code, .. } => assert_eq!(code, errcode::UNKNOWN_TXN),
        other => panic!("expected unknown txn, got {other:?}"),
    }
    // Self-delegation is rejected before any shard is touched.
    match call(&mut a, 3, Op::Delegate(ta, ta, vec![EVEN])) {
        Reply::Err { code, .. } => assert_eq!(code, errcode::SELF_DELEGATION),
        other => panic!("expected self-delegation error, got {other:?}"),
    }
    // Delegating an object the delegator is not responsible for fails
    // atomically even when the batch spans shards.
    let tb = ok_txn(call(&mut a, 4, Op::Begin));
    assert_eq!(call(&mut a, 5, Op::Write(ta, EVEN, 5)), Reply::Ok(ReplyBody::Unit));
    match call(&mut a, 6, Op::Delegate(ta, tb, vec![EVEN, ODD])) {
        Reply::Err { .. } => {}
        other => panic!("expected delegation failure, got {other:?}"),
    }
    assert_eq!(call(&mut a, 7, Op::Abort(ta)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut a, 8, Op::Abort(tb)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(ok_value(call(&mut a, 9, Op::ValueOf(EVEN))), 0);

    let _db = server.shutdown().expect("drain");
}

#[test]
fn sharded_drain_aborts_open_txns_and_checkpoints_every_shard() {
    let server = mem_sharded(ServerConfig::default());
    let mut c = connect(server.local_addr());
    let t = ok_txn(call(&mut c, 1, Op::Begin));
    assert_eq!(call(&mut c, 2, Op::Write(t, EVEN, 77)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, 3, Op::Write(t, ODD, 78)), Reply::Ok(ReplyBody::Unit));
    // No commit: the drain must abort this cross-shard transaction.
    let db = server.shutdown().expect("drain");
    assert_eq!(db.value_of(EVEN).expect("value"), 0, "uncommitted write must be undone");
    assert_eq!(db.value_of(ODD).expect("value"), 0);
    let stats = db.stats();
    assert_eq!(stats.counter("server.drains"), 1);
    assert!(stats.counter("server.txns.aborted_on_close") >= 1);
    for k in 0..db.shard_count() {
        let log = db.shard_log(k).expect("shard log");
        assert!(!log.stable().master().is_null(), "shard {k} must checkpoint on drain");
    }
}

#[test]
fn single_shard_sessions_keep_the_fast_path() {
    let server = mem_sharded(ServerConfig::default());
    let mut c = connect(server.local_addr());
    let t = ok_txn(call(&mut c, 1, Op::Begin));
    assert_eq!(call(&mut c, 2, Op::Write(t, EVEN, 1)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, 3, Op::Add(t, ObjectId(12), 2)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(call(&mut c, 4, Op::Commit(t)), Reply::Ok(ReplyBody::Unit));
    assert_eq!(stats_counter(&mut c, 5, "shard.cross.txns"), 0);
    assert_eq!(stats_counter(&mut c, 6, "shard.twopc.prepares"), 0);
    assert_eq!(stats_counter(&mut c, 7, "server.commits"), 1);
    let _db = server.shutdown().expect("drain");
}
