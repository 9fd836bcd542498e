//! Session-thread tests: one thread per admitted session, no per-thread
//! state left behind by connection churn, and the pipelining semantics a
//! session keeps — in-order replies within the in-flight cap, and a
//! half-closed client's queued requests still run before the session is
//! torn down.
//!
//! The thread and mapping counts read `/proc/self`, so this file is a
//! test binary of its own and its tests take one lock: every count sees
//! only the server of the test that holds it.

use rh_common::codec::Codec;
use rh_common::ObjectId;
use rh_core::engine::{RhDb, Strategy};
use rh_core::sharded::ShardedDb;
use rh_obs::Stopwatch;
use rh_server::wire::{self, Hello, Op, Reply, ReplyBody, Request, Response};
use rh_server::{Server, ServerConfig};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn mem_server() -> Server {
    mem_server_with(ServerConfig::default())
}

fn mem_server_with(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", ShardedDb::from(RhDb::new(Strategy::Rh)), cfg).expect("bind")
}

/// Connects and consumes the hello, asserting admission.
fn connect(addr: SocketAddr) -> (TcpStream, Hello) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload = wire::read_frame(&mut stream).expect("hello frame").expect("hello present");
    let hello = Hello::from_bytes(&payload).expect("hello decodes");
    assert!(hello.accepted, "expected admission");
    (stream, hello)
}

fn frame(id: u64, op: Op) -> Vec<u8> {
    let payload = Request { id, trace: wire::NO_TRACE, op }.to_bytes();
    rh_wal::frame::encode(&payload)
}

fn recv(stream: &mut TcpStream) -> Response {
    let payload = wire::read_frame(stream).expect("reply frame").expect("reply present");
    Response::from_bytes(&payload).expect("reply decodes")
}

/// One blocking round trip over a raw socket.
fn call(stream: &mut TcpStream, id: u64, op: Op) -> Reply {
    stream.write_all(&frame(id, op)).expect("send");
    let resp = recv(stream);
    assert_eq!(resp.id, id, "reply correlation");
    resp.reply
}

/// Polls `probe` until it holds or `limit` passes; the last answer.
fn eventually(limit: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let sw = Stopwatch::start();
    while !probe() {
        if sw.elapsed() >= limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Threads of this process whose name marks them as a server's
/// per-connection threads (the accept thread is plain `rh-serve`).
#[cfg(target_os = "linux")]
fn session_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("rh-serve-"))
        .count()
}

#[cfg(target_os = "linux")]
fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps").lines().count()
}

#[cfg(target_os = "linux")]
#[test]
fn eight_sessions_run_eight_session_threads() {
    let _serial = serial();
    let server = mem_server();
    let mut sessions: Vec<TcpStream> = (0..8).map(|_| connect(server.local_addr()).0).collect();
    for (i, s) in sessions.iter_mut().enumerate() {
        assert_eq!(call(s, i as u64 + 1, Op::Ping), Reply::Ok(ReplyBody::Unit));
    }
    // Threads of an earlier test's server may still be exiting.
    eventually(Duration::from_secs(5), || session_threads() == 8);
    assert_eq!(session_threads(), 8, "one thread per open session");
    drop(sessions);
    assert!(eventually(Duration::from_secs(5), || session_threads() == 0), "sessions end");
    let _db = server.shutdown().expect("drain");
}

#[cfg(target_os = "linux")]
#[test]
fn connection_churn_leaves_no_thread_stacks_mapped() {
    let _serial = serial();
    let server = mem_server();
    for _ in 0..8 {
        drop(connect(server.local_addr()));
    }
    assert!(eventually(Duration::from_secs(5), || session_threads() == 0), "sessions end");
    let before = mapped_regions();
    for _ in 0..300 {
        drop(connect(server.local_addr()));
    }
    assert!(eventually(Duration::from_secs(5), || session_threads() == 0), "sessions end");
    let after = mapped_regions();
    assert!(
        after < before + 64,
        "300 connect/close cycles grew /proc/self/maps from {before} to {after} lines"
    );
    let _db = server.shutdown().expect("drain");
}

#[test]
fn pipelined_requests_within_the_cap_are_answered_in_order() {
    let _serial = serial();
    let server = mem_server();
    let (mut c, hello) = connect(server.local_addr());
    let cap = u64::from(hello.inflight_cap);
    assert!(cap >= 2, "the default cap leaves room to pipeline");
    let t = match call(&mut c, 1, Op::Begin) {
        Reply::Ok(ReplyBody::Txn(t)) => t,
        other => panic!("expected a txn, got {other:?}"),
    };
    // Exactly `cap` requests in one burst: cap - 1 writes, then commit.
    let mut burst = Vec::new();
    for i in 1..cap {
        burst.extend(frame(i + 1, Op::Write(t, ObjectId(100 + i), i as i64)));
    }
    burst.extend(frame(cap + 1, Op::Commit(t)));
    c.write_all(&burst).expect("send burst");
    for id in 2..=cap + 1 {
        let resp = recv(&mut c);
        assert_eq!(resp.id, id, "replies come back in request order");
        assert_eq!(resp.reply, Reply::Ok(ReplyBody::Unit), "request {id} within the cap");
    }
    for i in 1..cap {
        let got = call(&mut c, 1000 + i, Op::ValueOf(ObjectId(100 + i)));
        assert_eq!(got, Reply::Ok(ReplyBody::Value(i as i64)), "object {}", 100 + i);
    }
    let stats = server.shutdown().expect("drain").stats();
    assert_eq!(stats.counter("server.replies.busy"), 0);
}

#[test]
fn a_burst_past_the_cap_queues_the_cap_and_bounces_the_rest() {
    let _serial = serial();
    let server = mem_server_with(ServerConfig { inflight_per_conn: 4, ..ServerConfig::default() });
    let (mut c, hello) = connect(server.local_addr());
    assert_eq!(hello.inflight_cap, 4);
    // One small write arrives whole, so the session's first read holds
    // all ten frames: the first four are queued, the other six BUSY.
    let burst: Vec<u8> = (1..=10).flat_map(|id| frame(id, Op::Ping)).collect();
    c.write_all(&burst).expect("send burst");
    let mut replies: Vec<(u64, Reply)> =
        (0..10).map(|_| recv(&mut c)).map(|r| (r.id, r.reply)).collect();
    replies.sort_unstable_by_key(|&(id, _)| id);
    for (id, reply) in replies {
        let want = if id <= 4 { Reply::Ok(ReplyBody::Unit) } else { Reply::Busy };
        assert_eq!(reply, want, "request {id}");
    }
    let _db = server.shutdown().expect("drain");
}

#[test]
fn a_half_closed_client_still_gets_its_pipelined_commit_applied() {
    let _serial = serial();
    let server = mem_server();
    let (mut c, _) = connect(server.local_addr());
    let t = match call(&mut c, 1, Op::Begin) {
        Reply::Ok(ReplyBody::Txn(t)) => t,
        other => panic!("expected a txn, got {other:?}"),
    };
    let ob = ObjectId(7);
    let mut burst = frame(2, Op::Write(t, ob, 42));
    burst.extend(frame(3, Op::Commit(t)));
    c.write_all(&burst).expect("send burst");
    c.shutdown(Shutdown::Write).expect("half-close");

    // The session reads EOF right behind the commit; it must still run
    // both requests, and only then close (aborting what is left open).
    for id in [2, 3] {
        let resp = recv(&mut c);
        assert_eq!((resp.id, resp.reply), (id, Reply::Ok(ReplyBody::Unit)));
    }
    assert!(wire::read_frame(&mut c).expect("clean close").is_none(), "then the session ends");
    let (mut other, _) = connect(server.local_addr());
    assert_eq!(call(&mut other, 1, Op::ValueOf(ob)), Reply::Ok(ReplyBody::Value(42)));
    drop(other);
    let _db = server.shutdown().expect("drain");
}

#[test]
fn an_undecodable_frame_is_answered_once_then_the_session_ends() {
    let _serial = serial();
    let server = mem_server();
    let (mut c, _) = connect(server.local_addr());
    // A ping, a frame whose CRC holds but whose payload is no request,
    // and a ping that must never run.
    let mut burst = frame(1, Op::Ping);
    burst.extend(rh_wal::frame::encode(&[0xFF; 3]));
    burst.extend(frame(2, Op::Ping));
    c.write_all(&burst).expect("send burst");
    let mut replies: Vec<(u64, bool)> = (0..2)
        .map(|_| recv(&mut c))
        .map(|r| (r.id, matches!(r.reply, Reply::Err { .. })))
        .collect();
    replies.sort_unstable();
    assert_eq!(
        replies,
        [(0, true), (1, false)],
        "one error for the garbage, the ping before it ran"
    );
    // Then the server hangs up: EOF, or a reset if it left bytes unread.
    let hung_up = matches!(wire::read_frame(&mut c), Ok(None) | Err(_));
    assert!(hung_up, "the session ends without answering the last ping");
    let _db = server.shutdown().expect("drain");
}
