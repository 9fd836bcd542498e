//! Per-connection machinery: admission, the session thread, and
//! operation execution.
//!
//! Each admitted socket gets exactly one thread. It reads a request,
//! executes it and writes the reply (tagged with the request's id),
//! in arrival order. Reads are buffered, so a pipelined burst arrives
//! at once: each time the session reads, it queues every whole frame
//! already received, up to the advertised in-flight cap, and answers
//! the frames past the cap with [`Reply::Busy`] — explicit
//! backpressure instead of unbounded queueing. When the stream ends
//! (peer gone, idle timeout, garbage, drain) the session still runs
//! what it queued, then aborts its still-open transactions and
//! deregisters.
//!
//! A `ReplSubscribe` turns the session thread into the ship loop, the
//! socket's only writer; one extra thread then reads the subscriber's
//! acks for it.
//!
//! Commits are two-phase against the owning shard's engine mutex:
//! prepare (append commit record, release locks) happens under it, the
//! durable force happens outside it so concurrent sessions share one
//! group-commit fsync. See [`rh_core::engine::RhDb::commit_prepare`] for
//! the safety argument.

use crate::server::Shared;
use crate::wire::{self, errcode, Hello, Op, ReplMsg, Reply, ReplyBody, Request, Response};
use rh_common::codec::Codec;
use rh_common::ops::Value;
use rh_common::{Lsn, Result, RhError, TxnId};
use rh_obs::{names, Stopwatch};
use rh_wal::{frame, LogManager};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Handles one freshly accepted socket: admission, hello, thread.
/// Runs on the accept thread, so everything here is non-blocking or
/// bounded (the hello write is one small frame to a just-connected
/// peer).
pub(crate) fn accept(shared: &Arc<Shared>, stream: TcpStream) {
    if shared.draining.load(Ordering::SeqCst) {
        reject(shared, stream);
        return;
    }
    // Replies are small frames; without this they sit in Nagle's buffer
    // waiting for the client's delayed ACK, turning every round trip
    // into a potential 40ms stall.
    let _ = stream.set_nodelay(true);
    let Ok(table_half) = stream.try_clone() else {
        return;
    };
    let admitted = {
        let mut table = shared.sessions.lock();
        table.admit(table_half, shared.cfg.max_sessions)
    };
    let Some(sid) = admitted else {
        reject(shared, stream);
        return;
    };
    let hello =
        Hello { accepted: true, session: sid, inflight_cap: shared.cfg.inflight_per_conn as u32 };
    if wire::write_frame(&mut &stream, &hello.to_bytes()).is_err() {
        close_session(shared, sid);
        return;
    }
    shared.obs.registry.inc(names::M_SRV_SESSIONS_OPENED);
    shared.session_gauge();

    let session = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("rh-serve-s{sid}"))
            .spawn(move || session_loop(&shared, sid, stream))
    };
    match session {
        Ok(h) => shared.track_thread(h),
        // No thread: undo the registration; nothing ran yet.
        Err(_) => close_session(shared, sid),
    }
}

/// Answers an unadmittable connection: rejected hello, then hang up.
fn reject(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared.obs.registry.inc(names::M_SRV_SESSIONS_REJECTED);
    let hello = Hello { accepted: false, session: 0, inflight_cap: 0 };
    let _ = wire::write_frame(&mut stream, &hello.to_bytes());
}

/// The session loop: take requests in, execute them in order, reply;
/// once the stream is over, run what is still queued and tear the
/// session down.
fn session_loop(shared: &Arc<Shared>, sid: u64, stream: TcpStream) {
    // The session reads only with an empty queue, so the timeout counts
    // time spent waiting for the next request and nothing else.
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    let mut conn = BufReader::new(stream);
    let mut queue = VecDeque::new();
    let mut open = true;
    loop {
        if open && queue.is_empty() {
            open = read_requests(shared, &mut conn, &mut queue);
        }
        let Some((req, queued)) = queue.pop_front() else { break };
        // A subscription handshake turns this thread into the ship
        // loop: one Ok(Unit) response, then the socket carries raw
        // `ReplMsg` frames until the subscriber (or the server) goes
        // away. The connection is dedicated from here on.
        if let Op::ReplSubscribe { shard, from } = req.op {
            let log = shared.backend.ship_log(shard);
            let reply = log.as_ref().map_or_else(wire::error_reply, |_| Reply::Ok(ReplyBody::Unit));
            send_reply(conn.get_ref(), Response { id: req.id, reply });
            if let Ok(log) = log {
                subscribe(shared, sid, &log, shard, from, conn);
                break;
            }
            continue;
        }
        serve(shared, sid, req, queued, conn.get_ref());
    }
    close_session(shared, sid);
}

/// Takes requests off the socket into `queue`: waits for the next
/// frame, then takes every further frame already received. Past the
/// in-flight cap a frame is answered BUSY instead, and during drain
/// DRAINING. Returns `false` once the stream is over: hang-up, idle
/// timeout, a transport error, or a frame that does not decode.
fn read_requests(
    shared: &Shared,
    conn: &mut BufReader<TcpStream>,
    queue: &mut VecDeque<(Request, Stopwatch)>,
) -> bool {
    loop {
        let Ok(Some(payload)) = wire::read_frame(conn) else { return false };
        shared.obs.registry.inc(names::M_SRV_REQUESTS);
        let req = match Request::from_bytes(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A frame that passed CRC but does not decode is a
                // protocol bug, not line noise: answer once, hang up.
                send_reply(conn.get_ref(), Response { id: 0, reply: wire::error_reply(&e) });
                return false;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            let reply =
                Reply::Err { code: errcode::DRAINING, message: "server is draining".to_string() };
            send_reply(conn.get_ref(), Response { id: req.id, reply });
        } else if queue.len() >= shared.cfg.inflight_per_conn.max(1) {
            // Backpressure: the pipeline is at the advertised cap.
            // The op was NOT attempted; the client may resend.
            shared.obs.registry.inc(names::M_SRV_REPLIES_BUSY);
            send_reply(conn.get_ref(), Response { id: req.id, reply: Reply::Busy });
        } else {
            // The stopwatch's reading at execution start *is* the
            // session-queue wait (phase.queue_wait).
            queue.push_back((req, Stopwatch::start()));
        }
        // Stop at the first frame not wholly received: reading it could
        // block.
        if frame::frames(conn.buffer()).next().is_none() {
            return true;
        }
    }
}

/// Executes one request and writes its reply, then feeds the latency
/// histograms, the phase points and the slow-op log.
fn serve(shared: &Arc<Shared>, sid: u64, req: Request, queued: Stopwatch, out: &TcpStream) {
    let queue_us = queued.elapsed_micros();
    let sw = Stopwatch::start();
    let txn = txn_of(&req.op);
    let label = op_name(&req.op);
    let wants_shutdown = matches!(req.op, Op::Shutdown);
    shared.obs.registry.observe(names::M_SRV_QUEUE_US, queue_us);
    shared.obs.tracer.phase(names::PH_QUEUE_WAIT, txn, req.trace, queue_us);
    let (reply, mut phases) = execute(shared, sid, req.op, req.trace);
    if matches!(reply, Reply::Err { .. }) {
        shared.obs.registry.inc(names::M_SRV_REPLIES_ERR);
    }
    // Snapshot *before* the reply write: once the reply is on the
    // wire the client's round-trip clock may stop, so any time this
    // thread loses afterwards must not be attributed to the request
    // (a waterfall summing past the round trip reads as overlap).
    let pre_reply_us = sw.elapsed_micros();
    send_reply(out, Response { id: req.id, reply });
    let service_us = sw.elapsed_micros();
    shared.obs.registry.observe(names::M_SRV_REQUEST_US, service_us);
    if !phases.is_empty() {
        // Whatever the instrumented phases did not cover — dispatch
        // and router orchestration between forces — becomes its own
        // disjoint phase, so the stitched waterfall sums to the
        // whole pre-reply service interval and can be held against
        // the client-observed round trip.
        let attributed: u64 = phases.iter().map(|&(_, us)| us).sum();
        let other_us = pre_reply_us.saturating_sub(attributed);
        shared.obs.tracer.phase(names::PH_SERVE_OTHER, txn, req.trace, other_us);
        phases.push((names::PH_SERVE_OTHER, other_us));
    }
    for &(name, us) in &phases {
        observe_phase(&shared.obs, name, us);
    }
    // Slow-op admission uses the *client-visible* total (queue wait
    // included), and the retained entry carries the full phase
    // breakdown so a postmortem waterfall needs nothing else.
    let total_us = queue_us + service_us;
    if total_us >= shared.obs.slowops.threshold_us() {
        phases.insert(0, (names::PH_QUEUE_WAIT, queue_us));
        shared.obs.record_slow_op(label, txn, req.trace, total_us, phases);
    }
    if wants_shutdown {
        shared.request_shutdown();
    }
}

/// The transaction an op acts on, as a raw id for trace attribution
/// (`rh_obs::trace::NONE` for transaction-less ops).
fn txn_of(op: &Op) -> u64 {
    match op {
        Op::Read(t, _)
        | Op::Write(t, _, _)
        | Op::Add(t, _, _)
        | Op::Delegate(t, _, _)
        | Op::DelegateAll(t, _)
        | Op::Permit(t, _, _)
        | Op::Commit(t)
        | Op::Abort(t)
        | Op::Savepoint(t)
        | Op::RollbackTo(t, _) => t.0,
        Op::Begin
        | Op::ValueOf(_)
        | Op::ValueOfMin(..)
        | Op::Durable(_)
        | Op::ReadAsOf(..)
        | Op::History(..)
        | Op::ReplSubscribe { .. }
        | Op::ReplAck(_)
        | Op::Stats
        | Op::Ping
        | Op::Shutdown => rh_obs::trace::NONE,
    }
}

/// A stable label for the slow-op log.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Begin => "begin",
        Op::Read(..) => "read",
        Op::Write(..) => "write",
        Op::Add(..) => "add",
        Op::Delegate(..) => "delegate",
        Op::DelegateAll(..) => "delegate_all",
        Op::Permit(..) => "permit",
        Op::Commit(..) => "commit",
        Op::Abort(..) => "abort",
        Op::Savepoint(..) => "savepoint",
        Op::RollbackTo(..) => "rollback_to",
        Op::ValueOf(..) => "value_of",
        Op::ValueOfMin(..) => "value_of_min",
        Op::Durable(..) => "durable",
        Op::ReadAsOf(..) => "read_as_of",
        Op::History(..) => "history",
        Op::ReplSubscribe { .. } => "repl_subscribe",
        Op::ReplAck(..) => "repl_ack",
        Op::Stats => "stats",
        Op::Ping => "ping",
        Op::Shutdown => "shutdown",
    }
}

/// Feeds one measured phase into its per-phase latency histogram. The
/// tracer points were already emitted where the phase ran (see
/// `ShardedDb::commit_traced`); the histograms all land here, on the *serving*
/// obs, so `/stats` and `/metrics` aggregate them in one place without
/// double-counting against shard registries.
fn observe_phase(obs: &rh_obs::Obs, name: &'static str, us: u64) {
    let hist = match name {
        names::PH_ENGINE_HOLD => names::M_SRV_ENGINE_US,
        names::PH_COMMIT_PREPARE => names::M_SRV_COMMIT_PREPARE_US,
        names::PH_FLUSH_WAIT => names::M_SRV_FLUSH_US,
        names::PH_2PC_PREPARE => names::M_SHARD_PREPARE_US,
        names::PH_2PC_COORD => names::M_SHARD_COORD_US,
        names::PH_2PC_RESOLVE => names::M_SHARD_RESOLVE_US,
        _ => return,
    };
    obs.registry.observe(hist, us);
}

/// Writes one response frame. Write errors are final for the socket;
/// the session's next read notices.
fn send_reply(mut out: &TcpStream, resp: Response) {
    let _ = wire::write_frame(&mut out, &resp.to_bytes());
}

/// Deregisters `sid` and aborts its still-open transactions. Idempotent
/// (the second caller finds no entry). After [`Server::force_stop`]
/// set the killed flag, this does nothing — a simulated kill-9 must
/// leave open transactions as recovery losers, not tidily aborted.
///
/// [`Server::force_stop`]: crate::Server::force_stop
pub(crate) fn close_session(shared: &Arc<Shared>, sid: u64) {
    if shared.killed.load(Ordering::SeqCst) {
        return;
    }
    let leftovers = {
        let mut table = shared.sessions.lock();
        table.close(sid)
    };
    let Some(leftovers) = leftovers else { return };
    for t in &leftovers {
        if shared.backend.primary().and_then(|db| db.abort(*t)).is_ok() {
            shared.obs.registry.inc(names::M_SRV_TXNS_ABORTED_ON_CLOSE);
        }
    }
    shared.obs.registry.inc(names::M_SRV_SESSIONS_CLOSED);
    shared.session_gauge();
}

/// Executes one operation against the shared backend, producing the
/// reply plus the op's measured commit phases (empty for everything but
/// `Commit`). Engine guards live inside the router's methods and are
/// scoped as tightly as possible: nothing here holds an engine mutex
/// across a socket write, and commit forces happen outside the mutex.
fn execute(
    shared: &Arc<Shared>,
    sid: u64,
    op: Op,
    trace: u64,
) -> (Reply, Vec<(&'static str, u64)>) {
    // Transactional ops need the writable database; a replica refuses
    // them.
    let db = shared.backend.primary();
    let reply = match op {
        Op::Begin => match db.and_then(|db| db.begin()) {
            Ok(t) => {
                {
                    let mut table = shared.sessions.lock();
                    table.note_begin(sid, t);
                }
                Reply::Ok(ReplyBody::Txn(t))
            }
            Err(e) => wire::error_reply(&e),
        },
        Op::Read(t, ob) => value_reply(db.and_then(|db| db.read(t, ob))),
        Op::Write(t, ob, v) => unit_reply(db.and_then(|db| db.write(t, ob, v))),
        Op::Add(t, ob, d) => unit_reply(db.and_then(|db| db.add(t, ob, d))),
        Op::Delegate(tor, tee, obs) => unit_reply(db.and_then(|db| db.delegate(tor, tee, &obs))),
        Op::DelegateAll(tor, tee) => unit_reply(db.and_then(|db| db.delegate_all(tor, tee))),
        Op::Permit(g, p, ob) => unit_reply(db.and_then(|db| db.permit(g, p, ob))),
        Op::Commit(t) => return commit(shared, t, trace),
        Op::Abort(t) => match db.and_then(|db| db.abort(t)) {
            Ok(()) => {
                {
                    let mut table = shared.sessions.lock();
                    table.note_terminated(t);
                }
                Reply::Ok(ReplyBody::Unit)
            }
            Err(e) => wire::error_reply(&e),
        },
        Op::Savepoint(t) => match db.and_then(|db| db.savepoint(t)) {
            Ok(token) => Reply::Ok(ReplyBody::Token(token)),
            Err(e) => wire::error_reply(&e),
        },
        Op::RollbackTo(t, token) => unit_reply(db.and_then(|db| db.rollback_to(t, token))),
        Op::ValueOf(ob) => value_reply(shared.backend.value_of(ob)),
        // The staleness-bounded read: a primary answers immediately, a
        // replica blocks (up to the configured deadline) for its forward
        // pass to reach the bound — or refuses with REPL_LAGGING.
        Op::ValueOfMin(ob, min_lsn) => {
            value_reply(shared.backend.value_of_min(ob, min_lsn, shared.cfg.staleness_deadline))
        }
        Op::Durable(ob) => match shared.backend.durable_watermark(ob) {
            Ok(token) => Reply::Ok(ReplyBody::Token(token)),
            Err(e) => wire::error_reply(&e),
        },
        // The session loop answers subscription requests itself, so
        // only a stray ack gets here; acks are only meaningful inside a
        // subscription.
        Op::ReplSubscribe { .. } | Op::ReplAck(_) => {
            wire::error_reply(&rh_common::RhError::Protocol(
                "replication ops are valid only on a dedicated subscription connection",
            ))
        }
        // Time-travel ops replay the WAL without any engine mutex (see
        // `Backend::read_as_of`), so a deep-history reenactment never
        // stalls concurrent writers.
        Op::ReadAsOf(ob, as_of) => value_reply(shared.backend.read_as_of(ob, as_of)),
        Op::History(ob, from, to) => match shared.backend.history_json(ob, from, to) {
            Ok(json) => Reply::Ok(ReplyBody::Json(json)),
            Err(e) => wire::error_reply(&e),
        },
        Op::Stats => Reply::Ok(ReplyBody::Json(shared.backend.stats_json())),
        Op::Ping | Op::Shutdown => Reply::Ok(ReplyBody::Unit),
    };
    (reply, Vec::new())
}

/// Runs a subscribed connection. The session thread becomes the ship
/// loop, the socket's only writer, and one extra thread reads the
/// subscriber's acks into the registry. Whichever side ends the stream
/// shuts the socket, which ends the other: the ship loop fails its next
/// write, the ack reader reads EOF. A subscriber sends nothing before
/// the handshake reply; anything queued behind it goes unanswered.
fn subscribe(
    shared: &Arc<Shared>,
    sid: u64,
    log: &Arc<LogManager>,
    shard: u32,
    from: Lsn,
    conn: BufReader<TcpStream>,
) {
    let Ok(out) = conn.get_ref().try_clone() else { return };
    let sub = shared.repl.subscribe(shard, from);
    shared.obs.registry.set(names::M_REPL_SUBSCRIBERS, shared.repl.subscriber_count());
    let acks = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("rh-serve-a{sid}"))
            .spawn(move || read_acks(&shared, sub, conn))
    };
    if let Ok(h) = acks {
        shared.track_thread(h);
        ship_loop(shared, log, sub, from, &out);
    }
    let _ = out.shutdown(Shutdown::Both);
    shared.repl.unsubscribe(sub);
    shared.obs.registry.set(names::M_REPL_SUBSCRIBERS, shared.repl.subscriber_count());
}

/// The ack reader of subscription `sub`: folds each `ReplAck` into the
/// registry (acks are never replied to). The stream's end, an idle
/// timeout, or anything but an ack ends the subscription.
fn read_acks(shared: &Shared, sub: u64, mut conn: BufReader<TcpStream>) {
    while let Ok(Some(payload)) = wire::read_frame(&mut conn) {
        shared.obs.registry.inc(names::M_SRV_REQUESTS);
        let Ok(Request { op: Op::ReplAck(acked), .. }) = Request::from_bytes(&payload) else {
            break;
        };
        shared.repl.acked(sub, acked);
        shared.obs.registry.inc(names::M_REPL_ACKS);
    }
    let _ = conn.get_ref().shutdown(Shutdown::Both);
}

/// How often the ship loop emits a heartbeat when the log is quiet —
/// the subscriber's liveness signal and its cue to ack/flush. Must be
/// comfortably below the subscriber's heartbeat-grace read timeout.
const SHIP_HEARTBEAT: Duration = Duration::from_millis(500);

/// The log-shipping loop of subscription `sub`: stream every
/// **durable** record from `from` upward as [`ReplMsg::Frame`]s and
/// heartbeat when caught up, until drain or a failed write. Shipping
/// only durable records keeps the stream a prefix of what a crash of
/// this primary would preserve — a replica can never hold state the
/// primary itself would lose — and
/// [`rh_wal::LogManager::wait_durable`] provides exactly that watermark
/// without ever forcing a sync of its own: committers drive
/// durability, the ship loop rides their group commits.
fn ship_loop(shared: &Shared, log: &LogManager, sub: u64, from: Lsn, out: &TcpStream) {
    let mut next = from;
    while !shared.draining.load(Ordering::SeqCst) {
        let durable = log.wait_durable(next.0 + 1, SHIP_HEARTBEAT);
        if durable > next.0 {
            let mut shipped = 0u64;
            // The stored bytes go out as they are: no decode, no re-encode.
            let streamed = log.scan_bytes(next, Lsn(durable), |lsn, record| {
                if !send_msg(out, &ReplMsg::Frame { lsn, record: record.to_vec() }) {
                    return Err(RhError::Protocol("replica stream closed"));
                }
                next = lsn.next();
                shipped += 1;
                Ok(())
            });
            shared.repl.shipped(sub, next, shipped);
            shared.obs.registry.add(names::M_REPL_FRAMES_SHIPPED, shipped);
            if streamed.is_err() {
                break;
            }
        } else {
            // Caught up and quiet: tell the subscriber we are alive and
            // where durability stands.
            if !send_msg(out, &ReplMsg::Heartbeat { durable: Lsn(durable) }) {
                break;
            }
            shared.repl.heartbeat(sub);
            shared.obs.registry.inc(names::M_REPL_HEARTBEATS);
        }
    }
}

/// Writes one stream message; `false` means the socket is dead and the
/// subscription is over.
fn send_msg(mut out: &TcpStream, msg: &ReplMsg) -> bool {
    wire::write_frame(&mut out, &msg.to_bytes()).is_ok()
}

/// Renders a unit-result backend operation.
fn unit_reply(ran: Result<()>) -> Reply {
    match ran {
        Ok(()) => Reply::Ok(ReplyBody::Unit),
        Err(e) => wire::error_reply(&e),
    }
}

/// Renders a value-result backend operation.
fn value_reply(read: Result<Value>) -> Reply {
    match read {
        Ok(v) => Reply::Ok(ReplyBody::Value(v)),
        Err(e) => wire::error_reply(&e),
    }
}

/// The durable commit path: acknowledge only after the router's force
/// (group-committed per shard — see `ShardedDb::commit_traced`).
/// Returns the phase breakdown the router measured, for histograms +
/// the slow-op log.
fn commit(shared: &Arc<Shared>, t: TxnId, trace: u64) -> (Reply, Vec<(&'static str, u64)>) {
    let phases = match shared.backend.primary().and_then(|db| db.commit_traced(t, trace)) {
        Ok(phases) => phases,
        Err(e) => return (wire::error_reply(&e), Vec::new()),
    };
    {
        let mut table = shared.sessions.lock();
        table.note_terminated(t);
    }
    shared.obs.registry.inc(names::M_SRV_COMMITS);
    if shared.first_ack_pending.swap(false, Ordering::Relaxed) {
        shared
            .obs
            .registry
            .observe(names::M_RECOVERY_FIRST_ACK_US, shared.started.elapsed_micros());
    }
    (Reply::Ok(ReplyBody::Unit), phases)
}
