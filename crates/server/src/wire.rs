//! The rh-server wire protocol: length-prefixed, CRC-framed binary
//! messages over a byte stream.
//!
//! Every message — request, reply, and the per-connection hello — is one
//! frame in exactly the stable log's on-disk convention
//! ([`rh_wal::frame`]): `[len: u32 LE][crc32: u32 LE][payload]`. Reusing
//! the WAL framing means the same torn/corrupt-detection logic guards
//! both the disk and the network, and a protocol trace can be decoded
//! with the same tooling as a log segment.
//!
//! Payloads use the workspace binary codec ([`rh_common::codec`]):
//!
//! ```text
//! request  := req_id: u64, trace_id: u64, opcode: u8, args…
//! response := req_id: u64, status: u8, body…        (status: OK/ERR/BUSY)
//! hello    := magic: u32, version: u32, status: u8, session: u64, cap: u32
//! ```
//!
//! `trace_id` (v2) is the client-assigned trace context: the server
//! attributes every measured phase of the request (queue wait, engine
//! hold, flush wait, 2PC edges) to it in the trace ring, and `rh-trace`
//! stitches them back into a waterfall. [`NO_TRACE`] means "untraced".
//! The field is negotiated implicitly by [`PROTOCOL_VERSION`]: a v1
//! peer rejects the v2 hello before any request is exchanged.
//!
//! Requests are answered exactly once, tagged with the request's
//! `req_id`; clients may pipeline any number of requests subject to the
//! advertised in-flight cap (excess is bounced with [`Reply::Busy`], not
//! queued unboundedly — §backpressure in DESIGN.md §12).

use rh_common::codec::{Codec, Reader, Writer};
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId};
use std::io::{self, Read, Write};

/// Protocol version carried in the hello frame. Bumped on any change to
/// the frame layout, opcode numbering, or reply encoding.
/// v2: requests carry a `trace_id` field after `req_id`.
/// v3: time-travel ops `ReadAsOf` (16) and `History` (17).
/// v4: replication — staleness-bounded reads `ValueOfMin` (18) and the
/// durable-watermark probe `Durable` (19), plus the log-shipping
/// subscription ops `ReplSubscribe` (20) / `ReplAck` (21) and the
/// server→subscriber [`ReplMsg`] stream frames.
pub const PROTOCOL_VERSION: u32 = 4;

/// The `trace_id` value meaning "this request is untraced".
pub const NO_TRACE: u64 = u64::MAX;

/// Magic prefix of the hello frame (`b"RHSV"` little-endian).
pub const HELLO_MAGIC: u32 = u32::from_le_bytes(*b"RHSV");

/// Hard cap on one wire payload. Requests are tiny (the largest is a
/// delegate with an object list); anything larger is a framing error,
/// rejected before allocation. Replies carrying stats JSON stay well
/// under this.
pub const MAX_WIRE_PAYLOAD: u32 = 1 << 20;

// ---- framing over a byte stream ---------------------------------------

/// Writes one frame (WAL conventions: `[len][crc][payload]`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&rh_wal::frame::encode(payload))?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the
/// stream cleanly *between* frames; EOF inside a frame, an implausible
/// length, or a CRC mismatch are errors (a torn network read, unlike a
/// torn log tail, has no benign interpretation — the connection dies).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; rh_wal::frame::HEADER_LEN];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame header"))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len == 0 || len > MAX_WIRE_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if rh_wal::frame::crc32(&payload) != crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame crc mismatch"));
    }
    Ok(Some(payload))
}

// ---- operations -------------------------------------------------------

/// One engine operation, as carried on the wire. The surface mirrors
/// [`rh_core::TxnEngine`] plus the savepoint pair and three
/// server-level verbs (`Stats`, `Ping`, `Shutdown`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Start a transaction; replies [`ReplyBody::Txn`].
    Begin,
    /// Transactional read; replies [`ReplyBody::Value`].
    Read(TxnId, ObjectId),
    /// Transactional overwrite.
    Write(TxnId, ObjectId, Value),
    /// Transactional commutative increment.
    Add(TxnId, ObjectId, Value),
    /// `delegate(tor, tee, obs)` — responsibility transfer (§2.1.2).
    Delegate(TxnId, TxnId, Vec<ObjectId>),
    /// `delegate(tor, tee)` of everything (the join idiom).
    DelegateAll(TxnId, TxnId),
    /// Commit; the reply is sent only after the commit record is
    /// durable (group-committed with concurrent sessions).
    Commit(TxnId),
    /// Abort (undo + CLRs).
    Abort(TxnId),
    /// Establish a savepoint; replies [`ReplyBody::Token`].
    Savepoint(TxnId),
    /// Partial rollback to a savepoint token.
    RollbackTo(TxnId, u64),
    /// ASSET `permit(granter, permittee, ob)`.
    Permit(TxnId, TxnId, ObjectId),
    /// Non-transactional peek; replies [`ReplyBody::Value`].
    ValueOf(ObjectId),
    /// One-stop metrics snapshot; replies [`ReplyBody::Json`].
    Stats,
    /// Liveness probe; replies [`ReplyBody::Unit`].
    Ping,
    /// Ask the server to drain and exit (abort leftovers, checkpoint,
    /// stop accepting). The reply is sent before the drain begins.
    Shutdown,
    /// Time-travel read: the committed value of the object at the LSN
    /// ([`rh_common::Lsn::NULL`] means the log tail), reenacted from
    /// the log without touching live pages or the engine mutex; replies
    /// [`ReplyBody::Value`].
    ReadAsOf(ObjectId, Lsn),
    /// The object's version timeline with update LSNs in the inclusive
    /// range, as a rendered `history.v1` JSON artifact; replies
    /// [`ReplyBody::Json`].
    History(ObjectId, Lsn, Lsn),
    /// Staleness-bounded peek (v4): like [`Op::ValueOf`], but the server
    /// must answer from state at least as fresh as the LSN. A primary is
    /// trivially fresh; a read replica blocks until its forward pass has
    /// applied that far (or replies [`errcode::REPL_LAGGING`] at its
    /// wait deadline). Replies [`ReplyBody::Value`].
    ValueOfMin(ObjectId, Lsn),
    /// Durable-watermark probe (v4): the raw LSN up to which the log
    /// owning this object is durable, as [`ReplyBody::Token`]. A commit
    /// ack precedes this probe, so the token bounds every effect that
    /// commit made durable — pass it as the `min_lsn` of a replica read
    /// for read-your-writes. On a replica backend the token is its
    /// `applied_lsn` instead, so the same probe measures apply progress.
    Durable(ObjectId),
    /// Subscribe this connection to the shard's log-shipping feed,
    /// starting at the LSN (v4). Answered with one `Ok(Unit)` response;
    /// the server then streams [`ReplMsg`] frames on the same socket
    /// until the subscriber disconnects. The connection stops being a
    /// request/response channel except for [`Op::ReplAck`].
    ReplSubscribe {
        /// Which shard's log to ship (0 for a one-shard server).
        shard: u32,
        /// First LSN wanted; must be ≥ the shard's retained horizon.
        from: Lsn,
    },
    /// Subscriber → server progress report (v4): the replica's
    /// `applied_lsn` for the subscribed shard. Fire-and-forget — the
    /// server records it for `/replication` lag accounting and sends
    /// **no** reply (the socket's server→client direction is the
    /// [`ReplMsg`] stream).
    ReplAck(Lsn),
}

const OP_BEGIN: u8 = 1;
const OP_READ: u8 = 2;
const OP_WRITE: u8 = 3;
const OP_ADD: u8 = 4;
const OP_DELEGATE: u8 = 5;
const OP_DELEGATE_ALL: u8 = 6;
const OP_COMMIT: u8 = 7;
const OP_ABORT: u8 = 8;
const OP_SAVEPOINT: u8 = 9;
const OP_ROLLBACK_TO: u8 = 10;
const OP_PERMIT: u8 = 11;
const OP_VALUE_OF: u8 = 12;
const OP_STATS: u8 = 13;
const OP_PING: u8 = 14;
const OP_SHUTDOWN: u8 = 15;
const OP_READ_AS_OF: u8 = 16;
const OP_HISTORY: u8 = 17;
const OP_VALUE_OF_MIN: u8 = 18;
const OP_DURABLE: u8 = 19;
const OP_REPL_SUBSCRIBE: u8 = 20;
const OP_REPL_ACK: u8 = 21;

impl Codec for Op {
    fn encode(&self, w: &mut Writer) {
        match self {
            Op::Begin => w.put_u8(OP_BEGIN),
            Op::Read(t, ob) => {
                w.put_u8(OP_READ);
                w.put_u64(t.0);
                w.put_u64(ob.0);
            }
            Op::Write(t, ob, v) => {
                w.put_u8(OP_WRITE);
                w.put_u64(t.0);
                w.put_u64(ob.0);
                w.put_i64(*v);
            }
            Op::Add(t, ob, d) => {
                w.put_u8(OP_ADD);
                w.put_u64(t.0);
                w.put_u64(ob.0);
                w.put_i64(*d);
            }
            Op::Delegate(tor, tee, obs) => {
                w.put_u8(OP_DELEGATE);
                w.put_u64(tor.0);
                w.put_u64(tee.0);
                w.put_u32(obs.len() as u32);
                for ob in obs {
                    w.put_u64(ob.0);
                }
            }
            Op::DelegateAll(tor, tee) => {
                w.put_u8(OP_DELEGATE_ALL);
                w.put_u64(tor.0);
                w.put_u64(tee.0);
            }
            Op::Commit(t) => {
                w.put_u8(OP_COMMIT);
                w.put_u64(t.0);
            }
            Op::Abort(t) => {
                w.put_u8(OP_ABORT);
                w.put_u64(t.0);
            }
            Op::Savepoint(t) => {
                w.put_u8(OP_SAVEPOINT);
                w.put_u64(t.0);
            }
            Op::RollbackTo(t, sp) => {
                w.put_u8(OP_ROLLBACK_TO);
                w.put_u64(t.0);
                w.put_u64(*sp);
            }
            Op::Permit(g, p, ob) => {
                w.put_u8(OP_PERMIT);
                w.put_u64(g.0);
                w.put_u64(p.0);
                w.put_u64(ob.0);
            }
            Op::ValueOf(ob) => {
                w.put_u8(OP_VALUE_OF);
                w.put_u64(ob.0);
            }
            Op::Stats => w.put_u8(OP_STATS),
            Op::Ping => w.put_u8(OP_PING),
            Op::Shutdown => w.put_u8(OP_SHUTDOWN),
            Op::ReadAsOf(ob, lsn) => {
                w.put_u8(OP_READ_AS_OF);
                w.put_u64(ob.0);
                w.put_u64(lsn.0);
            }
            Op::History(ob, from, to) => {
                w.put_u8(OP_HISTORY);
                w.put_u64(ob.0);
                w.put_u64(from.0);
                w.put_u64(to.0);
            }
            Op::ValueOfMin(ob, min) => {
                w.put_u8(OP_VALUE_OF_MIN);
                w.put_u64(ob.0);
                w.put_u64(min.0);
            }
            Op::Durable(ob) => {
                w.put_u8(OP_DURABLE);
                w.put_u64(ob.0);
            }
            Op::ReplSubscribe { shard, from } => {
                w.put_u8(OP_REPL_SUBSCRIBE);
                w.put_u32(*shard);
                w.put_u64(from.0);
            }
            Op::ReplAck(applied) => {
                w.put_u8(OP_REPL_ACK);
                w.put_u64(applied.0);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            OP_BEGIN => Op::Begin,
            OP_READ => Op::Read(TxnId(r.take_u64()?), ObjectId(r.take_u64()?)),
            OP_WRITE => Op::Write(TxnId(r.take_u64()?), ObjectId(r.take_u64()?), r.take_i64()?),
            OP_ADD => Op::Add(TxnId(r.take_u64()?), ObjectId(r.take_u64()?), r.take_i64()?),
            OP_DELEGATE => {
                let tor = TxnId(r.take_u64()?);
                let tee = TxnId(r.take_u64()?);
                let n = r.take_u32()?;
                if n as usize > MAX_WIRE_PAYLOAD as usize / 8 {
                    return Err(RhError::Codec("delegate object list implausibly long"));
                }
                let mut obs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    obs.push(ObjectId(r.take_u64()?));
                }
                Op::Delegate(tor, tee, obs)
            }
            OP_DELEGATE_ALL => Op::DelegateAll(TxnId(r.take_u64()?), TxnId(r.take_u64()?)),
            OP_COMMIT => Op::Commit(TxnId(r.take_u64()?)),
            OP_ABORT => Op::Abort(TxnId(r.take_u64()?)),
            OP_SAVEPOINT => Op::Savepoint(TxnId(r.take_u64()?)),
            OP_ROLLBACK_TO => Op::RollbackTo(TxnId(r.take_u64()?), r.take_u64()?),
            OP_PERMIT => {
                Op::Permit(TxnId(r.take_u64()?), TxnId(r.take_u64()?), ObjectId(r.take_u64()?))
            }
            OP_VALUE_OF => Op::ValueOf(ObjectId(r.take_u64()?)),
            OP_STATS => Op::Stats,
            OP_PING => Op::Ping,
            OP_SHUTDOWN => Op::Shutdown,
            OP_READ_AS_OF => Op::ReadAsOf(ObjectId(r.take_u64()?), Lsn(r.take_u64()?)),
            OP_HISTORY => {
                Op::History(ObjectId(r.take_u64()?), Lsn(r.take_u64()?), Lsn(r.take_u64()?))
            }
            OP_VALUE_OF_MIN => Op::ValueOfMin(ObjectId(r.take_u64()?), Lsn(r.take_u64()?)),
            OP_DURABLE => Op::Durable(ObjectId(r.take_u64()?)),
            OP_REPL_SUBSCRIBE => {
                Op::ReplSubscribe { shard: r.take_u32()?, from: Lsn(r.take_u64()?) }
            }
            OP_REPL_ACK => Op::ReplAck(Lsn(r.take_u64()?)),
            _ => return Err(RhError::Codec("unknown opcode")),
        })
    }
}

/// One request: a client-chosen correlation id, the trace context, and
/// the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Correlation id, echoed verbatim in the reply. Client-chosen;
    /// `0` is reserved for the hello exchange.
    pub id: u64,
    /// Client-assigned trace context, or [`NO_TRACE`]. The server tags
    /// every phase timer of this request with it.
    pub trace: u64,
    /// The operation to perform.
    pub op: Op,
}

impl Codec for Request {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        w.put_u64(self.trace);
        self.op.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Request { id: r.take_u64()?, trace: r.take_u64()?, op: Op::decode(r)? })
    }
}

// ---- replies ----------------------------------------------------------

/// The payload of a successful reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// Nothing beyond success.
    Unit,
    /// A transaction id (from `Begin`).
    Txn(TxnId),
    /// An object value (from `Read` / `ValueOf`).
    Value(Value),
    /// A savepoint token (from `Savepoint`; the router's token, opaque
    /// to clients) or a durable watermark (from `Durable`).
    Token(u64),
    /// A rendered JSON document (from `Stats`).
    Json(String),
}

const BODY_UNIT: u8 = 0;
const BODY_TXN: u8 = 1;
const BODY_VALUE: u8 = 2;
const BODY_TOKEN: u8 = 3;
const BODY_JSON: u8 = 4;

impl Codec for ReplyBody {
    fn encode(&self, w: &mut Writer) {
        match self {
            ReplyBody::Unit => w.put_u8(BODY_UNIT),
            ReplyBody::Txn(t) => {
                w.put_u8(BODY_TXN);
                w.put_u64(t.0);
            }
            ReplyBody::Value(v) => {
                w.put_u8(BODY_VALUE);
                w.put_i64(*v);
            }
            ReplyBody::Token(sp) => {
                w.put_u8(BODY_TOKEN);
                w.put_u64(*sp);
            }
            ReplyBody::Json(s) => {
                w.put_u8(BODY_JSON);
                w.put_bytes(s.as_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            BODY_UNIT => ReplyBody::Unit,
            BODY_TXN => ReplyBody::Txn(TxnId(r.take_u64()?)),
            BODY_VALUE => ReplyBody::Value(r.take_i64()?),
            BODY_TOKEN => ReplyBody::Token(r.take_u64()?),
            BODY_JSON => {
                let bytes = r.take_bytes()?;
                let s = String::from_utf8(bytes).map_err(|_| RhError::Codec("non-utf8 json"))?;
                ReplyBody::Json(s)
            }
            _ => return Err(RhError::Codec("unknown reply body tag")),
        })
    }
}

/// The outcome of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success, with an operation-specific body.
    Ok(ReplyBody),
    /// The engine (or the server) refused the operation. `code` is an
    /// [`errcode`] constant; `message` is human-readable context.
    Err {
        /// Stable numeric error class (see [`errcode`]).
        code: u8,
        /// Rendered error detail.
        message: String,
    },
    /// Backpressure: the per-connection in-flight cap was exceeded.
    /// The operation was **not** attempted; resend after draining
    /// outstanding replies.
    Busy,
}

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;
const STATUS_BUSY: u8 = 2;

/// One response frame: the request's correlation id plus the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The originating request's `id`.
    pub id: u64,
    /// Outcome.
    pub reply: Reply,
}

impl Codec for Response {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        match &self.reply {
            Reply::Ok(body) => {
                w.put_u8(STATUS_OK);
                body.encode(w);
            }
            Reply::Err { code, message } => {
                w.put_u8(STATUS_ERR);
                w.put_u8(*code);
                w.put_bytes(message.as_bytes());
            }
            Reply::Busy => w.put_u8(STATUS_BUSY),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let id = r.take_u64()?;
        let reply = match r.take_u8()? {
            STATUS_OK => Reply::Ok(ReplyBody::decode(r)?),
            STATUS_ERR => {
                let code = r.take_u8()?;
                let bytes = r.take_bytes()?;
                let message =
                    String::from_utf8(bytes).map_err(|_| RhError::Codec("non-utf8 message"))?;
                Reply::Err { code, message }
            }
            STATUS_BUSY => Reply::Busy,
            _ => return Err(RhError::Codec("unknown reply status")),
        };
        Ok(Response { id, reply })
    }
}

// ---- hello ------------------------------------------------------------

/// The server's first frame on every accepted socket: protocol
/// identification plus the admission verdict. A rejected hello
/// (`accepted == false`) is followed by the server closing the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Whether the session was admitted (admission control: bounded
    /// session count; `false` also while the server is draining).
    pub accepted: bool,
    /// Server-assigned session id (0 when rejected).
    pub session: u64,
    /// Per-connection in-flight request cap; pipelining beyond this
    /// earns [`Reply::Busy`].
    pub inflight_cap: u32,
}

impl Codec for Hello {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(HELLO_MAGIC);
        w.put_u32(PROTOCOL_VERSION);
        w.put_u8(u8::from(self.accepted));
        w.put_u64(self.session);
        w.put_u32(self.inflight_cap);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        if r.take_u32()? != HELLO_MAGIC {
            return Err(RhError::Codec("bad hello magic"));
        }
        let got = r.take_u32()?;
        if got != PROTOCOL_VERSION {
            return Err(RhError::VersionMismatch { got, want: PROTOCOL_VERSION });
        }
        let accepted = r.take_u8()? != 0;
        Ok(Hello { accepted, session: r.take_u64()?, inflight_cap: r.take_u32()? })
    }
}

// ---- replication stream -----------------------------------------------

/// One server→subscriber frame on a log-shipping connection (v4).
///
/// After a [`Op::ReplSubscribe`] is acknowledged, the server's side of
/// the socket becomes a stream of these — each its own CRC frame, so a
/// subscriber detects torn/corrupt ships exactly as recovery detects a
/// torn log tail. Records are shipped **only once durable** on the
/// primary (`lsn < durable_len`), so a subscriber's applied prefix is
/// always a prefix of the log that would survive a primary crash — a
/// promoted replica can never know history the primary's disk lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// One log record: its primary-assigned LSN plus the encoded
    /// [`rh_wal::record::LogRecord`] bytes, opaque at this layer. LSNs
    /// arrive dense and in order; a gap is a protocol error.
    Frame {
        /// The record's LSN on the primary.
        lsn: Lsn,
        /// The encoded `LogRecord` (same codec as the stable log).
        record: Vec<u8>,
    },
    /// Liveness + progress when there is nothing to ship: the primary's
    /// durable watermark. Lets the subscriber distinguish "caught up"
    /// from "primary dead" and feeds lag-in-µs accounting.
    Heartbeat {
        /// The shard log's durable length (exclusive upper LSN bound).
        durable: Lsn,
    },
}

const REPL_FRAME: u8 = 1;
const REPL_HEARTBEAT: u8 = 2;

impl Codec for ReplMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            ReplMsg::Frame { lsn, record } => {
                w.put_u8(REPL_FRAME);
                w.put_u64(lsn.0);
                w.put_bytes(record);
            }
            ReplMsg::Heartbeat { durable } => {
                w.put_u8(REPL_HEARTBEAT);
                w.put_u64(durable.0);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            REPL_FRAME => ReplMsg::Frame { lsn: Lsn(r.take_u64()?), record: r.take_bytes()? },
            REPL_HEARTBEAT => ReplMsg::Heartbeat { durable: Lsn(r.take_u64()?) },
            _ => return Err(RhError::Codec("unknown repl message tag")),
        })
    }
}

// ---- error codes ------------------------------------------------------

/// Stable numeric classes for [`Reply::Err`]. The engine's
/// [`RhError`] carries `&'static str` and typed ids that cannot
/// round-trip a process boundary; the wire carries class + rendered
/// message instead.
pub mod errcode {
    /// Unclassified server-side failure.
    pub const OTHER: u8 = 0;
    /// [`rh_common::RhError::UnknownTxn`].
    pub const UNKNOWN_TXN: u8 = 1;
    /// [`rh_common::RhError::TxnNotActive`].
    pub const TXN_NOT_ACTIVE: u8 = 2;
    /// [`rh_common::RhError::NotResponsible`].
    pub const NOT_RESPONSIBLE: u8 = 3;
    /// [`rh_common::RhError::SelfDelegation`].
    pub const SELF_DELEGATION: u8 = 4;
    /// [`rh_common::RhError::LockConflict`].
    pub const LOCK_CONFLICT: u8 = 5;
    /// [`rh_common::RhError::Deadlock`].
    pub const DEADLOCK: u8 = 6;
    /// [`rh_common::RhError::UnknownObject`].
    pub const UNKNOWN_OBJECT: u8 = 7;
    /// [`rh_common::RhError::CorruptLog`].
    pub const CORRUPT_LOG: u8 = 8;
    /// [`rh_common::RhError::Codec`].
    pub const CODEC: u8 = 9;
    /// [`rh_common::RhError::Storage`].
    pub const STORAGE: u8 = 10;
    /// [`rh_common::RhError::DependencyCycle`].
    pub const DEPENDENCY_CYCLE: u8 = 11;
    /// [`rh_common::RhError::Protocol`].
    pub const PROTOCOL: u8 = 12;
    /// The server is draining and takes no new work.
    pub const DRAINING: u8 = 13;
    /// [`rh_common::RhError::VersionMismatch`] — the peers speak
    /// different wire-protocol versions.
    pub const VERSION_MISMATCH: u8 = 14;
    /// [`rh_common::RhError::Reenact`] — a time-travel target the log
    /// can no longer answer (history truncated past it).
    pub const REENACT: u8 = 15;
    /// [`rh_common::RhError::ReplLagging`] — a replica could not reach
    /// the read's `min_lsn` freshness bound within its wait deadline.
    pub const REPL_LAGGING: u8 = 16;
}

/// Maps an engine error to its wire class.
pub fn error_code(e: &RhError) -> u8 {
    match e {
        RhError::UnknownTxn(_) => errcode::UNKNOWN_TXN,
        RhError::TxnNotActive(_) => errcode::TXN_NOT_ACTIVE,
        RhError::NotResponsible { .. } => errcode::NOT_RESPONSIBLE,
        RhError::SelfDelegation(_) => errcode::SELF_DELEGATION,
        RhError::LockConflict { .. } => errcode::LOCK_CONFLICT,
        RhError::Deadlock { .. } => errcode::DEADLOCK,
        RhError::UnknownObject(_) => errcode::UNKNOWN_OBJECT,
        RhError::CorruptLog { .. } => errcode::CORRUPT_LOG,
        RhError::Codec(_) => errcode::CODEC,
        RhError::Storage(_) => errcode::STORAGE,
        RhError::DependencyCycle { .. } => errcode::DEPENDENCY_CYCLE,
        RhError::Protocol(_) => errcode::PROTOCOL,
        RhError::VersionMismatch { .. } => errcode::VERSION_MISMATCH,
        RhError::Reenact { .. } => errcode::REENACT,
        RhError::ReplLagging { .. } => errcode::REPL_LAGGING,
    }
}

/// Builds the [`Reply::Err`] for an engine error.
pub fn error_reply(e: &RhError) -> Reply {
    Reply::Err { code: error_code(e), message: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + core::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn ops_round_trip() {
        for op in [
            Op::Begin,
            Op::Read(TxnId(1), ObjectId(2)),
            Op::Write(TxnId(1), ObjectId(2), -3),
            Op::Add(TxnId(1), ObjectId(2), 40),
            Op::Delegate(TxnId(1), TxnId(2), vec![ObjectId(3), ObjectId(4)]),
            Op::DelegateAll(TxnId(1), TxnId(2)),
            Op::Commit(TxnId(9)),
            Op::Abort(TxnId(9)),
            Op::Savepoint(TxnId(9)),
            Op::RollbackTo(TxnId(9), 77),
            Op::Permit(TxnId(1), TxnId(2), ObjectId(3)),
            Op::ValueOf(ObjectId(5)),
            Op::Stats,
            Op::Ping,
            Op::Shutdown,
            Op::ReadAsOf(ObjectId(5), Lsn(17)),
            Op::ReadAsOf(ObjectId(5), Lsn::NULL),
            Op::History(ObjectId(5), Lsn(0), Lsn::NULL),
            Op::ValueOfMin(ObjectId(5), Lsn(17)),
            Op::Durable(ObjectId(5)),
            Op::ReplSubscribe { shard: 3, from: Lsn(200) },
            Op::ReplAck(Lsn(199)),
        ] {
            round_trip(Request { id: 42, trace: 99, op });
        }
    }

    #[test]
    fn repl_msgs_round_trip() {
        round_trip(ReplMsg::Frame { lsn: Lsn(12), record: vec![1, 2, 3, 4] });
        round_trip(ReplMsg::Heartbeat { durable: Lsn(99) });
        // An unknown tag is a codec error, not a panic.
        assert!(ReplMsg::from_bytes(&[9, 0, 0]).is_err());
    }

    #[test]
    fn responses_round_trip() {
        for reply in [
            Reply::Ok(ReplyBody::Unit),
            Reply::Ok(ReplyBody::Txn(TxnId(7))),
            Reply::Ok(ReplyBody::Value(-12)),
            Reply::Ok(ReplyBody::Token(123)),
            Reply::Ok(ReplyBody::Json("{\"a\": 1}".into())),
            Reply::Err { code: errcode::LOCK_CONFLICT, message: "conflict".into() },
            Reply::Busy,
        ] {
            round_trip(Response { id: 7, reply });
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        round_trip(Hello { accepted: true, session: 3, inflight_cap: 32 });
        let mut bytes = Hello { accepted: true, session: 3, inflight_cap: 32 }.to_bytes();
        bytes[0] ^= 0xff;
        assert!(Hello::from_bytes(&bytes).is_err());
    }

    #[test]
    fn hello_version_mismatch_is_a_dedicated_error_class() {
        // A peer announcing a different version must surface as
        // VersionMismatch (stable class, both versions named) — not as a
        // generic Codec failure.
        let mut bytes = Hello { accepted: true, session: 3, inflight_cap: 32 }.to_bytes();
        bytes[4..8].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        let err = Hello::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            RhError::VersionMismatch { got: PROTOCOL_VERSION + 1, want: PROTOCOL_VERSION }
        );
        assert_eq!(error_code(&err), errcode::VERSION_MISMATCH);
        let msg = err.to_string();
        assert!(msg.contains(&format!("v{}", PROTOCOL_VERSION + 1)), "message: {msg}");
        assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "message: {msg}");
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request { id: 1, trace: NO_TRACE, op: Op::Ping }.to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        write_frame(&mut buf, &req).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(req.clone()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(req));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn corrupt_frames_are_io_errors() {
        let req = Request { id: 1, trace: NO_TRACE, op: Op::Ping }.to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        // Flip a payload bit: CRC mismatch.
        let n = buf.len();
        buf[n - 1] ^= 0x01;
        assert!(read_frame(&mut &buf[..]).unwrap_err().kind() == io::ErrorKind::InvalidData);
        // Truncate mid-payload: unexpected EOF.
        let mut short = Vec::new();
        write_frame(&mut short, &req).unwrap();
        short.truncate(short.len() - 2);
        assert!(read_frame(&mut &short[..]).is_err());
        // Implausible length.
        let mut bogus = vec![0xff; 8];
        bogus.extend_from_slice(&[0; 4]);
        assert!(read_frame(&mut &bogus[..]).is_err());
    }

    #[test]
    fn error_codes_cover_every_variant() {
        assert_eq!(error_code(&RhError::UnknownTxn(TxnId(1))), errcode::UNKNOWN_TXN);
        assert_eq!(
            error_code(&RhError::ReplLagging { min_lsn: Lsn(9), applied: Lsn(4) }),
            errcode::REPL_LAGGING
        );
        assert_eq!(
            error_code(&RhError::LockConflict { txn: TxnId(1), object: ObjectId(2) }),
            errcode::LOCK_CONFLICT
        );
        let r = error_reply(&RhError::SelfDelegation(TxnId(3)));
        match r {
            Reply::Err { code, message } => {
                assert_eq!(code, errcode::SELF_DELEGATION);
                assert!(message.contains("t3"));
            }
            other => panic!("expected Err reply, got {other:?}"),
        }
    }
}
