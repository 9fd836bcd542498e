//! # rh-client
//!
//! The client side of the `rh-server` wire protocol: a blocking
//! [`Connection`] handle speaking the framed protocol from
//! [`rh_server::wire`], plus a multi-threaded closed-loop load
//! generator ([`load`]) with a per-thread oracle that catches any
//! divergence between acknowledged effects and served values.
//!
//! ```no_run
//! use rh_client::Connection;
//! use rh_common::ObjectId;
//!
//! let mut c = Connection::connect("127.0.0.1:7411").unwrap();
//! let t = c.begin().unwrap();
//! c.write(t, ObjectId(7), 42).unwrap();
//! c.commit(t).unwrap(); // returns only once the commit is durable
//! assert_eq!(c.value_of(ObjectId(7)).unwrap(), 42);
//! ```

pub mod introspect;
pub mod load;

use rh_common::codec::Codec;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, RhError, TxnId};
use rh_server::wire::{self, Hello, Op, Reply, ReplyBody, Request, Response};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side errors. The engine's `RhError` cannot cross a process
/// boundary (it carries `&'static str` and typed ids), so wire errors
/// arrive as a stable class code plus rendered message.
#[derive(Debug)]
pub enum ClientError {
    /// Admission control refused the connection (server full or
    /// draining).
    Rejected,
    /// The per-connection in-flight cap was exceeded; the operation was
    /// not attempted and may be resent.
    Busy,
    /// The server executed the request and refused it. `code` is an
    /// [`rh_server::wire::errcode`] constant.
    Engine {
        /// Stable error class.
        code: u8,
        /// Rendered engine error.
        message: String,
    },
    /// Transport failure (includes the server vanishing mid-exchange —
    /// the crash tests rely on surfacing this faithfully).
    Io(io::Error),
    /// The server speaks a different wire-protocol version. Its own
    /// class (not [`ClientError::Protocol`]) so callers can print the
    /// actionable "upgrade one side" message instead of treating the
    /// mismatch as stream corruption.
    Version {
        /// The version the server announced in its hello.
        server: u32,
        /// The version this client build speaks.
        client: u32,
    },
    /// The peer broke the wire protocol.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Rejected => write!(f, "connection rejected by admission control"),
            ClientError::Busy => write!(f, "server busy: in-flight cap exceeded"),
            ClientError::Engine { code, message } => write!(f, "engine error {code}: {message}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Version { server, client } => write!(
                f,
                "wire protocol version mismatch: server speaks v{server}, this client speaks \
                 v{client} (upgrade whichever side is older)"
            ),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// One session with an `rh-server`: a blocking request/reply handle.
///
/// [`Connection::call`] keeps one request outstanding, as every client
/// in this workspace does; the raw [`Connection::send`] /
/// [`Connection::recv`] pair exposes pipelining up to the hello's
/// in-flight cap.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    session: u64,
    inflight_cap: u32,
    next_id: u64,
}

impl Connection {
    /// Connects and runs the hello exchange.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Connection { stream, session: 0, inflight_cap: 0, next_id: 1 };
        let payload = conn
            .read_payload()?
            .ok_or_else(|| ClientError::Protocol("server closed before hello".into()))?;
        let hello = match Hello::from_bytes(&payload) {
            Ok(h) => h,
            Err(RhError::VersionMismatch { got, want }) => {
                return Err(ClientError::Version { server: got, client: want })
            }
            Err(e) => return Err(ClientError::Protocol(format!("bad hello: {e}"))),
        };
        if !hello.accepted {
            return Err(ClientError::Rejected);
        }
        conn.session = hello.session;
        conn.inflight_cap = hello.inflight_cap;
        Ok(conn)
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The advertised pipelining cap.
    pub fn inflight_cap(&self) -> u32 {
        self.inflight_cap
    }

    /// Sets the socket read timeout (e.g. so a crash test does not hang
    /// on a killed server).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn read_payload(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(wire::read_frame(&mut self.stream)?)
    }

    /// Fire-and-forget: frames `op` onto the wire, returning the
    /// request id. Pair with [`Connection::recv`].
    pub fn send(&mut self, op: Op) -> Result<u64> {
        self.send_traced(op, wire::NO_TRACE)
    }

    /// [`Connection::send`] with a client-assigned trace id: the server
    /// tags every phase of the request's execution with it, so the
    /// resulting spans stitch into one waterfall across sessions and
    /// shards (`rh-trace` renders them).
    pub fn send_traced(&mut self, op: Op, trace: u64) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = Request { id, trace, op }.to_bytes();
        wire::write_frame(&mut self.stream, &bytes)?;
        Ok(id)
    }

    /// Receives the next response frame.
    pub fn recv(&mut self) -> Result<Response> {
        let payload = self
            .read_payload()?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        Response::from_bytes(&payload)
            .map_err(|e| ClientError::Protocol(format!("bad response: {e}")))
    }

    /// One blocking round trip.
    pub fn call(&mut self, op: Op) -> Result<ReplyBody> {
        self.call_traced(op, wire::NO_TRACE)
    }

    /// One blocking round trip carrying a trace id (see
    /// [`Connection::send_traced`]).
    pub fn call_traced(&mut self, op: Op, trace: u64) -> Result<ReplyBody> {
        let id = self.send_traced(op, trace)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(ClientError::Protocol(format!(
                "reply for request {} while awaiting {id}",
                resp.id
            )));
        }
        match resp.reply {
            Reply::Ok(body) => Ok(body),
            Reply::Err { code, message } => Err(ClientError::Engine { code, message }),
            Reply::Busy => Err(ClientError::Busy),
        }
    }

    // ---- typed operation surface --------------------------------------

    /// Starts a transaction.
    pub fn begin(&mut self) -> Result<TxnId> {
        match self.call(Op::Begin)? {
            ReplyBody::Txn(t) => Ok(t),
            other => Err(unexpected("txn id", &other)),
        }
    }

    /// Transactional read.
    pub fn read(&mut self, t: TxnId, ob: ObjectId) -> Result<Value> {
        match self.call(Op::Read(t, ob))? {
            ReplyBody::Value(v) => Ok(v),
            other => Err(unexpected("value", &other)),
        }
    }

    /// Transactional overwrite.
    pub fn write(&mut self, t: TxnId, ob: ObjectId, v: Value) -> Result<()> {
        unit(self.call(Op::Write(t, ob, v))?)
    }

    /// Transactional commutative increment.
    pub fn add(&mut self, t: TxnId, ob: ObjectId, delta: Value) -> Result<()> {
        unit(self.call(Op::Add(t, ob, delta))?)
    }

    /// `delegate(tor, tee, obs)`.
    pub fn delegate(&mut self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Result<()> {
        unit(self.call(Op::Delegate(tor, tee, obs.to_vec()))?)
    }

    /// `delegate(tor, tee)` of everything.
    pub fn delegate_all(&mut self, tor: TxnId, tee: TxnId) -> Result<()> {
        unit(self.call(Op::DelegateAll(tor, tee))?)
    }

    /// ASSET `permit`.
    pub fn permit(&mut self, granter: TxnId, permittee: TxnId, ob: ObjectId) -> Result<()> {
        unit(self.call(Op::Permit(granter, permittee, ob))?)
    }

    /// Commits; returns only after the commit record is durable on the
    /// server (group-committed with concurrent sessions).
    pub fn commit(&mut self, t: TxnId) -> Result<()> {
        unit(self.call(Op::Commit(t))?)
    }

    /// [`Connection::commit`] tagged with a client-assigned trace id:
    /// the server's commit phases (queue wait, engine hold, prepare,
    /// flush — and each 2PC edge, for a sharded backend) are emitted as
    /// trace points carrying this id.
    pub fn commit_traced(&mut self, t: TxnId, trace: u64) -> Result<()> {
        unit(self.call_traced(Op::Commit(t), trace)?)
    }

    /// Aborts.
    pub fn abort(&mut self, t: TxnId) -> Result<()> {
        unit(self.call(Op::Abort(t))?)
    }

    /// Establishes a savepoint, returning its opaque token.
    pub fn savepoint(&mut self, t: TxnId) -> Result<u64> {
        match self.call(Op::Savepoint(t))? {
            ReplyBody::Token(tok) => Ok(tok),
            other => Err(unexpected("savepoint token", &other)),
        }
    }

    /// Partial rollback to a savepoint token.
    pub fn rollback_to(&mut self, t: TxnId, token: u64) -> Result<()> {
        unit(self.call(Op::RollbackTo(t, token))?)
    }

    /// Non-transactional peek.
    pub fn value_of(&mut self, ob: ObjectId) -> Result<Value> {
        match self.call(Op::ValueOf(ob))? {
            ReplyBody::Value(v) => Ok(v),
            other => Err(unexpected("value", &other)),
        }
    }

    /// Staleness-bounded peek (v4): like [`Connection::value_of`], but
    /// the serving node must have applied the log through `min_lsn`
    /// first. A primary trivially satisfies any bound; a replica blocks
    /// until its applied watermark reaches `min_lsn` or refuses with
    /// [`rh_server::wire::errcode::REPL_LAGGING`] at its configured
    /// deadline — it never silently serves a staler value. Pair with
    /// [`Connection::durable`] against the primary for read-your-writes
    /// on a replica.
    pub fn value_of_min(&mut self, ob: ObjectId, min_lsn: Lsn) -> Result<Value> {
        match self.call(Op::ValueOfMin(ob, min_lsn))? {
            ReplyBody::Value(v) => Ok(v),
            other => Err(unexpected("value", &other)),
        }
    }

    /// Durable-watermark probe (v4): the raw LSN up to which the log
    /// owning `ob` is durable on the serving node (the applied
    /// watermark, on a replica). A commit acknowledged before this call
    /// is covered by the returned bound, so feeding it to
    /// [`Connection::value_of_min`] on a replica yields
    /// read-your-writes.
    pub fn durable(&mut self, ob: ObjectId) -> Result<u64> {
        match self.call(Op::Durable(ob))? {
            ReplyBody::Token(lsn) => Ok(lsn),
            other => Err(unexpected("durable watermark", &other)),
        }
    }

    /// Time-travel read: the committed value of `ob` as of `as_of`
    /// (pass [`Lsn::NULL`] for "now" — the server resolves it to the
    /// log tail). Answered by WAL reenactment on the server without
    /// taking the engine mutex, so it is safe to issue under load.
    pub fn read_as_of(&mut self, ob: ObjectId, as_of: Lsn) -> Result<Value> {
        match self.call(Op::ReadAsOf(ob, as_of))? {
            ReplyBody::Value(v) => Ok(v),
            other => Err(unexpected("value", &other)),
        }
    }

    /// Version timeline of `ob` over `[from, to]` as a rendered
    /// `history.v1` JSON document (pass [`Lsn::FIRST`]`..`[`Lsn::NULL`]
    /// for the whole reenactable history up to now).
    pub fn history_json(&mut self, ob: ObjectId, from: Lsn, to: Lsn) -> Result<String> {
        match self.call(Op::History(ob, from, to))? {
            ReplyBody::Json(s) => Ok(s),
            other => Err(unexpected("history json", &other)),
        }
    }

    /// The server's one-stop stats snapshot, as rendered JSON.
    pub fn stats_json(&mut self) -> Result<String> {
        match self.call(Op::Stats)? {
            ReplyBody::Json(s) => Ok(s),
            other => Err(unexpected("stats json", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        unit(self.call(Op::Ping)?)
    }

    /// Asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<()> {
        unit(self.call(Op::Shutdown)?)
    }
}

fn unit(body: ReplyBody) -> Result<()> {
    match body {
        ReplyBody::Unit => Ok(()),
        other => Err(unexpected("unit", &other)),
    }
}

fn unexpected(wanted: &str, got: &ReplyBody) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
