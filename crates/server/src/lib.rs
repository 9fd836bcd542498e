//! # rh-server
//!
//! A pipelined TCP front-end for the ARIES/RH engine.
//!
//! The paper's recovery and delegation machinery runs inside one
//! process; this crate puts a network edge on it so many client
//! processes can drive one database concurrently — and so
//! crash-recovery claims can be exercised the way the original systems
//! were: kill the server mid-load, restart, and check that exactly the
//! acknowledged commits survived. Every deployment is a
//! [`rh_core::sharded::ShardedDb`] of N ≥ 1 unmodified engines (one
//! shard by default), or a read replica of one.
//!
//! * [`wire`] — the frame layout (the WAL's `[len][crc][payload]`
//!   convention on a socket), opcodes, replies, the hello exchange, and
//!   error classes;
//! * [`Server`] — sessions, admission control, bounded pipelining with
//!   explicit BUSY backpressure, idle timeouts, graceful
//!   drain-and-checkpoint, and a `force_stop` crash hatch for tests;
//! * commits are **group-committed**: each session prepares its commit
//!   under the owning shard's engine mutex and forces that shard's log
//!   outside it, so concurrent sessions share fsyncs
//!   ([`rh_core::engine::RhDb::commit_prepare`]); cross-shard commits
//!   run two-phase commit.
//!
//! Counters appear under `server.*` in the router's registry — visible
//! through the wire `Stats` op, `ShardedDb::stats()`, and the `/stats`
//! introspection route alike. Flight-recorder black boxes freeze each
//! shard's own registry, so they and `/postmortem` do not carry them.
//! The binary is `rh-serve`; the matching client library and load
//! generator live in `rh-client`.

mod conn;
pub mod repl;
pub mod server;
pub mod wire;

pub use repl::{ReplRegistry, ReplicaRunner, RunnerConfig};
pub use server::{Server, ServerConfig};
