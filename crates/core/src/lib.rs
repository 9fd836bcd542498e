//! # rh-core
//!
//! The paper's primary contribution: **ARIES/RH**, an ARIES-style
//! UNDO/REDO recovery engine extended with the ACTA/ASSET `delegate`
//! primitive — "rewriting history without rewriting the history, i.e.,
//! the log".
//!
//! ## Layout
//!
//! * [`scope`] / [`oblist`] / [`txn_table`] — the volatile data structures
//!   of paper §3.4: update **scopes** `(invoking txn, first LSN, last
//!   LSN)`, per-transaction **Ob_Lists**, and the **Tr_List** (transaction
//!   table with backward-chain heads).
//! * [`engine`] — [`engine::RhDb`]: normal processing per §3.5 (begin,
//!   update, delegate, commit, abort, checkpoint) over the `rh-storage`
//!   buffer pool and `rh-wal` log.
//! * [`recovery`] — the two ARIES passes (§3.6): the forward
//!   analysis+redo pass that *reconstructs* delegation state from the log,
//!   and the backward undo pass that sweeps **loser-scope clusters**
//!   (Fig. 7/8) monotonically, visiting each record at most once.
//! * [`eager`] — the naïve baseline of §3.1/Fig. 1: physically rewrite
//!   the log at each delegation (`setTransID`), sweeping backward through
//!   the log. Correct but expensive; exists to be measured against.
//! * The **lazy** baseline of §3.2 — log delegations during normal
//!   processing, physically rewrite history during recovery — is the
//!   [`engine::Strategy::LazyRewrite`] mode of the same engine.
//! * [`history`] — an abstract event language plus a log-free **oracle**
//!   implementing the §2.1 delegation semantics directly; every engine is
//!   tested for equivalence against it.
//! * [`api`] — the [`api::TxnEngine`] trait all engines (including
//!   `rh-eos`) implement, so workloads, tests, and benches are generic.
//!
//! ## Quick start
//!
//! ```
//! use rh_core::engine::{RhDb, Strategy};
//! use rh_core::api::TxnEngine;
//! use rh_common::{ObjectId, TxnId};
//!
//! let mut db = RhDb::new(Strategy::Rh);
//! let t1 = db.begin().unwrap();
//! let t2 = db.begin().unwrap();
//! db.write(t1, ObjectId(0), 42).unwrap();
//! // t1 hands responsibility for ob0 to t2 and aborts; because t2
//! // commits while responsible, the update survives (paper §2.1.2).
//! db.delegate(t1, t2, &[ObjectId(0)]).unwrap();
//! db.abort(t1).unwrap();
//! db.commit(t2).unwrap();
//! let mut db = db.crash_and_recover().unwrap();
//! let reader = db.begin().unwrap();
//! assert_eq!(db.read(reader, ObjectId(0)).unwrap(), 42);
//! ```

pub mod api;
pub mod checkpoint;
pub mod eager;
pub mod engine;
pub mod flight;
pub mod history;
pub mod oblist;
pub mod provenance;
pub mod recovery;
pub mod reenact;
pub mod replica;
pub mod scope;
pub mod sharded;
pub mod txn_table;
pub mod witness_bridge;

pub use api::TxnEngine;
pub use engine::{RhDb, Strategy};
pub use flight::FlightRecorder;
pub use history::{Event, Oracle};
pub use provenance::{ProvHop, ProvenanceTable};
pub use reenact::{Purpose, Reenactment, VersionRecord};
pub use replica::ReplicaSet;
pub use scope::Scope;
pub use sharded::{ShardMap, ShardedDb, TwoPcFault};
