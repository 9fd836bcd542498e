//! # rh-wal
//!
//! The write-ahead log for the ARIES/RH reproduction.
//!
//! "In a DBS the log is the system's history, as it contains the records of
//! all updates and transactional operations" (paper §3.1). This crate
//! provides:
//!
//! * [`record`] — the log record types, including the paper's new
//!   **`delegate`** record with its two backward-chain pointers
//!   (`tor`/`torBC`/`tee`/`teeBC`, paper Fig. 6);
//! * [`log`] — the [`log::LogManager`]: append, flush, read, forward scan,
//!   and (for the *eager* and *lazy rewriting* baselines only) in-place
//!   record rewriting; with a stable/volatile split so crashes lose exactly
//!   the unflushed tail;
//! * [`chain`] — walkers for per-transaction **backward chains** (paper
//!   Fig. 4), including the two-pointer branching at delegate records;
//! * [`metrics`] — counters for the access-pattern arguments of §4.2
//!   (records read, non-sequential seeks, in-place rewrites, flushes);
//! * a lazily built per-object / per-transaction / checkpoint LSN index
//!   behind the log manager's time-travel lookups
//!   ([`log::LogManager::object_lsns`] and friends).
//!
//! LSNs are dense record indices (see `rh_common::Lsn`), so the paper's
//! `K <- K - 1` backward sweep is implemented literally.
//!
//! The durable backend lives in four modules: [`frame`] (CRC-checked
//! record framing), [`segment`] (segment files + torn-tail scanning),
//! [`filelog`] (the [`filelog::SegmentedFileLog`] directory layout and
//! master record), and [`io`] (the filesystem seam, including the
//! fault-injecting [`io::FaultIo`] the crash tests are built on).
//!
//! The flight recorder's black boxes ride this one log as
//! non-transactional [`RecordBody::BlackBox`] records, so they share its
//! framing, torn-tail repair, retention and replication: there is no
//! second durable stream.

pub mod chain;
pub mod filelog;
pub mod frame;
mod index;
pub mod io;
pub mod log;
pub mod metrics;
pub mod record;
pub mod segment;

pub use chain::BackwardChainIter;
pub use filelog::{FileLogConfig, OpenReport, SegmentedFileLog};
pub use io::{FaultInjector, FaultIo, StdIo, WalFile, WalIo};
pub use log::{LogManager, StableLog};
pub use metrics::{LogMetrics, LogMetricsSnapshot};
pub use record::{DelegateBody, LogRecord, RecordBody};
