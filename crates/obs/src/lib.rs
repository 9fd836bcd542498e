//! # rh-obs
//!
//! The unified observability layer for the ARIES/RH reproduction.
//!
//! The paper's entire efficiency argument (§3.2, §4.2) is about
//! *observable access patterns*: ARIES/RH "visits each log record at most
//! once and in a monotonically decreasing way" while the naïve rewrite
//! does random in-place log I/O. This crate turns those claims into
//! first-class, machine-checkable evidence:
//!
//! * [`trace`] — a lock-cheap ring buffer of structured [`TraceEvent`]s
//!   with RAII [`trace::SpanGuard`]s for recovery passes, cluster sweeps,
//!   delegations, checkpoints, and flush activity;
//! * [`registry`] — a unified [`Registry`] of named counters and
//!   power-of-two-bucket histograms, absorbing snapshot deltas from the
//!   per-crate counter structs (`LogMetrics`, `DiskMetrics`, lock-manager
//!   stats) and adding scope-table and recovery-pass instrumentation;
//! * [`observer`] — invariant observers that check a captured trace at
//!   test time: the backward sweep is LSN-monotone, gaps between
//!   loser-scope clusters are actually skipped (Fig. 7/8), and ARIES/RH
//!   performs zero in-place log rewrites;
//! * [`json`] — a tiny dependency-free JSON value/printer/parser so
//!   every `experiments` run can emit per-experiment metrics/timeline
//!   artifacts without serde;
//! * [`blackbox`] — the flight-recorder record **format**: a frozen
//!   trace ring + metric snapshot that a post-crash process can parse to
//!   replay its predecessor's last spans (the payloads ride the
//!   write-ahead log itself as `BlackBox` records);
//! * [`serve`] — an opt-in, bounded, read-only introspection endpoint
//!   (`std::net::TcpListener`, minimal HTTP) that serves whatever JSON
//!   routes the embedding engine wires up;
//! * [`net`] — the shared bind/accept-loop/shutdown-flag skeleton under
//!   both [`serve`] and the `rh-server` transaction front-end.
//!
//! Per the compat policy (`crates/compat/README.md`) this crate depends on
//! nothing — not even `rh-common` — so every layer of the stack (WAL,
//! storage, lock manager, engines, bench harness) can use it freely. LSNs
//! and transaction ids therefore appear here as raw `u64`s.

pub mod blackbox;
pub mod clock;
pub mod json;
pub mod names;
pub mod net;
pub mod observer;
pub mod promtext;
pub mod registry;
pub mod serve;
pub mod slowlog;
pub mod timeseries;
pub mod trace;

pub use blackbox::BlackBoxRecord;
pub use clock::Stopwatch;
pub use json::JsonValue;
pub use net::TcpService;
pub use registry::{Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use serve::{Handler, HttpResponse, IntrospectionServer};
pub use slowlog::{SlowOp, SlowOpLog};
pub use timeseries::{Sample, Sampler, TimeSeries};
pub use trace::{EventKind, SpanGuard, TraceEvent, TraceSnapshot, Tracer};

/// One observability context: a tracer, a metrics registry, a bounded
/// time-series ring, and a slow-op log, shared (via `Arc`) by everything
/// belonging to one engine instance.
#[derive(Debug, Default)]
pub struct Obs {
    /// The event/span tracer.
    pub tracer: Tracer,
    /// The named counter/histogram registry.
    pub registry: Registry,
    /// The bounded per-second sample ring behind `/timeseries`.
    pub timeseries: TimeSeries,
    /// The top-K slow-op log behind `/slowops`.
    pub slowops: SlowOpLog,
}

impl Obs {
    /// Creates a fresh context with default capacities.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context whose tracer is a no-op (the registry stays live —
    /// counters are too cheap to gate). Used as the baseline side of the
    /// `obs_overhead` bench.
    pub fn with_disabled_tracer() -> Self {
        Obs { tracer: Tracer::disabled(), ..Self::default() }
    }

    /// Takes one cadence sample of the registry into the time-series
    /// ring (the `/timeseries` sampler thread's tick).
    pub fn sample_timeseries(&self) {
        self.registry.inc(names::M_TS_SAMPLES);
        self.timeseries.sample(&self.registry.snapshot());
    }

    /// Takes one *marked* sample — pins a named moment (recovery pass
    /// boundary, drain start) to the time-series timeline.
    pub fn mark_timeseries(&self, label: &str) {
        self.registry.inc(names::M_TS_SAMPLES);
        self.timeseries.mark(label, &self.registry.snapshot());
    }

    /// Offers one finished op to the slow-op log; counts it when
    /// retained. Returns whether it was retained.
    pub fn record_slow_op(
        &self,
        op: &'static str,
        txn: u64,
        trace: u64,
        total_us: u64,
        phases: Vec<(&'static str, u64)>,
    ) -> bool {
        let kept = self.slowops.record(op, txn, trace, total_us, phases);
        if kept {
            self.registry.inc(names::M_SLOWOPS_RECORDED);
        }
        kept
    }

    /// Renders the full context (registry + trace) as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("metrics", self.registry.snapshot().to_json()),
            ("trace", self.tracer.snapshot().to_json()),
        ])
    }
}
