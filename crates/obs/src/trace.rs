//! The span/event tracer: a bounded ring buffer of structured events.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap on the hot path.** One short critical section per event
//!    (a `Mutex<VecDeque>` push plus a capacity check); no allocation
//!    per event beyond the ring's amortized growth to capacity; event
//!    payloads are plain `u64`s and `&'static str` names.
//! 2. **Bounded.** The ring holds the most recent `capacity` events and
//!    counts what it dropped, so tracing a million-record recovery can
//!    never exhaust memory — the *tail* of a recovery timeline is the
//!    interesting part anyway (the invariant observers run on captures
//!    from right-sized test workloads).
//! 3. **Timestamped relative to the tracer's epoch** (microseconds), so
//!    timelines from different runs line up at zero.
//! 4. **Internally consistent.** Timestamps are stamped *inside* the
//!    ring's critical section, so ring order and timestamp order always
//!    agree: any [`Tracer::snapshot`] sees a `ts_micros` sequence that is
//!    non-decreasing, even while other threads race the ring around its
//!    wraparound point. (Stamping before taking the lock — the obvious
//!    implementation — lets two threads insert out of timestamp order.)

use crate::clock::Stopwatch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::JsonValue;

/// Sentinel for "no LSN / no transaction" in an event field.
pub const NONE: u64 = u64::MAX;

/// Default ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What kind of trace entry an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (the matching close carries the same `span` id).
    SpanBegin,
    /// A span closed; `payload` holds its duration in microseconds.
    SpanEnd,
    /// An instantaneous event.
    Point,
}

impl EventKind {
    /// Stable lowercase name for export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "begin",
            EventKind::SpanEnd => "end",
            EventKind::Point => "point",
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the tracer was created.
    pub ts_micros: u64,
    /// Enclosing/owning span id; 0 when emitted outside any span.
    pub span: u64,
    /// Begin/end/point.
    pub kind: EventKind,
    /// Event name (see [`crate::names`]).
    pub name: &'static str,
    /// Low end of the LSN range this event concerns, or [`NONE`].
    pub lsn_lo: u64,
    /// High end of the LSN range, or [`NONE`].
    pub lsn_hi: u64,
    /// Transaction id, or [`NONE`].
    pub txn: u64,
    /// Event-specific scalar (durations, counts, partner txn ids, ...).
    pub payload: u64,
}

impl TraceEvent {
    /// Renders the event as a JSON object (omitting `NONE` fields).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("ts_us", JsonValue::U64(self.ts_micros)),
            ("kind", JsonValue::Str(self.kind.as_str().to_string())),
            ("name", JsonValue::Str(self.name.to_string())),
        ];
        if self.span != 0 {
            fields.push(("span", JsonValue::U64(self.span)));
        }
        if self.lsn_lo != NONE {
            fields.push(("lsn_lo", JsonValue::U64(self.lsn_lo)));
        }
        if self.lsn_hi != NONE {
            fields.push(("lsn_hi", JsonValue::U64(self.lsn_hi)));
        }
        if self.txn != NONE {
            fields.push(("txn", JsonValue::U64(self.txn)));
        }
        fields.push(("payload", JsonValue::U64(self.payload)));
        JsonValue::obj(fields)
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// The tracer. Cloneless; share it behind an `Arc` (usually inside
/// [`crate::Obs`]).
#[derive(Debug)]
pub struct Tracer {
    epoch: Stopwatch,
    capacity: usize,
    /// When false, every recording call is a cheap early return (one
    /// relaxed load) — the no-op mode the `obs_overhead` bench compares
    /// against. Runtime-togglable so the bench can measure the same
    /// engine with tracing on and off.
    enabled: AtomicBool,
    ring: Mutex<Ring>,
    next_span: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

/// A captured copy of the ring, ready for observers and export.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// The retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted by the ring before this capture.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Events with the given name, oldest first.
    pub fn named(&self, name: &str) -> Vec<TraceEvent> {
        self.events.iter().filter(|e| e.name == name).copied().collect()
    }

    /// Renders `{dropped, events: [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("dropped", JsonValue::U64(self.dropped)),
            ("events", JsonValue::Arr(self.events.iter().map(TraceEvent::to_json).collect())),
        ])
    }
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Stopwatch::start(),
            capacity: capacity.max(1),
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring::default()),
            next_span: AtomicU64::new(1),
        }
    }

    /// Creates a no-op tracer: every recording call returns immediately
    /// and snapshots are always empty. The `obs_overhead` bench uses this
    /// as the zero-cost baseline.
    pub fn disabled() -> Self {
        let t = Self::default();
        t.set_enabled(false);
        t
    }

    /// Whether this tracer records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime. Already-retained events
    /// stay in the ring; a disabled tracer simply stops adding to it.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Inserts one event, stamping `ts_micros` inside the critical
    /// section so ring order and timestamp order agree (see the module
    /// docs, constraint 4).
    fn push(&self, mut ev: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        ev.ts_micros = self.epoch.elapsed_micros();
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    /// Emits an instantaneous event. Use [`NONE`] for absent fields.
    pub fn point(&self, name: &'static str, lsn_lo: u64, lsn_hi: u64, txn: u64, payload: u64) {
        self.push(TraceEvent {
            ts_micros: 0,
            span: 0,
            kind: EventKind::Point,
            name,
            lsn_lo,
            lsn_hi,
            txn,
            payload,
        });
    }

    /// Emits a phase-timer point: a measured sub-phase of one request,
    /// `payload` = duration in microseconds, `lsn_lo` = the
    /// client-assigned trace id. Phases are points rather than
    /// retroactive spans because [`Tracer::push`] stamps timestamps
    /// inside the ring lock — a span cannot be back-dated to the phase's
    /// true start. Consumers stitch phases into waterfalls by
    /// `(trace, txn)`, so an untraced request (`trace == NONE`) records
    /// nothing: no consumer could stitch its points, and at load they
    /// would wrap the ring. Its phase histograms are fed separately.
    pub fn phase(&self, name: &'static str, txn: u64, trace: u64, micros: u64) {
        if trace == NONE {
            return;
        }
        self.push(TraceEvent {
            ts_micros: 0,
            span: 0,
            kind: EventKind::Point,
            name,
            lsn_lo: trace,
            lsn_hi: NONE,
            txn,
            payload: micros,
        });
    }

    /// Opens a span; the returned guard emits the matching end event
    /// (with its duration as `payload`) when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_for_txn(name, NONE)
    }

    /// Opens a span attributed to a transaction.
    pub fn span_for_txn(&self, name: &'static str, txn: u64) -> SpanGuard<'_> {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            ts_micros: 0,
            span: id,
            kind: EventKind::SpanBegin,
            name,
            lsn_lo: NONE,
            lsn_hi: NONE,
            txn,
            payload: 0,
        });
        SpanGuard { tracer: self, name, id, txn, started: Stopwatch::start() }
    }

    /// Captures the current ring contents. The capture happens under the
    /// same lock that stamps timestamps, so the returned event list is
    /// internally consistent: `ts_micros` is non-decreasing in ring
    /// order, with no events from concurrent writers interleaved out of
    /// time order.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.tail(usize::MAX)
    }

    /// Captures the newest `n` events (oldest first), copying only those;
    /// `dropped` also counts the older retained events left out.
    pub fn tail(&self, n: usize) -> TraceSnapshot {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        let skip = ring.buf.len().saturating_sub(n);
        TraceSnapshot {
            events: ring.buf.range(skip..).copied().collect(),
            dropped: ring.dropped + skip as u64,
        }
    }

    /// Discards all retained events (capacity and epoch are kept).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        ring.buf.clear();
        ring.dropped = 0;
    }
}

/// RAII guard for an open span (see [`Tracer::span`]).
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    txn: u64,
    started: Stopwatch,
}

impl SpanGuard<'_> {
    /// The span's id (events can reference it explicitly).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Emits a point event attributed to this span.
    pub fn point(&self, name: &'static str, lsn_lo: u64, lsn_hi: u64, txn: u64, payload: u64) {
        self.tracer.push(TraceEvent {
            ts_micros: 0,
            span: self.id,
            kind: EventKind::Point,
            name,
            lsn_lo,
            lsn_hi,
            txn,
            payload,
        });
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = self.started.elapsed_micros();
        self.tracer.push(TraceEvent {
            ts_micros: 0,
            span: self.id,
            kind: EventKind::SpanEnd,
            name: self.name,
            lsn_lo: NONE,
            lsn_hi: NONE,
            txn: self.txn,
            payload: dur,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_recorded_in_order() {
        let t = Tracer::default();
        t.point("a", 1, 2, 3, 4);
        t.point("b", NONE, NONE, NONE, 0);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].name, "a");
        assert_eq!(snap.events[0].lsn_lo, 1);
        assert_eq!(snap.events[1].name, "b");
        assert!(snap.events[0].ts_micros <= snap.events[1].ts_micros);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn span_guard_emits_begin_and_end() {
        let t = Tracer::default();
        {
            let s = t.span("work");
            s.point("inner", 5, 5, NONE, 0);
        }
        let snap = t.snapshot();
        let kinds: Vec<EventKind> = snap.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::SpanBegin, EventKind::Point, EventKind::SpanEnd]);
        // Begin, inner point, and end share the span id.
        assert_eq!(snap.events[0].span, snap.events[1].span);
        assert_eq!(snap.events[0].span, snap.events[2].span);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.point("e", i, i, NONE, 0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        // The survivors are the newest four.
        let lsns: Vec<u64> = snap.events.iter().map(|e| e.lsn_lo).collect();
        assert_eq!(lsns, vec![6, 7, 8, 9]);
    }

    #[test]
    fn phase_points_carry_txn_trace_and_duration() {
        let t = Tracer::default();
        t.phase("phase.queue_wait", 7, 99, 1234);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        let e = snap.events[0];
        assert_eq!(e.kind, EventKind::Point);
        assert_eq!(e.txn, 7);
        assert_eq!(e.lsn_lo, 99); // trace id rides in lsn_lo
        assert_eq!(e.payload, 1234); // duration in micros
    }

    #[test]
    fn untraced_phases_stay_out_of_the_ring() {
        let t = Tracer::default();
        t.phase("phase.queue_wait", 7, NONE, 1234);
        assert!(t.snapshot().events.is_empty());
        t.phase("phase.queue_wait", 7, 99, 1234);
        assert_eq!(t.snapshot().events.len(), 1);
    }

    #[test]
    fn tail_copies_only_the_newest_events() {
        let t = Tracer::with_capacity(8);
        for i in 0..10u64 {
            t.point("e", i, i, NONE, 0);
        }
        let tail = t.tail(3);
        let lsns: Vec<u64> = tail.events.iter().map(|e| e.lsn_lo).collect();
        assert_eq!(lsns, vec![7, 8, 9]);
        // 2 evicted by the ring plus 5 retained but left out.
        assert_eq!(tail.dropped, 7);
        assert_eq!(t.tail(100).events.len(), 8);
        assert_eq!(t.tail(100).dropped, 2);
    }

    #[test]
    fn named_filters() {
        let t = Tracer::default();
        t.point("x", 0, 0, NONE, 0);
        t.point("y", 1, 1, NONE, 0);
        t.point("x", 2, 2, NONE, 0);
        let snap = t.snapshot();
        assert_eq!(snap.named("x").len(), 2);
        assert_eq!(snap.named("z").len(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.point("a", 0, 0, NONE, 0);
        {
            let s = t.span("work");
            s.point("inner", 1, 1, NONE, 0);
        }
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn timestamps_are_non_decreasing_in_ring_order() {
        let t = Tracer::with_capacity(8);
        for i in 0..32u64 {
            t.point("e", i, i, NONE, 0);
        }
        let snap = t.snapshot();
        for w in snap.events.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros, "ring order disagrees with time order");
        }
    }

    #[test]
    fn clear_resets() {
        let t = Tracer::with_capacity(1);
        t.point("a", 0, 0, NONE, 0);
        t.point("b", 0, 0, NONE, 0);
        t.clear();
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }
}
