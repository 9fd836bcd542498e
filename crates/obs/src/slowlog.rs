//! The slow-op log: top-K operations over a latency threshold, each with
//! its full phase breakdown.
//!
//! Histograms say *how bad* the tail is; the slow-op log says *which
//! requests* were the tail and *where* their time went (queue wait,
//! engine hold, flush wait, 2PC edges — see the `phase.*` names). The
//! log is bounded two ways: only ops whose total meets the threshold are
//! admitted, and only the [`DEFAULT_CAPACITY`] slowest survive — a new
//! entry displaces the fastest retained one. Entries are preserved into
//! flight-recorder black-box records, so a postmortem can replay not
//! just the predecessor's counters but its worst requests.

use crate::clock::Stopwatch;
use crate::json::JsonValue;
use crate::trace::NONE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default admission threshold, microseconds.
pub const DEFAULT_THRESHOLD_US: u64 = 1_000;

/// Default retained-entry cap (the K in top-K).
pub const DEFAULT_CAPACITY: usize = 32;

/// One retained slow operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Operation name (e.g. `"commit"`).
    pub op: &'static str,
    /// Transaction id, or [`NONE`].
    pub txn: u64,
    /// Client-assigned trace id, or [`NONE`].
    pub trace: u64,
    /// Microseconds since the log was created, at record time.
    pub at_us: u64,
    /// End-to-end duration, microseconds.
    pub total_us: u64,
    /// Measured phases `(name, micros)`; phases the op never entered are
    /// simply absent.
    pub phases: Vec<(&'static str, u64)>,
}

impl SlowOp {
    /// Renders `{op, txn?, trace?, at_us, total_us, phases: {...}}`.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![("op", JsonValue::Str(self.op.to_string()))];
        if self.txn != NONE {
            fields.push(("txn", JsonValue::U64(self.txn)));
        }
        if self.trace != NONE {
            fields.push(("trace", JsonValue::U64(self.trace)));
        }
        fields.push(("at_us", JsonValue::U64(self.at_us)));
        fields.push(("total_us", JsonValue::U64(self.total_us)));
        fields.push((
            "phases",
            JsonValue::Obj(
                self.phases.iter().map(|(k, v)| ((*k).to_string(), JsonValue::U64(*v))).collect(),
            ),
        ));
        JsonValue::obj(fields)
    }
}

/// The bounded top-K log. Shareable behind the owning [`crate::Obs`].
#[derive(Debug)]
pub struct SlowOpLog {
    epoch: Stopwatch,
    capacity: usize,
    threshold_us: AtomicU64,
    /// Sorted slowest-first; length ≤ `capacity`.
    entries: Mutex<Vec<SlowOp>>,
}

impl Default for SlowOpLog {
    fn default() -> Self {
        Self::with(DEFAULT_CAPACITY, DEFAULT_THRESHOLD_US)
    }
}

impl SlowOpLog {
    /// A log keeping the `capacity` slowest ops at or over
    /// `threshold_us`.
    pub fn with(capacity: usize, threshold_us: u64) -> Self {
        SlowOpLog {
            epoch: Stopwatch::start(),
            capacity: capacity.max(1),
            threshold_us: AtomicU64::new(threshold_us),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The current admission threshold, microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Changes the admission threshold (tests drop it to 0 to capture
    /// everything; operators could raise it under load).
    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// Offers one finished op. Returns whether it was retained (at or
    /// over threshold and among the top K).
    pub fn record(
        &self,
        op: &'static str,
        txn: u64,
        trace: u64,
        total_us: u64,
        phases: Vec<(&'static str, u64)>,
    ) -> bool {
        if total_us < self.threshold_us() {
            return false;
        }
        let mut entries = self.entries.lock().expect("slow-op log poisoned");
        if entries.len() == self.capacity
            && entries.last().is_some_and(|fastest| fastest.total_us >= total_us)
        {
            return false;
        }
        let at_us = self.epoch.elapsed_micros();
        let pos = entries.partition_point(|e| e.total_us >= total_us);
        entries.insert(pos, SlowOp { op, txn, trace, at_us, total_us, phases });
        entries.truncate(self.capacity);
        true
    }

    /// Retained entries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowOp> {
        self.entries.lock().expect("slow-op log poisoned").clone()
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow-op log poisoned").len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders `{threshold_us, entries: [...]}` (slowest first).
    pub fn to_json(&self) -> JsonValue {
        self.top_json(usize::MAX)
    }

    /// [`SlowOpLog::to_json`] keeping only the `n` slowest entries.
    pub fn top_json(&self, n: usize) -> JsonValue {
        let entries = self.snapshot().iter().take(n).map(SlowOp::to_json).collect();
        JsonValue::obj(vec![
            ("threshold_us", JsonValue::U64(self.threshold_us())),
            ("entries", JsonValue::Arr(entries)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_admission() {
        let log = SlowOpLog::with(4, 100);
        assert!(!log.record("commit", 1, NONE, 99, vec![]));
        assert!(log.record("commit", 2, NONE, 100, vec![("phase.flush_wait", 80)]));
        assert_eq!(log.len(), 1);
        log.set_threshold_us(0);
        assert!(log.record("read", 3, NONE, 1, vec![]));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn top_k_keeps_the_slowest_sorted() {
        let log = SlowOpLog::with(3, 0);
        for (t, us) in [(1u64, 50u64), (2, 10), (3, 90), (4, 70)] {
            log.record("commit", t, NONE, us, vec![]);
        }
        let snap = log.snapshot();
        let totals: Vec<u64> = snap.iter().map(|e| e.total_us).collect();
        assert_eq!(totals, vec![90, 70, 50]); // 10 displaced
                                              // A new op faster than everything retained is refused outright.
        assert!(!log.record("commit", 5, NONE, 5, vec![]));
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn json_carries_phases_and_omits_none_ids() {
        let log = SlowOpLog::with(2, 0);
        log.record("commit", 7, 99, 500, vec![("phase.queue_wait", 20), ("phase.flush_wait", 400)]);
        log.record("read", NONE, NONE, 300, vec![]);
        let json = log.to_json();
        let entries = json.get("entries").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("txn").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(entries[0].get("trace").and_then(JsonValue::as_u64), Some(99));
        let phases = entries[0].get("phases").unwrap();
        assert_eq!(phases.get("phase.flush_wait").and_then(JsonValue::as_u64), Some(400));
        assert!(entries[1].get("txn").is_none());
        assert!(entries[1].get("trace").is_none());
    }
}
