//! The flight-recorder ("black box") record format.
//!
//! A black-box record freezes one observability context — the bounded
//! trace ring plus an absolute metric snapshot — into a self-describing
//! JSON payload that a *different process* can parse after this one has
//! crashed. This module owns only the **format** (encode, parse, and the
//! postmortem diff); persistence is the write-ahead log's: each payload
//! rides the log as a non-transactional `BlackBox` record, inside the
//! same CRC32-checked frames, torn-tail repair and retention as every
//! other record. The split keeps this crate dependency-free (see the
//! crate docs): everything here is plain [`JsonValue`] plumbing.
//!
//! Record layout:
//!
//! ```json
//! {
//!   "at_us":   <u64>,   // recorder uptime when frozen, microseconds
//!   "reason":  "...",   // what triggered the freeze ("cadence",
//!                       // "checkpoint", "recovery", ...)
//!   "metrics": { "counters": {...}, "histograms": {...} },
//!   "trace":   { "dropped": <u64>, "events": [...] },
//!   "slowops": { "threshold_us": <u64>, "entries": [...] }
//! }
//! ```
//!
//! A record's identity, `seq`, is the LSN of the log record carrying it,
//! so it is not stored in the payload: [`BlackBoxRecord::parse`] takes it
//! from the caller. All fields except `slowops` are required;
//! `slowops` stays optional so records written by builds that predate
//! the slow-op log still load.

use crate::json::JsonValue;
use crate::registry::RegistrySnapshot;
use crate::trace::TraceSnapshot;

/// How many trailing trace events a postmortem replays by default — the
/// predecessor's "last N spans".
pub const DEFAULT_FINAL_EVENTS: usize = 20;

/// Encodes one black-box record as compact JSON bytes; `slowops` is the
/// rendered slow-op log ([`SlowOpLog::to_json`] or a top-N cut of it).
pub fn encode_record(
    at_us: u64,
    reason: &str,
    metrics: &RegistrySnapshot,
    trace: &TraceSnapshot,
    slowops: JsonValue,
) -> Vec<u8> {
    JsonValue::obj(vec![
        ("at_us", JsonValue::U64(at_us)),
        ("reason", JsonValue::Str(reason.to_string())),
        ("metrics", metrics.to_json()),
        ("trace", trace.to_json()),
        ("slowops", slowops),
    ])
    .render()
    .into_bytes()
}

/// One parsed black-box record.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxRecord {
    /// LSN of the log record carrying this box.
    pub seq: u64,
    /// Recorder uptime when the record was frozen, microseconds.
    pub at_us: u64,
    /// What triggered the freeze.
    pub reason: String,
    /// The full record, for access to metrics and trace.
    pub raw: JsonValue,
}

impl BlackBoxRecord {
    /// Parses the record carried at LSN `seq` from its encoded bytes.
    /// Returns `None` on any malformed input — a black box from an older
    /// or corrupted build must degrade to "no predecessor data", never
    /// to an error.
    pub fn parse(seq: u64, bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let raw = crate::json::parse(text).ok()?;
        let at_us = raw.get("at_us")?.as_u64()?;
        let reason = raw.get("reason")?.as_str()?.to_string();
        raw.get("metrics")?;
        raw.get("trace")?;
        Some(BlackBoxRecord { seq, at_us, reason, raw })
    }

    /// The value of a counter at freeze time (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.raw
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    }

    /// All counters at freeze time, as `(name, value)` pairs.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let Some(JsonValue::Obj(fields)) = self.raw.get("metrics").and_then(|m| m.get("counters"))
        else {
            return Vec::new();
        };
        fields.iter().filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n))).collect()
    }

    /// The trace events frozen into this record, oldest first.
    pub fn events(&self) -> Vec<JsonValue> {
        self.raw
            .get("trace")
            .and_then(|t| t.get("events"))
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    }

    /// The last `n` trace events — the predecessor's final spans.
    pub fn final_events(&self, n: usize) -> Vec<JsonValue> {
        let events = self.events();
        let skip = events.len().saturating_sub(n);
        events[skip..].to_vec()
    }

    /// The slow-op entries frozen into this record, slowest first. Empty
    /// for records written before the slow-op log existed.
    pub fn slow_ops(&self) -> Vec<JsonValue> {
        self.raw
            .get("slowops")
            .and_then(|s| s.get("entries"))
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    }
}

/// Builds the postmortem section of a recovery report: the predecessor's
/// identity and final spans next to the recovered process's counters,
/// with a signed per-counter delta (`recovered - pre-crash`).
///
/// The recovered registry starts from zero, so deltas read as "what this
/// recovery did, minus the predecessor's lifetime totals" — large
/// negative `log.appends` means the predecessor did much more work than
/// recovery had to repeat, while positive `recovery.runs` is the restart
/// itself. The point of the diff is not arithmetic continuity but
/// adjacency: both sides of the crash in one machine-readable object.
pub fn postmortem(
    pred: &BlackBoxRecord,
    recovered: &RegistrySnapshot,
    final_events: usize,
) -> JsonValue {
    let pre: Vec<(String, u64)> = pred.counters();
    let mut delta_fields: Vec<(String, JsonValue)> = Vec::new();
    let mut names: Vec<&str> = pre.iter().map(|(k, _)| k.as_str()).collect();
    for name in recovered.counters.keys() {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    names.sort_unstable();
    for name in names {
        let before = pred.counter(name) as i64;
        let after = recovered.counters.get(name).copied().unwrap_or(0) as i64;
        delta_fields.push((name.to_string(), JsonValue::I64(after - before)));
    }
    JsonValue::obj(vec![
        (
            "predecessor",
            JsonValue::obj(vec![
                ("seq", JsonValue::U64(pred.seq)),
                ("at_us", JsonValue::U64(pred.at_us)),
                ("reason", JsonValue::Str(pred.reason.clone())),
                (
                    "counters",
                    pred.raw
                        .get("metrics")
                        .and_then(|m| m.get("counters"))
                        .cloned()
                        .unwrap_or(JsonValue::Null),
                ),
                ("final_spans", JsonValue::Arr(pred.final_events(final_events))),
            ]),
        ),
        ("recovered", JsonValue::obj(vec![("counters", counters_json(recovered))])),
        ("delta", JsonValue::Obj(delta_fields)),
    ])
}

fn counters_json(snap: &RegistrySnapshot) -> JsonValue {
    JsonValue::Obj(snap.counters.iter().map(|(k, v)| (k.clone(), JsonValue::U64(*v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::slowlog::SlowOpLog;
    use crate::trace::Tracer;

    fn sample() -> (Registry, Tracer, SlowOpLog) {
        let registry = Registry::new();
        registry.add("log.appends", 42);
        registry.inc("recovery.runs");
        let tracer = Tracer::default();
        for i in 0..30u64 {
            tracer.point("e", i, i, 7, 0);
        }
        let slowops = SlowOpLog::with(4, 0);
        slowops.record("commit", 7, 99, 5000, vec![("phase.flush_wait", 4000)]);
        (registry, tracer, slowops)
    }

    #[test]
    fn roundtrip() {
        let (registry, tracer, slowops) = sample();
        let bytes = encode_record(
            1234,
            "checkpoint",
            &registry.snapshot(),
            &tracer.snapshot(),
            slowops.to_json(),
        );
        let rec = BlackBoxRecord::parse(3, &bytes).expect("parse");
        assert_eq!(rec.seq, 3);
        assert_eq!(rec.at_us, 1234);
        assert_eq!(rec.reason, "checkpoint");
        assert_eq!(rec.counter("log.appends"), 42);
        assert_eq!(rec.counter("recovery.runs"), 1);
        assert_eq!(rec.counter("missing.counter"), 0);
        assert_eq!(rec.events().len(), 30);
        let last = rec.final_events(20);
        assert_eq!(last.len(), 20);
        assert_eq!(last[19].get("lsn_lo").and_then(JsonValue::as_u64), Some(29));
        let slow = rec.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("total_us").and_then(JsonValue::as_u64), Some(5000));
    }

    #[test]
    fn records_without_slowops_still_parse() {
        // A record written by a build that predates the slow-op log.
        let old = r#"{"at_us": 2, "reason": "cadence",
                      "metrics": {"counters": {}, "histograms": {}},
                      "trace": {"dropped": 0, "events": []}}"#;
        let rec = BlackBoxRecord::parse(1, old.as_bytes()).expect("parse legacy record");
        assert!(rec.slow_ops().is_empty());
    }

    #[test]
    fn malformed_input_degrades_to_none() {
        assert!(BlackBoxRecord::parse(0, b"").is_none());
        assert!(BlackBoxRecord::parse(0, b"not json").is_none());
        assert!(BlackBoxRecord::parse(0, b"{\"at_us\": 1}").is_none());
        assert!(BlackBoxRecord::parse(0, &[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn postmortem_diffs_counters_and_keeps_final_spans() {
        let (registry, tracer, slowops) = sample();
        let bytes = encode_record(
            10,
            "cadence",
            &registry.snapshot(),
            &tracer.snapshot(),
            slowops.to_json(),
        );
        let pred = BlackBoxRecord::parse(0, &bytes).unwrap();

        let after = Registry::new();
        after.add("log.appends", 50);
        after.inc("recovery.runs");
        after.inc("recovery.runs");
        let pm = postmortem(&pred, &after.snapshot(), 5);

        let p = pm.get("predecessor").expect("predecessor");
        assert_eq!(p.get("reason").and_then(JsonValue::as_str), Some("cadence"));
        assert_eq!(p.get("final_spans").and_then(JsonValue::as_arr).map(<[_]>::len), Some(5));
        let delta = pm.get("delta").expect("delta");
        assert_eq!(delta.get("log.appends"), Some(&JsonValue::I64(8)));
        assert_eq!(delta.get("recovery.runs"), Some(&JsonValue::I64(1)));
    }
}
