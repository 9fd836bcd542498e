//! Client-side consumption of the server's introspection endpoints:
//! a minimal HTTP/1.0 GET, phase-event extraction from `/trace`
//! documents (a single trace ring, the live router-plus-shards shape,
//! or a postmortem), and the waterfall stitcher that `rh-trace` and the
//! `rh-load` coverage gate share.
//!
//! A *waterfall* is the per-transaction latency attribution the tracing
//! tentpole exists for: every `phase.*` point the server emitted for
//! one client-assigned trace id, stitched across shard rings by that id
//! (the global txn id rides along in each event), ordered canonically,
//! and summed. The phases are engineered to be disjoint on the server
//! (DESIGN.md §14), so the sum approximates the server-side latency of
//! the traced request and can be compared against the client-observed
//! round trip.

use crate::{ClientError, Result};
use rh_obs::json::{self, JsonValue};
use rh_obs::names;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;

/// One `phase.*` trace point pulled out of a trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Phase name (`phase.queue_wait`, `phase.twopc.prepare_force`, …).
    pub name: String,
    /// Global transaction id the phase belongs to.
    pub txn: u64,
    /// Client-assigned trace id (never the NONE sentinel).
    pub trace: u64,
    /// Phase duration in microseconds.
    pub us: u64,
}

/// All phases of one traced request, stitched across rings.
#[derive(Debug, Clone)]
pub struct Waterfall {
    /// The client-assigned trace id the phases were stitched by.
    pub trace: u64,
    /// Global transaction id (from the first phase event).
    pub txn: u64,
    /// Phases in canonical order (see [`phase_rank`]).
    pub phases: Vec<(String, u64)>,
}

impl Waterfall {
    /// Sum of all phase durations — the phases are disjoint by
    /// construction, so this approximates the server-side latency.
    pub fn total_us(&self) -> u64 {
        self.phases.iter().map(|(_, us)| *us).sum()
    }

    /// Renders the waterfall as indented text with proportional bars.
    pub fn render(&self) -> String {
        let total = self.total_us();
        let widest = self.phases.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let peak = self.phases.iter().map(|(_, us)| *us).max().unwrap_or(0).max(1);
        let mut out = format!(
            "trace {} txn {} — {} phases, {} us total\n",
            self.trace,
            self.txn,
            self.phases.len(),
            total
        );
        for (name, us) in &self.phases {
            let bar = "#".repeat(((us * 40) / peak) as usize);
            out.push_str(&format!("  {name:widest$} {us:>9} us {bar}\n"));
        }
        out
    }
}

/// Canonical display order of the commit phases: request-lifecycle
/// order (queue, then the 2PC edges in protocol order, then the local
/// commit phases), so a waterfall reads top-to-bottom as the request
/// actually progressed. Unknown phases sort last, alphabetically.
fn phase_rank(name: &str) -> usize {
    const ORDER: &[&str] = &[
        names::PH_QUEUE_WAIT,
        names::PH_2PC_PREPARE,
        names::PH_2PC_COORD,
        names::PH_2PC_RESOLVE,
        names::PH_ENGINE_HOLD,
        names::PH_COMMIT_PREPARE,
        names::PH_FLUSH_WAIT,
        names::PH_SERVE_OTHER,
    ];
    ORDER.iter().position(|n| *n == name).unwrap_or(ORDER.len())
}

/// Fetches `path` from the introspection server at `addr` with a plain
/// HTTP/1.0 GET; returns the body. Non-200 statuses are errors (the
/// status line is included in the message).
pub fn http_get(addr: &str, path: &str) -> Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| ClientError::Protocol(format!("GET {path}: no header/body split")))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") && !status.ends_with(" 200") {
        return Err(ClientError::Protocol(format!("GET {path}: {status}")));
    }
    Ok(body.to_string())
}

/// Fetches and parses a JSON endpoint.
pub fn http_get_json(addr: &str, path: &str) -> Result<JsonValue> {
    let body = http_get(addr, path)?;
    json::parse(&body).map_err(|e| ClientError::Protocol(format!("GET {path}: bad json: {e}")))
}

/// Extracts every `phase.*` point from a trace document, whatever its
/// shape: a plain snapshot (`{dropped, events}`), the sharded composite
/// (`{router: …, shards: […]}`), or a flight-recorder black-box record
/// (`{…, trace: {events}}`) — any nested `events` array is harvested.
pub fn collect_phases(doc: &JsonValue) -> Vec<PhaseEvent> {
    let mut out = Vec::new();
    walk(doc, &mut out);
    out
}

fn walk(v: &JsonValue, out: &mut Vec<PhaseEvent>) {
    match v {
        JsonValue::Obj(fields) => {
            for (key, val) in fields {
                if key == "events" {
                    if let JsonValue::Arr(events) = val {
                        for ev in events {
                            push_phase(ev, out);
                        }
                        continue;
                    }
                }
                walk(val, out);
            }
        }
        JsonValue::Arr(items) => {
            for item in items {
                walk(item, out);
            }
        }
        _ => {}
    }
}

fn push_phase(ev: &JsonValue, out: &mut Vec<PhaseEvent>) {
    let Some(name) = ev.get("name").and_then(JsonValue::as_str) else { return };
    if !name.starts_with("phase.") {
        return;
    }
    // A phase point carries the trace id in `lsn_lo`; untraced requests
    // (NO_TRACE) omit the field entirely in the JSON rendering.
    let Some(trace) = ev.get("lsn_lo").and_then(JsonValue::as_u64) else { return };
    out.push(PhaseEvent {
        name: name.to_string(),
        txn: ev.get("txn").and_then(JsonValue::as_u64).unwrap_or(u64::MAX),
        trace,
        us: ev.get("payload").and_then(JsonValue::as_u64).unwrap_or(0),
    });
}

/// Groups phase events by trace id into per-request waterfalls, each
/// with its phases in canonical order. Waterfalls come back sorted by
/// descending total duration (the slow ones are what a reader wants
/// first).
pub fn stitch(events: &[PhaseEvent]) -> Vec<Waterfall> {
    let mut groups: BTreeMap<u64, Vec<&PhaseEvent>> = BTreeMap::new();
    for ev in events {
        groups.entry(ev.trace).or_default().push(ev);
    }
    let mut out: Vec<Waterfall> = groups
        .into_iter()
        .map(|(trace, mut evs)| {
            evs.sort_by_key(|e| phase_rank(&e.name));
            Waterfall {
                trace,
                txn: evs.first().map(|e| e.txn).unwrap_or(u64::MAX),
                phases: evs.into_iter().map(|e| (e.name.clone(), e.us)).collect(),
            }
        })
        .collect();
    out.sort_by_key(|w| std::cmp::Reverse(w.total_us()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_json(name: &str, txn: u64, trace: u64, us: u64) -> JsonValue {
        JsonValue::obj(vec![
            ("ts_us", JsonValue::U64(0)),
            ("kind", JsonValue::Str("point".into())),
            ("name", JsonValue::Str(name.into())),
            ("lsn_lo", JsonValue::U64(trace)),
            ("txn", JsonValue::U64(txn)),
            ("payload", JsonValue::U64(us)),
        ])
    }

    fn snapshot(events: Vec<JsonValue>) -> JsonValue {
        JsonValue::obj(vec![("dropped", JsonValue::U64(0)), ("events", JsonValue::Arr(events))])
    }

    #[test]
    fn collects_phases_from_flat_and_sharded_shapes() {
        let flat = snapshot(vec![
            phase_json("phase.queue_wait", 7, 99, 10),
            // Non-phase points are ignored.
            JsonValue::obj(vec![
                ("name", JsonValue::Str("log.force".into())),
                ("payload", JsonValue::U64(5)),
            ]),
        ]);
        assert_eq!(collect_phases(&flat).len(), 1);

        let sharded = JsonValue::obj(vec![
            ("router", snapshot(vec![phase_json("phase.queue_wait", 7, 99, 10)])),
            (
                "shards",
                JsonValue::Arr(vec![
                    snapshot(vec![phase_json("phase.twopc.prepare_force", 7, 99, 300)]),
                    snapshot(vec![phase_json("phase.twopc.coord_force", 7, 99, 400)]),
                ]),
            ),
        ]);
        let phases = collect_phases(&sharded);
        assert_eq!(phases.len(), 3);
        assert!(phases.iter().all(|p| p.trace == 99 && p.txn == 7));
    }

    #[test]
    fn untraced_phase_points_are_skipped() {
        // NO_TRACE renders with `lsn_lo` omitted — such phases belong to
        // no waterfall.
        let ev = JsonValue::obj(vec![
            ("name", JsonValue::Str("phase.queue_wait".into())),
            ("txn", JsonValue::U64(3)),
            ("payload", JsonValue::U64(12)),
        ]);
        assert!(collect_phases(&snapshot(vec![ev])).is_empty());
    }

    #[test]
    fn stitches_by_trace_in_canonical_order() {
        let doc = snapshot(vec![
            phase_json("phase.flush_wait", 7, 99, 500),
            phase_json("phase.queue_wait", 7, 99, 10),
            phase_json("phase.commit_prepare", 7, 99, 20),
            phase_json("phase.queue_wait", 8, 100, 1),
        ]);
        let wf = stitch(&collect_phases(&doc));
        assert_eq!(wf.len(), 2);
        // Sorted by total: trace 99 (530us) before trace 100 (1us).
        assert_eq!(wf[0].trace, 99);
        assert_eq!(wf[0].total_us(), 530);
        let order: Vec<&str> = wf[0].phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, vec!["phase.queue_wait", "phase.commit_prepare", "phase.flush_wait"]);
        let text = wf[0].render();
        assert!(text.contains("trace 99 txn 7"));
        assert!(text.contains("phase.flush_wait"));
    }
}
