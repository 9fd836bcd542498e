//! `rh-postmortem` — render a crashed (or live) instance's black box as
//! a human-readable report.
//!
//! ```text
//! rh-postmortem <log-dir> [artifact.json]
//! ```
//!
//! The flight recorder's black boxes ride the write-ahead log as
//! `BlackBox` records, so the argument is a log directory (one shard's,
//! for a sharded server). The tool reads the segment files without
//! opening the log — nothing is created or repaired, so a live server's
//! directory is safe — lists every box the log retains, then expands the
//! newest one: counters at freeze time, the recovery timeline (per-pass
//! wall clocks, cluster/gap sweep map), and the final trace spans —
//! exactly what the next incarnation's `RecoveryReport::postmortem`
//! diffs against.
//!
//! With an optional artifact JSON (as written by `rh-obs` exports or the
//! bench harness), its `postmortem` and `provenance` sections are
//! rendered too.
//!
//! Exits nonzero when the directory cannot be read or its log holds no
//! black box — CI uses that as "the black box must survive a crash"
//! gate.

use rh_core::flight::boxes_in_dir;
use rh_obs::{names, BlackBoxRecord, JsonValue};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, artifact) = match args.as_slice() {
        [dir] => (PathBuf::from(dir), None),
        [dir, artifact] => (PathBuf::from(dir), Some(PathBuf::from(artifact))),
        _ => {
            eprintln!("usage: rh-postmortem <log-dir> [artifact.json]");
            return ExitCode::from(2);
        }
    };

    let records = match boxes_in_dir(&dir) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("rh-postmortem: cannot read log directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(last) = records.last() else {
        eprintln!("rh-postmortem: the log in {} holds zero black boxes", dir.display());
        return ExitCode::FAILURE;
    };

    println!("black box: {}", dir.display());
    println!("boxes retained: {} (log LSNs {}..={})", records.len(), records[0].seq, last.seq);
    println!();
    for rec in &records {
        println!(
            "  #{:<6} +{:>10.3}s  {:<16} events={:<5} dropped={}",
            rec.seq,
            rec.at_us as f64 / 1e6,
            rec.reason,
            rec.events().len(),
            trace_dropped(rec),
        );
    }

    println!();
    println!("== newest box: #{} ({}) ==", last.seq, last.reason);
    render_counters(last);
    render_recovery_timeline(last);
    render_sweep_map(last);
    render_final_spans(last);

    if let Some(path) = artifact {
        if let Err(code) = render_artifact(&path) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

fn trace_dropped(rec: &BlackBoxRecord) -> u64 {
    rec.raw.get("trace").and_then(|t| t.get("dropped")).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn render_counters(rec: &BlackBoxRecord) {
    let mut counters = rec.counters();
    counters.retain(|(_, v)| *v > 0);
    if counters.is_empty() {
        println!("  (no nonzero counters)");
        return;
    }
    println!("  counters at freeze time:");
    for (name, value) in counters {
        println!("    {name:<32} {value}");
    }
}

/// Per-pass wall clocks from the `recovery.*_us` histograms the engine
/// observes at the end of every recovery.
fn render_recovery_timeline(rec: &BlackBoxRecord) {
    let rows: Vec<(&str, &str)> = vec![
        ("forward pass", names::M_RECOVERY_FORWARD_US),
        ("backward pass", names::M_RECOVERY_UNDO_US),
        ("total", names::M_RECOVERY_TOTAL_US),
    ];
    let hist = |name: &str| -> Option<JsonValue> {
        rec.raw.get("metrics").and_then(|m| m.get("histograms")).and_then(|h| h.get(name)).cloned()
    };
    if rows.iter().all(|(_, name)| hist(name).is_none()) {
        return;
    }
    println!("  recovery timeline (wall clock, most recent process lifetime):");
    for (label, name) in rows {
        let Some(h) = hist(name) else { continue };
        let count = h.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
        let sum = h.get("sum").and_then(JsonValue::as_u64).unwrap_or(0);
        let max = h.get("max").and_then(JsonValue::as_u64).unwrap_or(0);
        println!(
            "    {label:<14} runs={count:<3} total={:>10.3}ms  max={:>10.3}ms",
            sum as f64 / 1e3,
            max as f64 / 1e3,
        );
    }
}

/// The cluster/gap sweep map of the backward pass, rebuilt from the
/// frozen trace events (paper Fig. 7/8: clusters visited monotonically,
/// gaps between them skipped without reading).
fn render_sweep_map(rec: &BlackBoxRecord) {
    let events = rec.events();
    let name_of = |e: &JsonValue| e.get("name").and_then(JsonValue::as_str).map(str::to_string);
    let mut clusters = 0u64;
    let mut visits = 0u64;
    let mut clrs = 0u64;
    let mut gaps: Vec<(u64, u64, u64)> = Vec::new();
    for e in &events {
        match name_of(e).as_deref() {
            Some(names::EV_CLUSTER_START) => clusters += 1,
            Some(names::EV_UNDO_VISIT) => visits += 1,
            Some(names::EV_UNDO_CLR) => clrs += 1,
            Some(names::EV_GAP_SKIP) => {
                let to = e.get("lsn_lo").and_then(JsonValue::as_u64).unwrap_or(0);
                let from = e.get("lsn_hi").and_then(JsonValue::as_u64).unwrap_or(0);
                let dist = e.get("payload").and_then(JsonValue::as_u64).unwrap_or(0);
                gaps.push((from, to, dist));
            }
            _ => {}
        }
    }
    if clusters + visits + clrs == 0 && gaps.is_empty() {
        return;
    }
    println!(
        "  sweep map: {clusters} cluster(s) entered, {visits} record(s) visited, {clrs} CLR(s) written"
    );
    let skipped: u64 = gaps.iter().map(|(_, _, d)| d).sum();
    if !gaps.is_empty() {
        println!("    gaps skipped ({} totalling {skipped} LSNs):", gaps.len());
        for (from, to, dist) in gaps.iter().take(16) {
            println!("      LSN {from} -> {to}  (skipped {dist})");
        }
        if gaps.len() > 16 {
            println!("      ... {} more", gaps.len() - 16);
        }
    }
}

fn render_final_spans(rec: &BlackBoxRecord) {
    let finals = rec.final_events(rh_obs::blackbox::DEFAULT_FINAL_EVENTS);
    if finals.is_empty() {
        println!("  (no trace events frozen)");
        return;
    }
    println!("  final {} trace events before the freeze:", finals.len());
    for e in &finals {
        let ts = e.get("ts_us").and_then(JsonValue::as_u64).unwrap_or(0);
        let kind = e.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
        let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let mut extras = String::new();
        for key in ["lsn_lo", "lsn_hi", "txn", "payload"] {
            if let Some(v) = e.get(key).and_then(JsonValue::as_u64) {
                if key == "payload" && v == 0 {
                    continue;
                }
                extras.push_str(&format!(" {key}={v}"));
            }
        }
        println!("    +{:>10.3}s {kind:<5} {name:<20}{extras}", ts as f64 / 1e6);
    }
}

/// Renders the `postmortem` and `provenance` sections of an exported
/// JSON artifact (the schema documented in EXPERIMENTS.md).
fn render_artifact(path: &Path) -> Result<(), ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("rh-postmortem: cannot read {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    let doc = rh_obs::json::parse(&text).map_err(|e| {
        eprintln!("rh-postmortem: {} is not valid JSON: {e}", path.display());
        ExitCode::FAILURE
    })?;
    println!();
    println!("== artifact: {} ==", path.display());
    match doc.get("postmortem") {
        Some(pm) if *pm != JsonValue::Null => {
            let pred = pm.get("predecessor");
            let reason =
                pred.and_then(|p| p.get("reason")).and_then(JsonValue::as_str).unwrap_or("unknown");
            let seq =
                pred.and_then(|p| p.get("seq")).and_then(JsonValue::as_u64).unwrap_or_default();
            println!("  postmortem: predecessor box #{seq} ({reason})");
            if let Some(JsonValue::Obj(delta)) = pm.get("delta") {
                let mut nonzero: Vec<(&String, i64)> = delta
                    .iter()
                    .filter_map(|(k, v)| match v {
                        JsonValue::I64(n) if *n != 0 => Some((k, *n)),
                        _ => None,
                    })
                    .collect();
                nonzero.sort_by_key(|(_, n)| -n.abs());
                println!("  counter deltas (recovered - pre-crash, nonzero):");
                for (name, n) in nonzero.iter().take(24) {
                    println!("    {name:<32} {n:+}");
                }
            }
        }
        _ => println!("  (artifact carries no postmortem section)"),
    }
    match doc.get("provenance") {
        Some(JsonValue::Obj(chains)) if !chains.is_empty() => {
            println!("  provenance chains:");
            for (ob, chain) in chains {
                let hops = chain.as_arr().map_or(0, <[JsonValue]>::len);
                let path: Vec<String> = chain
                    .as_arr()
                    .map(|hops| {
                        let mut parts: Vec<String> = Vec::new();
                        for (i, hop) in hops.iter().enumerate() {
                            let from = hop.get("from").and_then(JsonValue::as_u64).unwrap_or(0);
                            let to = hop.get("to").and_then(JsonValue::as_u64).unwrap_or(0);
                            if i == 0 {
                                parts.push(format!("t{from}"));
                            }
                            parts.push(format!("t{to}"));
                        }
                        parts
                    })
                    .unwrap_or_default();
                println!("    ob{ob}: {} ({hops} hop(s))", path.join(" -> "));
            }
        }
        _ => println!("  (artifact carries no provenance chains)"),
    }
    Ok(())
}
