//! The lock-graph unifier: static inference × runtime witness.
//!
//! Final stage of the deadlock subsystem (DESIGN.md §15). The static
//! pass ([`crate::lockgraph`]) predicts a *superset* of the nesting
//! edges any execution may produce; the runtime witness (the
//! `parking_lot` shim's `lockwitness.v1` artifacts) records the edges
//! real executions *did* produce. Unification checks both directions:
//!
//! * a **cycle on either side is fatal** — a static cycle is an
//!   interprocedural ABBA candidate, a witness cycle is a deadlock the
//!   witness aborted at runtime;
//! * an **unpredicted dynamic edge is fatal** — the witness saw a
//!   nesting the inference missed, which means the static graph's
//!   acyclicity proof has a hole (a resolution gap, an un-modelled
//!   dispatch path, or an unnamed lock site).
//!
//! The unifier also produces the ranked **hold-time report**: sites
//! ordered by total observed held time, each with its named
//! sub-histograms (`core.engine` / `commit_prepare` is the expected
//! chart-topper under the full suite).

use crate::lockgraph::Analysis;
use rh_obs::json::{self, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Merged hold-time histogram in the witness's power-of-two-µs buckets.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Sum of observed microseconds.
    pub total_us: u64,
    /// Largest single observation, microseconds.
    pub max_us: u64,
    /// Sparse bucket counts (`index -> count`); bucket `i` covers
    /// `[2^(i-1), 2^i)` µs.
    pub buckets: BTreeMap<u64, u64>,
}

impl Hist {
    fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
    }

    /// Mean hold in microseconds (0 when empty).
    pub fn avg_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    fn parse(v: &JsonValue) -> Result<Hist, String> {
        let mut h = Hist {
            count: v.get("count").and_then(JsonValue::as_u64).ok_or("hold.count")?,
            total_us: v.get("total_us").and_then(JsonValue::as_u64).ok_or("hold.total_us")?,
            max_us: v.get("max_us").and_then(JsonValue::as_u64).ok_or("hold.max_us")?,
            buckets: BTreeMap::new(),
        };
        if let Some(JsonValue::Obj(fields)) = v.get("buckets") {
            for (k, c) in fields {
                let idx: u64 = k.parse().map_err(|_| format!("bucket key `{k}`"))?;
                h.buckets.insert(idx, c.as_u64().ok_or("bucket count")?);
            }
        }
        Ok(h)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::U64(self.count)),
            ("total_us", JsonValue::U64(self.total_us)),
            ("max_us", JsonValue::U64(self.max_us)),
            (
                "buckets",
                JsonValue::Obj(
                    self.buckets
                        .iter()
                        .map(|(&b, &c)| (b.to_string(), JsonValue::U64(c)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One witnessed lock site, merged across artifacts.
#[derive(Debug, Clone, Default)]
pub struct WitnessSite {
    /// Acquisitions witnessed.
    pub acquires: u64,
    /// Hold-time histogram.
    pub hold: Hist,
    /// Named sub-histograms (`note_hold` attributions), by name.
    pub subs: BTreeMap<String, Hist>,
}

/// One witnessed nesting edge, merged across artifacts.
#[derive(Debug, Clone)]
pub struct WitnessEdge {
    /// Observations.
    pub count: u64,
    /// Thread that first produced the edge (diagnosis aid).
    pub first_thread: String,
}

/// All witness artifacts, merged.
#[derive(Debug, Default)]
pub struct Witness {
    /// Artifact files merged in.
    pub artifacts: u64,
    /// Per-site stats keyed by site name.
    pub sites: BTreeMap<String, WitnessSite>,
    /// Observed edges keyed by `(holder, acquired)`.
    pub edges: BTreeMap<(String, String), WitnessEdge>,
    /// Runtime-diagnosed deadlock cycles (each aborted a thread).
    pub cycles: Vec<String>,
}

impl Witness {
    /// Loads witness artifacts from `path`: either one `lockwitness`
    /// JSON file, or a directory whose `lockwitness-*.json` files are
    /// all merged. A directory with no artifacts is an error — it means
    /// the suite ran without `RH_LOCK_WITNESS=1` and the dynamic half of
    /// the gate would be vacuous.
    pub fn load(path: &Path) -> Result<Witness, String> {
        let mut w = Witness::default();
        if path.is_dir() {
            let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("lockwitness") && n.ends_with(".json"))
                })
                .collect();
            names.sort();
            for p in &names {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                w.merge_text(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            }
            if w.artifacts == 0 {
                return Err(format!(
                    "{}: no lockwitness-*.json artifacts — did the suite run with \
                     RH_LOCK_WITNESS=1 and RH_LOCK_WITNESS_DIR set?",
                    path.display()
                ));
            }
        } else {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            w.merge_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(w)
    }

    /// Merges one `lockwitness.v1` document into the accumulated state.
    pub fn merge_text(&mut self, text: &str) -> Result<(), String> {
        let doc = json::parse(text).map_err(|e| format!("parse: {e}"))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some("lockwitness.v1") => {}
            other => return Err(format!("schema {other:?}, want \"lockwitness.v1\"")),
        }
        for s in doc.get("sites").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let name = s.get("site").and_then(JsonValue::as_str).ok_or("site.site")?.to_string();
            let entry = self.sites.entry(name).or_default();
            entry.acquires += s.get("acquires").and_then(JsonValue::as_u64).ok_or("acquires")?;
            entry.hold.merge(&Hist::parse(s.get("hold").ok_or("site.hold")?)?);
            if let Some(JsonValue::Obj(subs)) = s.get("subs") {
                for (sub, hv) in subs {
                    entry.subs.entry(sub.clone()).or_default().merge(&Hist::parse(hv)?);
                }
            }
        }
        for e in doc.get("edges").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let from = e.get("from").and_then(JsonValue::as_str).ok_or("edge.from")?.to_string();
            let to = e.get("to").and_then(JsonValue::as_str).ok_or("edge.to")?.to_string();
            let count = e.get("count").and_then(JsonValue::as_u64).ok_or("edge.count")?;
            let thread =
                e.get("first_thread").and_then(JsonValue::as_str).unwrap_or("?").to_string();
            self.edges
                .entry((from, to))
                .and_modify(|w| w.count += count)
                .or_insert(WitnessEdge { count, first_thread: thread });
        }
        for c in doc.get("cycles").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            if let Some(msg) = c.as_str() {
                self.cycles.push(msg.to_string());
            }
        }
        self.artifacts += 1;
        Ok(())
    }
}

/// One row of the ranked hold-time report.
#[derive(Debug)]
pub struct HoldRow {
    /// The site.
    pub site: String,
    /// Acquisitions witnessed.
    pub acquires: u64,
    /// Merged hold histogram.
    pub hold: Hist,
    /// Sub-histograms, ranked by total time within the site.
    pub subs: Vec<(String, Hist)>,
}

/// A dynamic edge the static inference did not predict.
#[derive(Debug)]
pub struct Unpredicted {
    /// Holder site.
    pub from: String,
    /// Acquired site.
    pub to: String,
    /// Observations.
    pub count: u64,
    /// Thread that first produced it.
    pub first_thread: String,
}

/// The unified verdict.
#[derive(Debug)]
pub struct Unified {
    /// Static SCC cycles (fatal).
    pub static_cycles: Vec<Vec<String>>,
    /// Witness-diagnosed runtime cycles (fatal).
    pub witness_cycles: Vec<String>,
    /// Dynamic edges absent from the static edge set (fatal).
    pub unpredicted: Vec<Unpredicted>,
    /// Dynamic edges the static pass predicted (confirmations).
    pub confirmed: u64,
    /// Static sites the witness never saw acquire (coverage view, not
    /// fatal — cold paths are expected).
    pub uncovered: Vec<String>,
    /// Hold-time report, ranked by total held time, descending.
    pub report: Vec<HoldRow>,
}

impl Unified {
    /// True when the gate passes: no cycles anywhere, every dynamic
    /// edge predicted.
    pub fn ok(&self) -> bool {
        self.static_cycles.is_empty()
            && self.witness_cycles.is_empty()
            && self.unpredicted.is_empty()
    }
}

/// Merges the static analysis with the witness evidence.
pub fn unify(analysis: &Analysis, witness: &Witness) -> Unified {
    let predicted: BTreeSet<(&str, &str)> =
        analysis.edges.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
    let mut unpredicted = Vec::new();
    let mut confirmed = 0u64;
    for ((from, to), e) in &witness.edges {
        if predicted.contains(&(from.as_str(), to.as_str())) {
            confirmed += 1;
        } else {
            unpredicted.push(Unpredicted {
                from: from.clone(),
                to: to.clone(),
                count: e.count,
                first_thread: e.first_thread.clone(),
            });
        }
    }
    let uncovered: Vec<String> =
        analysis.nodes.iter().filter(|n| !witness.sites.contains_key(*n)).cloned().collect();
    let mut report: Vec<HoldRow> = witness
        .sites
        .iter()
        .map(|(name, s)| {
            let mut subs: Vec<(String, Hist)> =
                s.subs.iter().map(|(n, h)| (n.clone(), h.clone())).collect();
            subs.sort_by_key(|s| std::cmp::Reverse(s.1.total_us));
            HoldRow { site: name.clone(), acquires: s.acquires, hold: s.hold.clone(), subs }
        })
        .collect();
    report.sort_by(|a, b| b.hold.total_us.cmp(&a.hold.total_us).then(a.site.cmp(&b.site)));
    Unified {
        static_cycles: analysis.cycles.clone(),
        witness_cycles: witness.cycles.clone(),
        unpredicted,
        confirmed,
        uncovered,
        report,
    }
}

/// Renders the `lockgraph.json` artifact body.
pub fn to_json(analysis: &Analysis, witness: Option<&Witness>, unified: &Unified) -> JsonValue {
    let mut fields = vec![
        ("schema", JsonValue::Str("lockgraph.v1".to_string())),
        (
            "nodes",
            JsonValue::Arr(analysis.nodes.iter().map(|n| JsonValue::Str(n.clone())).collect()),
        ),
        (
            "static_edges",
            JsonValue::Arr(
                analysis
                    .edges
                    .iter()
                    .map(|e| {
                        JsonValue::obj(vec![
                            ("from", JsonValue::Str(e.from.clone())),
                            ("to", JsonValue::Str(e.to.clone())),
                            ("file", JsonValue::Str(e.file.clone())),
                            ("line", JsonValue::U64(u64::from(e.line))),
                            (
                                "via",
                                e.via
                                    .as_ref()
                                    .map_or(JsonValue::Null, |v| JsonValue::Str(v.clone())),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "static_cycles",
            JsonValue::Arr(
                unified
                    .static_cycles
                    .iter()
                    .map(|c| JsonValue::Arr(c.iter().map(|n| JsonValue::Str(n.clone())).collect()))
                    .collect(),
            ),
        ),
        ("fn_count", JsonValue::U64(analysis.fn_count as u64)),
    ];
    if let Some(w) = witness {
        fields.push(("witness_artifacts", JsonValue::U64(w.artifacts)));
        fields.push((
            "dynamic_edges",
            JsonValue::Arr(
                w.edges
                    .iter()
                    .map(|((from, to), e)| {
                        let predicted =
                            !unified.unpredicted.iter().any(|u| &u.from == from && &u.to == to);
                        JsonValue::obj(vec![
                            ("from", JsonValue::Str(from.clone())),
                            ("to", JsonValue::Str(to.clone())),
                            ("count", JsonValue::U64(e.count)),
                            ("first_thread", JsonValue::Str(e.first_thread.clone())),
                            ("predicted", JsonValue::Bool(predicted)),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "witness_cycles",
            JsonValue::Arr(
                unified.witness_cycles.iter().map(|c| JsonValue::Str(c.clone())).collect(),
            ),
        ));
        fields.push((
            "unpredicted",
            JsonValue::Arr(
                unified
                    .unpredicted
                    .iter()
                    .map(|u| {
                        JsonValue::obj(vec![
                            ("from", JsonValue::Str(u.from.clone())),
                            ("to", JsonValue::Str(u.to.clone())),
                            ("count", JsonValue::U64(u.count)),
                            ("first_thread", JsonValue::Str(u.first_thread.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "uncovered",
            JsonValue::Arr(unified.uncovered.iter().map(|n| JsonValue::Str(n.clone())).collect()),
        ));
        fields.push((
            "hold_report",
            JsonValue::Arr(
                unified
                    .report
                    .iter()
                    .map(|r| {
                        JsonValue::obj(vec![
                            ("site", JsonValue::Str(r.site.clone())),
                            ("acquires", JsonValue::U64(r.acquires)),
                            ("hold", r.hold.to_json()),
                            (
                                "subs",
                                JsonValue::Obj(
                                    r.subs.iter().map(|(n, h)| (n.clone(), h.to_json())).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    fields.push(("ok", JsonValue::Bool(unified.ok())));
    JsonValue::obj(fields)
}

/// Formats a human-readable hold-time duration.
pub fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
    } else if us >= 1_000 {
        format!("{}.{:03}ms", us / 1_000, us % 1_000)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::DepMap;
    use crate::lockgraph::analyze;
    use crate::rules::SourceFile;

    fn doc(sites: &str, edges: &str, cycles: &str) -> String {
        format!(
            "{{\"schema\": \"lockwitness.v1\", \"pid\": 1, \"releases\": 9, \
             \"sites\": [{sites}], \"edges\": [{edges}], \"cycles\": [{cycles}]}}"
        )
    }

    fn site(name: &str, acquires: u64, count: u64, total: u64, max: u64) -> String {
        format!(
            "{{\"site\": \"{name}\", \"acquires\": {acquires}, \"hold\": \
             {{\"count\": {count}, \"total_us\": {total}, \"max_us\": {max}, \
             \"buckets\": {{\"3\": {count}}}}}, \"subs\": {{}}}}"
        )
    }

    fn edge(from: &str, to: &str, count: u64) -> String {
        format!(
            "{{\"from\": \"{from}\", \"to\": \"{to}\", \"count\": {count}, \
             \"first_thread\": \"t-{from}\"}}"
        )
    }

    fn tiny_analysis() -> crate::lockgraph::Analysis {
        analyze(
            &[SourceFile::new(
                "crates/eos/src/global.rs",
                "fn flush(&self) { let b = self.batches.lock(); let s = self.snapshot.lock(); }",
            )],
            &DepMap::from_edges(&[]),
        )
    }

    #[test]
    fn merges_artifacts_summing_counts_and_maxing_max() {
        let mut w = Witness::default();
        w.merge_text(&doc(&site("eos.batches", 10, 10, 100, 40), "", "")).unwrap();
        w.merge_text(&doc(&site("eos.batches", 5, 5, 50, 90), "", "")).unwrap();
        assert_eq!(w.artifacts, 2);
        let s = &w.sites["eos.batches"];
        assert_eq!(s.acquires, 15);
        assert_eq!(s.hold.count, 15);
        assert_eq!(s.hold.total_us, 150);
        assert_eq!(s.hold.max_us, 90);
        assert_eq!(s.hold.buckets[&3], 15);
    }

    #[test]
    fn rejects_unknown_schema() {
        let mut w = Witness::default();
        let err = w
            .merge_text("{\"schema\": \"lockwitness.v2\", \"sites\": []}")
            .expect_err("schema gate");
        assert!(err.contains("lockwitness.v1"), "{err}");
    }

    #[test]
    fn predicted_dynamic_edge_confirms_and_unpredicted_fails() {
        let a = tiny_analysis();
        let mut w = Witness::default();
        w.merge_text(&doc(
            &format!("{}, {}", site("eos.batches", 4, 4, 40, 20), site("eos.snapshot", 4, 4, 4, 1)),
            &format!(
                "{}, {}",
                edge("eos.batches", "eos.snapshot", 4),
                edge("eos.snapshot", "wal.state", 1)
            ),
            "",
        ))
        .unwrap();
        let u = unify(&a, &w);
        assert_eq!(u.confirmed, 1);
        assert_eq!(u.unpredicted.len(), 1);
        assert_eq!(u.unpredicted[0].from, "eos.snapshot");
        assert_eq!(u.unpredicted[0].to, "wal.state");
        assert_eq!(u.unpredicted[0].first_thread, "t-eos.snapshot");
        assert!(!u.ok());
    }

    #[test]
    fn witness_cycle_is_fatal_even_with_clean_static_graph() {
        let a = tiny_analysis();
        let mut w = Witness::default();
        w.merge_text(&doc("", "", "\"ABBA between a and b\"")).unwrap();
        let u = unify(&a, &w);
        assert_eq!(u.witness_cycles, vec!["ABBA between a and b".to_string()]);
        assert!(!u.ok());
    }

    #[test]
    fn hold_report_ranks_by_total_time() {
        let a = tiny_analysis();
        let mut w = Witness::default();
        w.merge_text(&doc(
            &format!(
                "{}, {}",
                site("eos.snapshot", 100, 100, 500, 9),
                site("eos.batches", 3, 3, 9_000, 5_000)
            ),
            "",
            "",
        ))
        .unwrap();
        let u = unify(&a, &w);
        assert_eq!(u.report[0].site, "eos.batches");
        assert_eq!(u.report[1].site, "eos.snapshot");
        assert_eq!(u.report[0].hold.avg_us(), 3_000);
        assert!(u.ok());
        // Both static nodes were witnessed: nothing uncovered.
        assert!(u.uncovered.is_empty());
    }

    #[test]
    fn uncovered_static_sites_are_reported_not_fatal() {
        let a = tiny_analysis();
        let mut w = Witness::default();
        w.merge_text(&doc(&site("eos.batches", 1, 1, 1, 1), "", "")).unwrap();
        let u = unify(&a, &w);
        assert_eq!(u.uncovered, vec!["eos.snapshot".to_string()]);
        assert!(u.ok());
    }

    #[test]
    fn artifact_json_round_trips_through_the_parser() {
        let a = tiny_analysis();
        let mut w = Witness::default();
        w.merge_text(&doc(
            &site("eos.batches", 2, 2, 10, 8),
            &edge("eos.batches", "eos.snapshot", 2),
            "",
        ))
        .unwrap();
        let u = unify(&a, &w);
        let body = to_json(&a, Some(&w), &u);
        let parsed = json::parse(&body.render_pretty()).expect("valid json");
        assert_eq!(parsed.get("schema").and_then(JsonValue::as_str), Some("lockgraph.v1"));
        assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(true)));
        let dyn_edges = parsed.get("dynamic_edges").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(dyn_edges.len(), 1);
        assert_eq!(dyn_edges[0].get("predicted"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(7), "7us");
        assert_eq!(fmt_us(2_500), "2.500ms");
        assert_eq!(fmt_us(3_040_000), "3.040s");
    }
}
