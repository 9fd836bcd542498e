//! # rh-perfbench
//!
//! The repository's end-to-end benchmark. It builds `rh-serve` from the
//! workspace's unmodified source, runs it as a child process, drives a
//! seeded workload against the warm server, checks every answer against
//! an oracle, and prints one JSON result line. See `README.md` in this
//! directory for the metrics, the workloads and the couplings to keep
//! in mind when reading them.

pub mod history;
pub mod layers;
pub mod plan;
pub mod run;
pub mod serve;
pub mod stats;

pub use run::{run, Config, Metric, Outcome, Workload};

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric with its unit.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust keeps (non-finite → 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The environment block: what a reader needs to explain drift between
/// machines.
pub fn env_json(fsync_floor_us: f64) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"nproc\": {nproc}, \"wal.fsync_floor_us\": {}, \"git_commit\": \"{}\", \"rh_serve_profile\": \"{profile}\"}}",
        json_num(fsync_floor_us),
        git_commit()
    )
}

/// The checked-out commit; "unknown" outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let out = Outcome {
            metrics: vec![Metric { name: "setup_s".into(), value: 0.25, unit: "s" }],
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_json(&out);
        let doc = rh_obs::json::parse(&line).expect("valid json");
        assert!(matches!(doc.get("correct"), Some(rh_obs::json::JsonValue::Bool(true))));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("metric");
        assert!(m.get("value").is_some() && m.get("unit").is_some());
    }
}
