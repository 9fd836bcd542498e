//! Correctness self-test: every workload at smoke size, with every
//! oracle check on, against the real `rh-serve` binary built beside the
//! harness. A corrupted expected value must make the run fail.

use rh_perfbench::{result_json, run, Config, Workload};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool, corrupt_oracle: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        smoke: true,
        corrupt_oracle,
        scratch_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    }
}

#[test]
fn every_workload_passes_every_oracle_check() {
    for wl in Workload::ALL {
        for trace in [false, true] {
            let out = run(&smoke(wl, trace, false))
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", wl.name()));
            assert!(out.correct(), "{} trace={trace}: {:?}", wl.name(), out.divergences);
            assert!(out.attempted > 0, "{} attempted nothing", wl.name());
            // The checks really ran: restart, time-travel and acked
            // effects each report how much they compared.
            for what in ["after restart:", "read_as_of:", "acked effects:"] {
                assert!(
                    out.notes.iter().any(|n| n.starts_with(what) && !n.contains(": 0 ")),
                    "{}: no {what} check in {:?}",
                    wl.name(),
                    out.notes
                );
            }
            let line = result_json(&out);
            assert!(line.contains("\"correct\": true"), "{line}");
            let expected: &[&str] = if trace {
                &["client.rtt_us.commit", "recovery.records_scanned", "trace.overhead"]
            } else {
                &["commit_tps", "txn_p50_us", "asof_p99_us", "restart_ms", "setup_s"]
            };
            for m in expected {
                assert!(line.contains(m), "{} trace={trace} lacks {m}", wl.name());
            }
        }
    }
}

#[test]
fn restart_undoes_losers_in_the_fixed_history() {
    let out = run(&smoke(Workload::HistoryRestart, true, false)).expect("history run");
    let get = |name: &str| {
        out.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect("metric present")
    };
    assert!(get("recovery.undone") > 0.0, "losers' updates were undone");
    assert!(get("recovery.clusters") > 1.0, "the backward pass met several clusters");
}

#[test]
fn a_corrupted_expectation_fails_the_run() {
    for wl in [Workload::OltpT1, Workload::HistoryRestart] {
        let out = run(&smoke(wl, false, true)).expect("run completes");
        assert!(!out.correct(), "{}: corrupted oracle went unnoticed", wl.name());
        assert!(result_json(&out).contains("\"correct\": false"));
    }
}
